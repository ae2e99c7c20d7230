package experiment

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
)

// TestRunSeedDerivation: trial i must see Seed + i and a child RNG
// seeded with exactly that, in trial order.
func TestRunSeedDerivation(t *testing.T) {
	res, err := Run(Config{Name: "seeds", Seed: 100, Trials: 4}, func(tr Trial) (int64, error) {
		if want := int64(100 + tr.Index); tr.Seed != want {
			t.Errorf("trial %d: seed %d, want %d", tr.Index, tr.Seed, want)
		}
		if got, want := tr.Rng.Int63(), rand.New(rand.NewSource(tr.Seed)).Int63(); got != want {
			t.Errorf("trial %d: rng not seeded from trial seed", tr.Index)
		}
		return tr.Seed, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Values(); !reflect.DeepEqual(got, []int64{100, 101, 102, 103}) {
		t.Errorf("values = %v", got)
	}
	if res.Last() != 103 {
		t.Errorf("last = %d", res.Last())
	}
}

// TestRunParallelismInvariance: observations, their order and the
// aggregates must be identical at every pool width.
func TestRunParallelismInvariance(t *testing.T) {
	run := func(parallelism int) *Result[float64] {
		res, err := Run(Config{Seed: 7, Trials: 16, Parallelism: parallelism},
			func(tr Trial) (float64, error) {
				return tr.Rng.Float64() * float64(tr.Index+1), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	metric := func(v float64) float64 { return v }
	for _, par := range []int{4, 16} {
		res := run(par)
		if !reflect.DeepEqual(res.Values(), base.Values()) {
			t.Errorf("parallelism %d: observations diverged", par)
		}
		if res.Summarize(metric) != base.Summarize(metric) {
			t.Errorf("parallelism %d: summary diverged", par)
		}
	}
	s := base.Summarize(metric)
	if s.N != 16 || s.CI95() <= 0 {
		t.Errorf("summary %+v lost trials or CI", s)
	}
}

// TestRunNormalizesTrials: non-positive trial counts run exactly one
// trial — the uniform rule every experiment inherits.
func TestRunNormalizesTrials(t *testing.T) {
	for _, trials := range []int{-3, 0} {
		res, err := Run(Config{Seed: 1, Trials: trials}, func(tr Trial) (int, error) {
			return tr.Index, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Trials) != 1 || res.Config.Trials != 1 {
			t.Errorf("trials=%d: ran %d, config %d; want 1", trials, len(res.Trials), res.Config.Trials)
		}
	}
}

// TestRunPropagatesErrors: the first failing trial aborts the cell.
func TestRunPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	for _, par := range []int{1, 8} {
		_, err := Run(Config{Seed: 1, Trials: 8, Parallelism: par}, func(tr Trial) (int, error) {
			if tr.Index == 3 {
				return 0, boom
			}
			return tr.Index, nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("parallelism %d: err = %v, want boom", par, err)
		}
	}
}

// TestRunManyFlattensCellMajor: at parallelism 1 the execution order
// must be the legacy nested loop (cells outer, trials inner), and
// each cell's results must land in its own slot.
func TestRunManyFlattensCellMajor(t *testing.T) {
	var order []Trial
	cfgs := []Config{
		{Name: "a", Seed: 10, Trials: 2},
		{Name: "b", Seed: 20, Trials: 3},
	}
	results, err := RunMany(cfgs, func(cell int, tr Trial) (int64, error) {
		order = append(order, tr)
		return tr.Seed, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantSeeds := []int64{10, 11, 20, 21, 22}
	if len(order) != len(wantSeeds) {
		t.Fatalf("ran %d trials, want %d", len(order), len(wantSeeds))
	}
	for i, tr := range order {
		if tr.Seed != wantSeeds[i] {
			t.Errorf("execution %d: seed %d, want %d", i, tr.Seed, wantSeeds[i])
		}
	}
	if got := results[0].Values(); !reflect.DeepEqual(got, []int64{10, 11}) {
		t.Errorf("cell a values = %v", got)
	}
	if got := results[1].Values(); !reflect.DeepEqual(got, []int64{20, 21, 22}) {
		t.Errorf("cell b values = %v", got)
	}
}

// TestRunManyParallelFillsPool: a grid of single-trial cells must
// still run concurrently — the property that makes sweeps parallel.
func TestRunManyParallelFillsPool(t *testing.T) {
	const cells = 8
	cfgs := make([]Config, cells)
	for i := range cfgs {
		cfgs[i] = Config{Seed: int64(i), Trials: 1, Parallelism: cells}
	}
	var mu sync.Mutex
	running, peak := 0, 0
	_, err := RunMany(cfgs, func(cell int, tr Trial) (int, error) {
		mu.Lock()
		running++
		if running > peak {
			peak = running
		}
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		running--
		mu.Unlock()
		return cell, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak < 2 {
		t.Errorf("peak concurrency %d; single-trial cells did not share the pool", peak)
	}
}

// TestRunManyHonorsPerCellParallelism: a cell declaring Parallelism 1
// must never see two of its trials in flight, even when a wider
// sibling sizes the grid's shared pool.
func TestRunManyHonorsPerCellParallelism(t *testing.T) {
	var mu sync.Mutex
	inFlight, peak := 0, 0
	cfgs := []Config{
		{Name: "sequential", Seed: 1, Trials: 6, Parallelism: 1},
		{Name: "wide", Seed: 100, Trials: 6, Parallelism: 8},
	}
	_, err := RunMany(cfgs, func(cell int, tr Trial) (int, error) {
		if cell == 0 {
			mu.Lock()
			inFlight++
			if inFlight > peak {
				peak = inFlight
			}
			mu.Unlock()
			defer func() {
				mu.Lock()
				inFlight--
				mu.Unlock()
			}()
		}
		time.Sleep(5 * time.Millisecond)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak != 1 {
		t.Errorf("sequential cell reached %d concurrent trials, want 1", peak)
	}
}

// TestSharedOracleHandedToEveryTrial: Config.Oracle supplies
// Trial.Oracle, and SharedCache hands all trials the same instance.
func TestSharedOracleHandedToEveryTrial(t *testing.T) {
	d, err := dataset.BinaryWithMinority(100, 10, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	factory, cache := SharedCache(core.NewTruthOracle(d))
	res, err := Run(Config{Seed: 5, Trials: 3, Oracle: factory}, func(tr Trial) (bool, error) {
		if tr.Oracle == nil {
			t.Fatal("trial received no oracle")
		}
		return tr.Oracle == core.Oracle(cache), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.All(func(same bool) bool { return same }) {
		t.Error("trials did not share one cached oracle")
	}
}

// TestFactoryErrorAborts: a failing oracle factory fails the run.
func TestFactoryErrorAborts(t *testing.T) {
	bad := errors.New("no crowd")
	_, err := Run(Config{Trials: 2, Oracle: PerTrial(func(Trial) (core.Oracle, error) { return nil, bad })},
		func(tr Trial) (int, error) { return 0, nil })
	if !errors.Is(err, bad) {
		t.Errorf("err = %v, want factory error", err)
	}
}

// TestRecorder: observations aggregate; nil and zero-value recorders
// are safe.
func TestRecorder(t *testing.T) {
	r := NewRecorder()
	cfg := Config{Name: "cell", Seed: 1, Trials: 3, Timing: r}
	if _, err := Run(cfg, func(tr Trial) (int, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	cfg2 := Config{Name: "other", Seed: 9, Trials: 2, Timing: r}
	if _, err := Run(cfg2, func(tr Trial) (int, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	s := r.Summary()
	if s.Trials != 5 || s.Cells != 2 || s.Slowest == "" {
		t.Errorf("summary = %+v", s)
	}
	if s.String() == "" || (TimingSummary{}).String() == "" {
		t.Error("summaries must render")
	}
	r.Reset()
	if r.Summary().Trials != 0 {
		t.Error("reset did not clear")
	}

	var nilRec *Recorder
	nilRec.observe("x", time.Second) // must not panic
	if nilRec.Summary().Trials != 0 {
		t.Error("nil recorder summary")
	}
	zero := &Recorder{}
	zero.observe("x", time.Second)
	if zero.Summary().Trials != 1 {
		t.Error("zero-value recorder must work")
	}
}

// TestRunManyValidates: an empty grid is an error, not a silent no-op.
func TestRunManyValidates(t *testing.T) {
	if _, err := RunMany(nil, func(int, Trial) (int, error) { return 0, nil }); err == nil {
		t.Error("empty grid: want error")
	}
}

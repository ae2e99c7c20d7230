package sim

// Tests of the trial-runner integration: every experiment must render
// the identical artifact at any trial-parallelism, respect the trial
// count uniformly, and the sweep must demonstrate cross-audit cache
// reuse.

import (
	"reflect"
	"strings"
	"testing"

	"imagecvg/internal/experiment"
)

// TestTrialParallelismEquivalenceTable1: the crowd-backed Table 1 —
// the harness's most stateful experiment (platform, ledger, worker
// pool per trial) — must produce identical rows sequentially and on a
// 4-wide trial pool.
func TestTrialParallelismEquivalenceTable1(t *testing.T) {
	p := DefaultTable1Params()
	seq, err := RunTable1(p, Options{Seed: 11, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunTable1(p, Options{Seed: 11, Trials: 2, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Rows, par.Rows) {
		t.Errorf("table1 rows diverged:\n%+v\nvs\n%+v", seq.Rows, par.Rows)
	}
	if seq.String() != par.String() {
		t.Error("table1 rendering diverged across trial-parallelism")
	}
}

// TestTrialParallelismEquivalenceFigure7e: the multi-group comparison
// (engine parallelism inside, trial parallelism outside) must stay
// byte-identical too.
func TestTrialParallelismEquivalenceFigure7e(t *testing.T) {
	p := DefaultMultiParams()
	seq, err := RunFigure7e(p, Options{Seed: 13, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunFigure7e(p, Options{Seed: 13, Trials: 2, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("figure7e diverged:\n%s\nvs\n%s", seq, par)
	}
}

// TestTrialsRespectedUniformly: non-positive trial counts mean "one
// trial" for every experiment — the engine normalizes once, so a
// zero-trial run renders exactly the one-trial artifact.
func TestTrialsRespectedUniformly(t *testing.T) {
	for _, id := range []string{"table1", "figure7e", "sweep"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s missing from registry", id)
		}
		one, err := e.Run(Options{Seed: 19, Trials: 1})
		if err != nil {
			t.Fatal(err)
		}
		zero, err := e.Run(Options{Seed: 19, Trials: 0})
		if err != nil {
			t.Fatal(err)
		}
		neg, err := e.Run(Options{Seed: 19, Trials: -4})
		if err != nil {
			t.Fatal(err)
		}
		// The sweep reports wall-clock per trial, which no two runs
		// share; compare its deterministic grid column-wise instead.
		if id == "sweep" {
			o, z, n := one.(*SweepResult), zero.(*SweepResult), neg.(*SweepResult)
			if !reflect.DeepEqual(taskCols(o), taskCols(z)) || !reflect.DeepEqual(taskCols(o), taskCols(n)) {
				t.Errorf("%s: trials<=0 diverged from trials=1", id)
			}
			continue
		}
		if one.String() != zero.String() || one.String() != neg.String() {
			t.Errorf("%s: trials<=0 must equal trials=1", id)
		}
	}
}

// taskCols projects a sweep result onto its deterministic columns.
func taskCols(r *SweepResult) []SweepRow {
	rows := make([]SweepRow, len(r.Rows))
	for i, row := range r.Rows {
		row.MillisPerTrial = 0
		rows[i] = row
	}
	return rows
}

// TestRunSweepGrid: the sweep crosses the full N x tau x parallelism
// grid, reports identical task counts along the parallelism axis
// (engine equivalence), and its shared caches absorb the re-audits
// (the ROADMAP's cross-audit reuse).
func TestRunSweepGrid(t *testing.T) {
	p := SweepParams{
		Ns:             []int{2_000, 5_000},
		Taus:           []int{25, 50},
		Parallelisms:   []int{1, 4},
		SetSize:        50,
		MinorityCounts: []int{10, 8, 6},
	}
	res, err := RunSweep(p, Options{Seed: 23, Trials: 2, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(p.Ns) * len(p.Taus) * len(p.Parallelisms); len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	if want := len(p.Ns) * len(p.Taus); len(res.Workloads) != want {
		t.Fatalf("workloads = %d, want %d", len(res.Workloads), want)
	}
	// Task counts must agree across the parallelism axis of each
	// workload: the engines ask the same questions.
	type key struct{ n, tau int }
	tasks := map[key]float64{}
	for _, row := range res.Rows {
		k := key{row.N, row.Tau}
		if prev, ok := tasks[k]; ok {
			if prev != row.Tasks {
				t.Errorf("N=%d tau=%d: tasks %v vs %v across parallelism", row.N, row.Tau, prev, row.Tasks)
			}
		} else {
			tasks[k] = row.Tasks
		}
		if row.Tasks <= 0 {
			t.Errorf("empty cell: %+v", row)
		}
	}
	// The shared cache must absorb a large share: 2 parallelism cells
	// x 2 trials re-ask mostly identical questions.
	for _, w := range res.Workloads {
		if w.HitRate < 0.4 {
			t.Errorf("N=%d tau=%d: hit rate %.2f, want the re-audits amortized", w.N, w.Tau, w.HitRate)
		}
		if w.PaidTasks <= 0 {
			t.Errorf("N=%d tau=%d: no paid HITs recorded", w.N, w.Tau)
		}
	}
	out := res.String()
	if !strings.Contains(out, "cache hit rate") || !strings.Contains(out, "engine parallelism") {
		t.Errorf("rendering incomplete:\n%s", out)
	}
}

// TestRecorderSeesEveryTrial: the Options.Timing recorder observes
// each (cell, trial) pair exactly once.
func TestRecorderSeesEveryTrial(t *testing.T) {
	rec := experiment.NewRecorder()
	if _, err := RunFigure7e(DefaultMultiParams(), Options{Seed: 29, Trials: 2, Timing: rec}); err != nil {
		t.Fatal(err)
	}
	s := rec.Summary()
	if s.Cells != 4 || s.Trials != 8 {
		t.Errorf("timing summary %+v, want 4 cells x 2 trials", s)
	}
}

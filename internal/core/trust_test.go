package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// recordingBatchOracle records every set round's request count and
// requests before forwarding, so tests can see exactly which rounds
// carried which probes.
type recordingBatchOracle struct {
	inner   BatchOracle
	rounds  []int
	batches [][]SetRequest
}

func (r *recordingBatchOracle) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return r.inner.SetQuery(ids, g)
}

func (r *recordingBatchOracle) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return r.inner.ReverseSetQuery(ids, g)
}

func (r *recordingBatchOracle) PointQuery(id dataset.ObjectID) ([]int, error) {
	return r.inner.PointQuery(id)
}

func (r *recordingBatchOracle) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	r.rounds = append(r.rounds, len(reqs))
	r.batches = append(r.batches, append([]SetRequest(nil), reqs...))
	return r.inner.SetQueryBatch(reqs)
}

func (r *recordingBatchOracle) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	return r.inner.PointQueryBatch(ids)
}

// sliceFeed is an in-memory AnswerFeed.
type sliceFeed struct{ entries []WorkerAnswer }

func (f *sliceFeed) AnswersSince(n int) []WorkerAnswer {
	if n < 0 {
		n = 0
	}
	if n >= len(f.entries) {
		return nil
	}
	return append([]WorkerAnswer(nil), f.entries[n:]...)
}

// feedingOracle emulates the crowd platform's sequencing: each
// committed set HIT appends one raw answer per simulated worker to the
// feed, with liars inverting the true answer — so gold-probe HITs and
// consensus HITs both accrue evidence against them.
type feedingOracle struct {
	inner   BatchOracle
	feed    *sliceFeed
	workers int
	liar    map[int]bool
	hit     int
}

func (o *feedingOracle) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	answers, err := o.SetQueryBatch([]SetRequest{{IDs: ids, Group: g}})
	if err != nil {
		return false, err
	}
	return answers[0], nil
}

func (o *feedingOracle) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	answers, err := o.SetQueryBatch([]SetRequest{{IDs: ids, Group: g, Reverse: true}})
	if err != nil {
		return false, err
	}
	return answers[0], nil
}

func (o *feedingOracle) PointQuery(id dataset.ObjectID) ([]int, error) {
	return o.inner.PointQuery(id)
}

func (o *feedingOracle) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	answers, err := o.inner.SetQueryBatch(reqs)
	for _, truth := range answers {
		for w := 0; w < o.workers; w++ {
			v := 0
			if truth != o.liar[w] { // liars invert, honest workers are exact
				v = 1
			}
			o.feed.entries = append(o.feed.entries, WorkerAnswer{HIT: o.hit, Worker: w, Value: v})
		}
		o.hit++
	}
	return answers, err
}

func (o *feedingOracle) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	return o.inner.PointQueryBatch(ids)
}

// recordingScreener records every exclusion push.
type recordingScreener struct{ calls [][]int }

func (s *recordingScreener) SetExcludedWorkers(ids []int) int {
	s.calls = append(s.calls, append([]int(nil), ids...))
	return len(ids)
}

func trustTestWorld(t *testing.T) (*dataset.Dataset, pattern.Group, []GoldProbe) {
	t.Helper()
	d, err := dataset.BinaryWithMinority(60, 20, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	g := dataset.Female(d.Schema())
	probes := GoldProbes(d, []pattern.Group{g, dataset.Male(d.Schema())}, 4, 99)
	if len(probes) != 4 {
		t.Fatalf("GoldProbes returned %d probes, want 4", len(probes))
	}
	return d, g, probes
}

func TestTrustPolicyNormalization(t *testing.T) {
	pol, err := TrustPolicy{}.normalized()
	if err != nil {
		t.Fatalf("zero policy must normalize: %v", err)
	}
	if !reflect.DeepEqual(pol, DefaultTrustPolicy()) {
		t.Errorf("zero policy normalized to %+v, want defaults %+v", pol, DefaultTrustPolicy())
	}
	bad := []TrustPolicy{
		{ProbeEvery: -1},
		{HonestErr: 0.5, AdversaryErr: 0.1}, // inverted hypotheses
		{HonestErr: 0.2, AdversaryErr: 0.2}, // equal hypotheses
		{AdversaryErr: 1.5},
		{ContradictionWeight: -1},
	}
	for _, p := range bad {
		if _, err := p.normalized(); err == nil {
			t.Errorf("policy %+v: want validation error", p)
		}
	}
}

func TestTrustScoreMonotoneAndTotal(t *testing.T) {
	p := DefaultTrustPolicy()
	for fails := 0; fails < 10; fails++ {
		if a, b := p.Score(10, fails, 0, 0), p.Score(10, fails+1, 0, 0); b >= a {
			t.Fatalf("score not decreasing in probe fails: f(%d)=%v f(%d)=%v", fails, a, fails+1, b)
		}
	}
	for c := 0; c < 10; c++ {
		if a, b := p.Score(0, 0, 10, c), p.Score(0, 0, 10, c+1); b >= a {
			t.Fatalf("score not decreasing in contradictions: f(%d)=%v f(%d)=%v", c, a, c+1, b)
		}
	}
	// Clamped, total inputs: never NaN or Inf.
	extremes := []int{-5, 0, 3, 1 << 40}
	for _, probes := range extremes {
		for _, fails := range extremes {
			for _, answers := range extremes {
				for _, contra := range extremes {
					s := p.Score(probes, fails, answers, contra)
					if math.IsNaN(s) || math.IsInf(s, 0) {
						t.Fatalf("Score(%d,%d,%d,%d) = %v", probes, fails, answers, contra, s)
					}
				}
			}
		}
	}
	if p.Distrusts(p.DistrustBelow-1, p.MinObservations-1) {
		t.Error("distrust below MinObservations")
	}
	if !p.Distrusts(p.DistrustBelow-1, p.MinObservations) {
		t.Error("no distrust at MinObservations with failing score")
	}
}

func TestNewTrustOracleValidation(t *testing.T) {
	d, _, probes := trustTestWorld(t)
	if _, err := NewTrustOracle(nil, TrustConfig{}); err == nil {
		t.Error("nil inner: want error")
	}
	if _, err := NewTrustOracle(NewTruthOracle(d), TrustConfig{Policy: TrustPolicy{AdversaryErr: 2}}); err == nil {
		t.Error("invalid policy: want error")
	}
	if _, err := NewTrustOracle(NewTruthOracle(d), TrustConfig{Probes: []GoldProbe{{}}}); err == nil {
		t.Error("empty probe: want error")
	}
	if _, err := NewTrustOracle(NewTruthOracle(d), TrustConfig{Probes: probes}); err != nil {
		t.Errorf("valid config: %v", err)
	}
}

// TestTrustOracleProbeSchedule pins the deterministic interleaving in
// its unit, committed set HITs: a round that carries the committed
// count h to h+k appends floor((h+k)/ProbeEvery) - floor(h/ProbeEvery)
// probes after its own requests — none, one or several, whatever the
// round width — the battery cycles in order, and the caller never sees
// a probe's answer.
func TestTrustOracleProbeSchedule(t *testing.T) {
	d, g, probes := trustTestWorld(t)
	rec := &recordingBatchOracle{inner: NewTruthOracle(d)}
	tr, err := NewTrustOracle(rec, TrustConfig{
		Policy: TrustPolicy{ProbeEvery: 3},
		Probes: probes,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := d.IDs()
	// Nine rounds of two HITs: h runs 0, 2, 4, ..., 18, passing a
	// multiple of 3 in every round but the 1st, 4th and 7th.
	for round := 1; round <= 9; round++ {
		reqs := []SetRequest{
			{IDs: ids[:5], Group: g},
			{IDs: ids[5:10], Group: g},
		}
		answers, err := tr.SetQueryBatch(reqs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(answers) != len(reqs) {
			t.Fatalf("round %d: %d answers for %d requests", round, len(answers), len(reqs))
		}
	}
	// A single SetQuery is a one-HIT round: h 18 -> 19 -> 20 -> 21,
	// so the third carries a probe.
	for round := 10; round <= 12; round++ {
		if _, err := tr.SetQuery(ids[:3], g); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// A round of seven HITs takes h 21 -> 28 past 24 and 27: two
	// probes ride it.
	wide := make([]SetRequest, 7)
	for i := range wide {
		wide[i] = SetRequest{IDs: ids[i : i+1], Group: g}
	}
	if answers, err := tr.SetQueryBatch(wide); err != nil || len(answers) != len(wide) {
		t.Fatalf("wide round: %d answers, %v; want %d answers", len(answers), err, len(wide))
	}
	wantRounds := []int{2, 3, 3, 2, 3, 3, 2, 3, 3, 1, 1, 2, 9}
	if !reflect.DeepEqual(rec.rounds, wantRounds) {
		t.Fatalf("forwarded round sizes %v, want %v", rec.rounds, wantRounds)
	}
	// The probes trail their round's own requests and cycle the
	// battery in order.
	cursor := 0
	callerHITs := []int{2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 7}
	for r, batch := range rec.batches {
		for _, req := range batch[callerHITs[r]:] {
			if want := probes[cursor%len(probes)].Req; !reflect.DeepEqual(req, want) {
				t.Fatalf("round %d probe %d = %+v, want battery entry %d %+v", r+1, cursor, req, cursor%len(probes), want)
			}
			cursor++
		}
	}
	if rep := tr.Report(); rep.ProbesIssued != 9 || cursor != 9 {
		t.Errorf("ProbesIssued = %d (%d forwarded), want 9", rep.ProbesIssued, cursor)
	}
	// Point rounds neither advance the schedule nor carry probes.
	if _, err := tr.PointQueryBatch(ids[:4]); err != nil {
		t.Fatal(err)
	}
	if len(rec.rounds) != len(wantRounds) {
		t.Error("point round must not be forwarded as a set round")
	}
}

// TestTrustOracleScreensLiar runs a liar among honest workers through
// the full loop: feed scoring, distrust verdict, screener push.
func TestTrustOracleScreensLiar(t *testing.T) {
	d, g, probes := trustTestWorld(t)
	feed := &sliceFeed{}
	src := &feedingOracle{
		inner:   NewTruthOracle(d),
		feed:    feed,
		workers: 4,
		liar:    map[int]bool{2: true},
	}
	screen := &recordingScreener{}
	tr, err := NewTrustOracle(src, TrustConfig{
		Policy: TrustPolicy{ProbeEvery: 2},
		Probes: probes,
		Feed:   feed,
		Screen: screen,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := d.IDs()
	for round := 0; round < 10; round++ {
		lo := (round * 4) % 40
		if _, err := tr.SetQueryBatch([]SetRequest{{IDs: ids[lo : lo+4], Group: g}}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	rep := tr.Report()
	if rep.Excluded != 1 {
		t.Fatalf("report excluded %d workers, want 1 (report %+v)", rep.Excluded, rep)
	}
	if len(rep.Workers) != 4 {
		t.Fatalf("report covers %d workers, want 4", len(rep.Workers))
	}
	for i, w := range rep.Workers {
		if w.Worker != i {
			t.Fatalf("report not sorted by worker ID: %+v", rep.Workers)
		}
		if wantExcluded := i == 2; w.Excluded != wantExcluded {
			t.Errorf("worker %d excluded=%v, want %v (score %v)", i, w.Excluded, wantExcluded, w.Score)
		}
		if i == 2 && w.Score >= tr.Policy().DistrustBelow {
			t.Errorf("liar's score %v above distrust boundary", w.Score)
		}
	}
	if len(screen.calls) == 0 {
		t.Fatal("screener never called")
	}
	last := screen.calls[len(screen.calls)-1]
	if !reflect.DeepEqual(last, []int{2}) {
		t.Errorf("screener last push %v, want [2]", last)
	}
}

// TestTrustOracleSwallowsProbeOnlyDenial pins the budget interaction:
// when the governor affords exactly the audit's own requests and
// denies only the appended probes (two here, one per HIT), the round
// is clean for the caller; when the audit's own requests are denied,
// exhaustion surfaces.
func TestTrustOracleSwallowsProbeOnlyDenial(t *testing.T) {
	d, g, probes := trustTestWorld(t)
	gov := NewBudgetedOracle(NewTruthOracle(d), Budget{MaxSet: 2})
	tr, err := NewTrustOracle(gov, TrustConfig{
		Policy: TrustPolicy{ProbeEvery: 1},
		Probes: probes,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := d.IDs()
	reqs := []SetRequest{{IDs: ids[:5], Group: g}, {IDs: ids[5:10], Group: g}}
	answers, err := tr.SetQueryBatch(reqs)
	if err != nil {
		t.Fatalf("probe-only denial must not fail the round: %v", err)
	}
	if len(answers) != 2 {
		t.Fatalf("%d answers, want the full caller prefix of 2", len(answers))
	}
	if denied := gov.Spent().Denied; denied != 2 {
		t.Fatalf("governor denied %d requests, want the 2 trailing probes", denied)
	}
	if _, err := tr.SetQueryBatch(reqs[:1]); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("audit-request denial: err = %v, want ErrBudgetExhausted", err)
	}
}

func TestGoldProbesDeterministicAndTrue(t *testing.T) {
	d, g, _ := trustTestWorld(t)
	groups := []pattern.Group{g, dataset.Male(d.Schema())}
	a := GoldProbes(d, groups, 6, 42)
	b := GoldProbes(d, groups, 6, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("GoldProbes not deterministic for identical inputs")
	}
	for i, pr := range a {
		labels, ok := d.TrueLabels(pr.Req.IDs[0])
		if !ok {
			t.Fatalf("probe %d references unknown object %v", i, pr.Req.IDs[0])
		}
		if pr.Want != pr.Req.Group.Matches(labels) {
			t.Errorf("probe %d gold answer %v disagrees with ground truth", i, pr.Want)
		}
	}
	if got := GoldProbes(d, nil, 3, 1); got != nil {
		t.Errorf("no groups: probes %v, want nil", got)
	}
	if got := GoldProbes(d, groups, 0, 1); got != nil {
		t.Errorf("k=0: probes %v, want nil", got)
	}
}

package imagecvg

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestAuditorParallelismMatchesSequential: the public options surface
// the engine equivalence guarantee — same seed, same verdicts, same
// task counts, at any parallelism.
func TestAuditorParallelismMatchesSequential(t *testing.T) {
	ds, err := GenerateBinary(3_000, 30, 9)
	if err != nil {
		t.Fatal(err)
	}
	groups := GroupsForAttribute(ds.Schema(), 0)
	seq, err := NewAuditor(NewTruthOracle(ds), 50, 50).WithSeed(4).AuditGroups(ds.IDs(), groups)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewAuditor(NewTruthOracle(ds), 50, 50).WithSeed(4).WithParallelism(8).AuditGroups(ds.IDs(), groups)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("WithParallelism(8) diverged from width 1")
	}
}

// TestAuditorCacheDeduplicatesRepeatAudits: re-auditing the same group
// through a cached auditor costs zero new HITs.
func TestAuditorCacheDeduplicatesRepeatAudits(t *testing.T) {
	ds, err := GenerateBinary(1_000, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	inner := NewTruthOracle(ds)
	auditor := NewAuditor(inner, 50, 50).WithCache()
	g := FemaleGroup(ds.Schema())

	first, err := auditor.AuditGroup(ds.IDs(), g)
	if err != nil {
		t.Fatal(err)
	}
	paid := inner.Tasks().Total()
	second, err := auditor.AuditGroup(ds.IDs(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached re-audit changed the verdict")
	}
	if got := inner.Tasks().Total(); got != paid {
		t.Errorf("re-audit paid %d new HITs, want 0", got-paid)
	}
	stats, ok := auditor.CacheStats()
	if !ok {
		t.Fatal("CacheStats should be available after WithCache")
	}
	if stats.Hits.Total() == 0 || stats.Misses.Total() != paid {
		t.Errorf("stats = %+v, want %d misses and nonzero hits", stats, paid)
	}

	// Without the cache there are no stats.
	if _, ok := NewAuditor(inner, 50, 50).CacheStats(); ok {
		t.Error("CacheStats without WithCache should report ok=false")
	}
}

// TestAuditorCacheReusesAcrossAudits: different audits through one
// cached auditor share super-group queries. AuditAttribute(1) after
// AuditAttribute(0), and AuditIntersectional after both, are served
// partly from the cache, while every result equals a fresh uncached
// auditor's and the inner oracle is paid exactly once per miss.
func TestAuditorCacheReusesAcrossAudits(t *testing.T) {
	schema, err := NewSchema(
		Attribute{Name: "a", Values: []string{"a0", "a1"}},
		Attribute{Name: "b", Values: []string{"b0", "b1", "b2", "b3"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := DatasetFromCounts(schema, []int{700, 300, 40, 12, 500, 9, 30, 60}, 17)
	if err != nil {
		t.Fatal(err)
	}
	const tau, n = 25, 25
	audits := []struct {
		name string
		run  func(a *Auditor) (any, error)
	}{
		{"AuditAttribute(0)", func(a *Auditor) (any, error) { return a.AuditAttribute(ds.IDs(), schema, 0) }},
		{"AuditAttribute(1)", func(a *Auditor) (any, error) { return a.AuditAttribute(ds.IDs(), schema, 1) }},
		{"AuditIntersectional", func(a *Auditor) (any, error) { return a.AuditIntersectional(ds.IDs(), schema) }},
	}
	inner := NewTruthOracle(ds)
	cached := NewAuditor(inner, tau, n).WithCache()
	var prevHits int
	for i, audit := range audits {
		got, err := audit.run(cached)
		if err != nil {
			t.Fatal(err)
		}
		want, err := audit.run(NewAuditor(NewTruthOracle(ds), tau, n))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: cached result differs from a fresh uncached auditor's", audit.name)
		}
		stats, ok := cached.CacheStats()
		if !ok {
			t.Fatal("CacheStats should be available after WithCache")
		}
		if paid := inner.Tasks().Total(); paid != stats.Misses.Total() {
			t.Errorf("%s: inner paid %d HITs, cache missed %d", audit.name, paid, stats.Misses.Total())
		}
		hits := stats.Hits.Total() - prevHits
		if i > 0 && hits == 0 {
			t.Errorf("%s: no cache hits from the earlier audits", audit.name)
		}
		t.Logf("%s: %d hits", audit.name, hits)
		prevHits = stats.Hits.Total()
	}
}

// flakyAPIOracle fails every third query with the transient error.
type flakyAPIOracle struct {
	inner Oracle

	mu    sync.Mutex
	calls int
}

func (f *flakyAPIOracle) tick() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls%3 == 0 {
		return ErrTransient
	}
	return nil
}
func (f *flakyAPIOracle) SetQuery(ids []ObjectID, g Group) (bool, error) {
	if err := f.tick(); err != nil {
		return false, err
	}
	return f.inner.SetQuery(ids, g)
}
func (f *flakyAPIOracle) ReverseSetQuery(ids []ObjectID, g Group) (bool, error) {
	if err := f.tick(); err != nil {
		return false, err
	}
	return f.inner.ReverseSetQuery(ids, g)
}
func (f *flakyAPIOracle) PointQuery(id ObjectID) ([]int, error) {
	if err := f.tick(); err != nil {
		return nil, err
	}
	return f.inner.PointQuery(id)
}

func TestAuditorWithRetryAbsorbsTransientFailures(t *testing.T) {
	ds, err := GenerateBinary(500, 10, 11)
	if err != nil {
		t.Fatal(err)
	}
	groups := GroupsForAttribute(ds.Schema(), 0)
	flaky := &flakyAPIOracle{inner: NewTruthOracle(ds)}

	if _, err := NewAuditor(flaky, 30, 20).WithSeed(5).AuditGroups(ds.IDs(), groups); !errors.Is(err, ErrTransient) {
		t.Fatalf("without retry: err = %v, want transient", err)
	}
	res, err := NewAuditor(flaky, 30, 20).WithSeed(5).WithParallelism(4).
		WithRetry(RetryPolicy{MaxAttempts: 3}).AuditGroups(ds.IDs(), groups)
	if err != nil {
		t.Fatalf("with retry: %v", err)
	}
	if res.Results[1].Covered { // gender value 1 = female
		t.Error("10 females < tau 30 should be uncovered")
	}

	// WithRetry is an order-free layer call: before or after the other
	// layers it lands on top of the stack, over the cache and the
	// governor, and the retried audit equals the clean one.
	var outs []string
	for _, retryFirst := range []bool{true, false} {
		a := NewAuditor(&flakyRounds{BatchOracle: NewTruthOracle(ds)}, 30, 20).WithSeed(5)
		if retryFirst {
			a.WithRetry(RetryPolicy{MaxAttempts: 3})
		}
		a.WithBudget(Budget{MaxHITs: 100000}).WithCache()
		if !retryFirst {
			a.WithRetry(RetryPolicy{MaxAttempts: 3})
		}
		got, err := a.AuditGroups(ds.IDs(), groups)
		if err != nil {
			t.Fatalf("retry first %v: %v", retryFirst, err)
		}
		if fmt.Sprint(got.Results) != fmt.Sprint(res.Results) || got.Tasks != res.Tasks {
			t.Errorf("retry first %v: %+v tasks=%d, want %+v tasks=%d", retryFirst, got.Results, got.Tasks, res.Results, res.Tasks)
		}
		spent, _ := a.BudgetSpent()
		outs = append(outs, fmt.Sprintf("%+v", spent))
	}
	if outs[0] != outs[1] {
		t.Errorf("spend depends on the WithRetry call order: %s vs %s", outs[0], outs[1])
	}
}

// flakyRounds fails every third round wholesale with the transient
// error; the lockstep scheduler posts rounds one at a time.
type flakyRounds struct {
	BatchOracle
	calls int
}

func (f *flakyRounds) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	if f.calls++; f.calls%3 == 0 {
		return nil, ErrTransient
	}
	return f.BatchOracle.SetQueryBatch(reqs)
}

func (f *flakyRounds) PointQueryBatch(ids []ObjectID) ([][]int, error) {
	if f.calls++; f.calls%3 == 0 {
		return nil, ErrTransient
	}
	return f.BatchOracle.PointQueryBatch(ids)
}

// TestSimulatedCrowdIsBatchOracle: the public crowd facade posts whole
// rounds natively.
func TestSimulatedCrowdIsBatchOracle(t *testing.T) {
	ds, err := GenerateBinary(200, 40, 12)
	if err != nil {
		t.Fatal(err)
	}
	crowd, err := NewSimulatedCrowd(ds, 13, CrowdOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var bo BatchOracle = crowd // compile-time: facade is a BatchOracle
	g := FemaleGroup(ds.Schema())
	answers, err := bo.SetQueryBatch([]SetRequest{
		{IDs: ds.IDs()[:10], Group: g},
		{IDs: ds.IDs()[10:20], Group: g, Reverse: true},
	})
	if err != nil || len(answers) != 2 {
		t.Fatalf("batch: %v %v", answers, err)
	}
	labels, err := bo.PointQueryBatch(ds.IDs()[:5])
	if err != nil || len(labels) != 5 {
		t.Fatalf("point batch: %v %v", labels, err)
	}
	if got := crowd.Cost().TotalHITs; got != 7 {
		t.Errorf("ledger HITs = %d, want 7", got)
	}
}

// TestAuditorLockstepCrowdInvariance: the public WithLockstep surface
// — a simulated-crowd audit (order-dependent oracle) must produce
// identical verdicts, counts and spend at every parallelism level.
func TestAuditorLockstepCrowdInvariance(t *testing.T) {
	ds, err := GenerateBinary(300, 12, 31)
	if err != nil {
		t.Fatal(err)
	}
	groups := GroupsForAttribute(ds.Schema(), 0)
	var base *MultipleResult
	var baseCost string
	for i, par := range []int{1, 4, 16} {
		crowd, err := NewSimulatedCrowd(ds, 32, CrowdOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := NewAuditor(crowd, 20, 15).WithSeed(5).WithParallelism(par).
			AuditGroups(ds.IDs(), groups)
		if err != nil {
			t.Fatal(err)
		}
		cost := crowd.Cost().String()
		if i == 0 {
			base, baseCost = res, cost
			continue
		}
		if !reflect.DeepEqual(res, base) {
			t.Errorf("parallelism %d diverged from parallelism 1", par)
		}
		if cost != baseCost {
			t.Errorf("parallelism %d spend %s, want %s", par, cost, baseCost)
		}
	}
}

// TestAuditorLockstepMatchesSequentialOnTruth: with an
// order-independent oracle, the audit at width 8 reproduces the
// width-1 audit exactly through the public API too.
func TestAuditorLockstepMatchesSequentialOnTruth(t *testing.T) {
	ds, err := GenerateBinary(2_000, 25, 33)
	if err != nil {
		t.Fatal(err)
	}
	groups := GroupsForAttribute(ds.Schema(), 0)
	seq, err := NewAuditor(NewTruthOracle(ds), 50, 50).WithSeed(4).AuditGroups(ds.IDs(), groups)
	if err != nil {
		t.Fatal(err)
	}
	lock, err := NewAuditor(NewTruthOracle(ds), 50, 50).WithSeed(4).WithParallelism(8).
		AuditGroups(ds.IDs(), groups)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, lock) {
		t.Error("width 8 diverged from width 1 on an order-independent oracle")
	}
}

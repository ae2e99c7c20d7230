package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

func TestCacheHitMissAccounting(t *testing.T) {
	d := binaryDataset(t, []int{0, 1, 1, 0})
	inner := NewTruthOracle(d)
	c := NewCachingOracle(inner)
	g := female(d)
	ids := d.IDs()

	for i := 0; i < 3; i++ {
		ans, err := c.SetQuery(ids, g)
		if err != nil || !ans {
			t.Fatalf("set query %d: %v %v", i, ans, err)
		}
	}
	if _, err := c.PointQuery(ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PointQuery(ids[1]); err != nil {
		t.Fatal(err)
	}
	stats := c.Stats()
	if stats.Misses.Set != 1 || stats.Hits.Set != 2 {
		t.Errorf("set: %d misses / %d hits, want 1/2", stats.Misses.Set, stats.Hits.Set)
	}
	if stats.Misses.Point != 1 || stats.Hits.Point != 1 {
		t.Errorf("point: %d misses / %d hits, want 1/1", stats.Misses.Point, stats.Hits.Point)
	}
	if inner.Tasks().Total() != 2 {
		t.Errorf("inner paid %d tasks, want 2", inner.Tasks().Total())
	}
	if got := stats.HitRate(); got != 0.6 {
		t.Errorf("hit rate = %f, want 0.6", got)
	}
	if c.Len() != 2 {
		t.Errorf("cache len = %d, want 2", c.Len())
	}
}

func TestCacheCanonicalizesIDOrder(t *testing.T) {
	d := binaryDataset(t, []int{0, 1, 1, 0, 1})
	inner := NewTruthOracle(d)
	c := NewCachingOracle(inner)
	g := female(d)

	fwd := []dataset.ObjectID{0, 1, 2, 3, 4}
	rev := []dataset.ObjectID{4, 3, 2, 1, 0}
	shuffled := []dataset.ObjectID{2, 0, 4, 1, 3}
	a1, err := c.SetQuery(fwd, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, ids := range [][]dataset.ObjectID{rev, shuffled} {
		a2, err := c.SetQuery(ids, g)
		if err != nil || a2 != a1 {
			t.Fatalf("reordered ids: %v %v", a2, err)
		}
	}
	if inner.Tasks().Set != 1 {
		t.Errorf("reordered id-sets paid %d set HITs, want 1", inner.Tasks().Set)
	}
	// A different id multiset is a different HIT.
	if _, err := c.SetQuery(fwd[:4], g); err != nil {
		t.Fatal(err)
	}
	if inner.Tasks().Set != 2 {
		t.Errorf("distinct id-set should miss: inner set HITs = %d, want 2", inner.Tasks().Set)
	}
}

func TestCacheKeysDistinguishKindAndGroup(t *testing.T) {
	d := binaryDataset(t, []int{0, 1, 1, 0})
	inner := NewTruthOracle(d)
	c := NewCachingOracle(inner)
	ids := d.IDs()
	fem := female(d)
	male := dataset.Male(d.Schema())

	if _, err := c.SetQuery(ids, fem); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReverseSetQuery(ids, fem); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SetQuery(ids, male); err != nil {
		t.Fatal(err)
	}
	if got := inner.Tasks(); got.Set != 2 || got.ReverseSet != 1 {
		t.Errorf("inner tasks = %v, want 2 set + 1 reverse", got)
	}
	// A super-group's member order must not matter.
	s1 := pattern.SuperGroup(fem, male)
	s2 := pattern.SuperGroup(male, fem)
	if _, err := c.SetQuery(ids, s1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SetQuery(ids, s2); err != nil {
		t.Fatal(err)
	}
	if got := inner.Tasks().Set; got != 3 {
		t.Errorf("super-group member order should share a key: set HITs = %d, want 3", got)
	}
}

func TestCacheDoesNotCacheTransientErrors(t *testing.T) {
	d := binaryDataset(t, []int{0, 1, 1, 0})
	inner := NewTruthOracle(d)
	flaky := &FlakyOracle{Inner: inner, FailEvery: 1} // first call fails
	c := NewCachingOracle(NewBatchAdapter(flaky, 1))
	g := female(d)
	ids := d.IDs()

	if _, err := c.SetQuery(ids, g); !errors.Is(err, ErrTransient) {
		t.Fatalf("first call should fail transiently, got %v", err)
	}
	flaky.FailEvery = 0 // crowd recovers
	ans, err := c.SetQuery(ids, g)
	if err != nil || !ans {
		t.Fatalf("after recovery: %v %v (the error must not be cached)", ans, err)
	}
	if inner.Tasks().Set != 1 {
		t.Errorf("inner set HITs = %d, want 1 (only the successful retry)", inner.Tasks().Set)
	}
	stats := c.Stats()
	if stats.Misses.Set != 2 || stats.Hits.Set != 0 {
		t.Errorf("both attempts must miss: %+v", stats)
	}

	// Point queries behave the same way.
	flaky.FailEvery = 1
	if _, err := c.PointQuery(ids[0]); !errors.Is(err, ErrTransient) {
		t.Fatalf("point query should fail transiently, got %v", err)
	}
	flaky.FailEvery = 0
	if labels, err := c.PointQuery(ids[0]); err != nil || len(labels) != 1 {
		t.Fatalf("after recovery: %v %v", labels, err)
	}
}

func TestCacheBatchCollapsesDuplicates(t *testing.T) {
	d := binaryDataset(t, []int{0, 1, 1, 0})
	inner := NewTruthOracle(d)
	c := NewCachingOracle(inner)
	g := female(d)
	ids := d.IDs()

	reqs := []SetRequest{
		{IDs: ids, Group: g},
		{IDs: []dataset.ObjectID{3, 2, 1, 0}, Group: g}, // same canonical key
		{IDs: ids[:2], Group: g},
		{IDs: ids, Group: g, Reverse: true},
		{IDs: ids, Group: g}, // duplicate again
	}
	answers, err := c.SetQueryBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if answers[0] != answers[1] || answers[0] != answers[4] {
		t.Error("duplicate requests must share one answer")
	}
	if got := inner.Tasks(); got.Set != 2 || got.ReverseSet != 1 {
		t.Errorf("inner tasks = %v, want 2 set + 1 reverse (duplicates collapsed)", got)
	}
	stats := c.Stats()
	if stats.Hits.Set != 2 || stats.Misses.Set != 2 || stats.Misses.ReverseSet != 1 {
		t.Errorf("stats = %+v", stats)
	}

	labels, err := c.PointQueryBatch([]dataset.ObjectID{1, 1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 4 || labels[0][0] != labels[1][0] || labels[0][0] != labels[3][0] {
		t.Errorf("point batch labels = %v", labels)
	}
	if got := inner.Tasks().Point; got != 2 {
		t.Errorf("inner point HITs = %d, want 2", got)
	}
}

// blockingOracle parks every inner call until released, so concurrent
// callers queue behind the round holding the cache.
type blockingOracle struct {
	inner   Oracle
	entered chan struct{}
	release chan struct{}
}

func (b *blockingOracle) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.inner.SetQuery(ids, g)
}
func (b *blockingOracle) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return b.inner.ReverseSetQuery(ids, g)
}
func (b *blockingOracle) PointQuery(id dataset.ObjectID) ([]int, error) {
	return b.inner.PointQuery(id)
}

func TestCacheCollapsesConcurrentIdenticalQueries(t *testing.T) {
	d := binaryDataset(t, []int{0, 1, 1, 0})
	inner := NewTruthOracle(d)
	blocking := &blockingOracle{
		inner:   inner,
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	c := NewCachingOracle(NewBatchAdapter(blocking, 1))
	g := female(d)
	ids := d.IDs()

	const callers = 8
	var wg sync.WaitGroup
	answers := make([]bool, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], errs[i] = c.SetQuery(ids, g)
		}(i)
	}
	<-blocking.entered // one caller reached the oracle...
	close(blocking.release)
	wg.Wait()
	for i := range errs {
		if errs[i] != nil || !answers[i] {
			t.Fatalf("caller %d: %v %v", i, answers[i], errs[i])
		}
	}
	if inner.Tasks().Set != 1 {
		t.Errorf("inner set HITs = %d, want 1 (one paid HIT per distinct key)", inner.Tasks().Set)
	}
}

func TestCacheConcurrentHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	d, err := dataset.BinaryWithMinority(200, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	inner := NewTruthOracle(d)
	c := NewCachingOracle(inner)
	g := female(d)
	ids := d.IDs()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				lo := rng.Intn(len(ids) - 1)
				hi := lo + 1 + rng.Intn(len(ids)-lo-1)
				if _, err := c.SetQuery(ids[lo:hi], g); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.PointQuery(ids[rng.Intn(len(ids))]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stats := c.Stats()
	if got := stats.Hits.Total() + stats.Misses.Total(); got != 8*200*2 {
		t.Errorf("accounted %d queries, want %d", got, 8*200*2)
	}
	if inner.Tasks().Total() != stats.Misses.Total() {
		t.Errorf("inner paid %d, misses say %d", inner.Tasks().Total(), stats.Misses.Total())
	}
}

func TestCachePointQueryReturnsCopies(t *testing.T) {
	d := binaryDataset(t, []int{0, 1})
	c := NewCachingOracle(NewTruthOracle(d))
	labels, err := c.PointQuery(1)
	if err != nil {
		t.Fatal(err)
	}
	labels[0] = 99
	again, err := c.PointQuery(1)
	if err != nil {
		t.Fatal(err)
	}
	if again[0] == 99 {
		t.Error("cache handed out its internal label slice")
	}
}

// roundGaugeOracle is a native batch oracle that fails each point
// query with a per-id error and records the high-water mark of rounds
// inside it at once. Set queries are unused.
type roundGaugeOracle struct {
	oneQueryRounds
	errs         map[dataset.ObjectID]error
	inside, peak atomic.Int64
}

func (o *roundGaugeOracle) SetQueryBatch([]SetRequest) ([]bool, error) {
	return nil, errors.New("unused")
}
func (o *roundGaugeOracle) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	n := o.inside.Add(1)
	defer o.inside.Add(-1)
	for peak := o.peak.Load(); n > peak && !o.peak.CompareAndSwap(peak, n); peak = o.peak.Load() {
	}
	time.Sleep(time.Millisecond) // hold the round open for any overlap
	for i, id := range ids {
		if err := o.errs[id]; err != nil {
			return make([][]int, i), err
		}
	}
	return make([][]int, len(ids)), nil
}

// TestCacheWaitErrorDeterministic: concurrent callers take turns per
// round, so at most one cache round is ever inside the inner oracle,
// a failing round reports the error of its request-order-first
// failing query however the other callers interleave, and only the
// answered keys are cached. The error a round reports must never
// depend on map or scheduling order: the retry classifier reads it.
func TestCacheWaitErrorDeterministic(t *testing.T) {
	err1 := errors.New("cache test: id one failed")
	err2 := errors.New("cache test: id two failed")
	rounds := [][]dataset.ObjectID{{1}, {2}, {1, 2}, {3}, {4}}
	want := []error{err1, err2, err1, nil, nil}
	for round := 0; round < 10; round++ {
		inner := &roundGaugeOracle{errs: map[dataset.ObjectID]error{1: err1, 2: err2}}
		inner.oneQueryRounds = oneQueryRounds{inner}
		c := NewCachingOracle(inner)

		start := make(chan struct{})
		got := make([]error, len(rounds))
		var wg sync.WaitGroup
		for i, ids := range rounds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, got[i] = c.PointQueryBatch(ids)
			}()
		}
		close(start)
		wg.Wait()

		if peak := inner.peak.Load(); peak != 1 {
			t.Fatalf("round %d: %d cache rounds inside the inner oracle at once, want 1", round, peak)
		}
		for i := range rounds {
			if !errors.Is(got[i], want[i]) {
				t.Fatalf("round %d: %v got %v, want the request-order-first error %v", round, rounds[i], got[i], want[i])
			}
		}
		if st := c.Stats(); st.Misses.Point != 6 || st.Hits.Point != 0 || c.Len() != 2 {
			t.Fatalf("round %d: stats %+v, %d cached, want 6 misses and only ids 3 and 4 cached", round, st, c.Len())
		}
	}
}

// countingLeaf is a native batch leaf that answers every set question
// yes and every point question with one zero label, and counts the
// queries posted to it. It reuses its set-answer buffer, so a
// benchmark over it measures the layers above.
type countingLeaf struct {
	oneQueryRounds
	posted int
	sets   []bool
}

func newCountingLeaf() *countingLeaf {
	l := &countingLeaf{}
	l.oneQueryRounds = oneQueryRounds{l}
	return l
}

func (l *countingLeaf) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	l.posted += len(reqs)
	l.sets = l.sets[:0]
	for range reqs {
		l.sets = append(l.sets, true)
	}
	return l.sets, nil
}

func (l *countingLeaf) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	l.posted += len(ids)
	labels := make([][]int, len(ids))
	for i := range labels {
		labels[i] = []int{0}
	}
	return labels, nil
}

// TestCacheKeySlotArity: groups whose member patterns differ only in
// slot count or slot sign are distinct crowd questions, though
// Pattern.Key renders them alike ({12} and {1,2} are both "12",
// {-121,-121} and {-121,121} both "-121-121"). Each pays its own HIT.
func TestCacheKeySlotArity(t *testing.T) {
	ids := []dataset.ObjectID{1, 2, 3}
	for _, pair := range [][2]pattern.Pattern{
		{{12}, {1, 2}},
		{{-121, -121}, {-121, 121}},
	} {
		leaf := newCountingLeaf()
		c := NewCachingOracle(leaf)
		for _, p := range pair {
			if _, err := c.SetQuery(ids, pattern.Group{Members: []pattern.Pattern{p}}); err != nil {
				t.Fatal(err)
			}
		}
		if st := c.Stats(); st.Misses.Set != 2 || st.Hits.Set != 0 || leaf.posted != 2 {
			t.Errorf("members %v and %v: %d misses, %d hits, %d posted; want 2 distinct paid questions",
				[]int(pair[0]), []int(pair[1]), st.Misses.Set, st.Hits.Set, leaf.posted)
		}
	}
}

// TestCacheHashCollisionKeepsAnswersApart stores distinct queries
// under one forced hash: each must find its own answer, equivalent
// rewrites (reordered ids, reordered members) must find the original,
// and dropping the newest slot must leave the older ones reachable.
func TestCacheHashCollisionKeepsAnswersApart(t *testing.T) {
	const h = 42
	ids := []dataset.ObjectID{1, 2}
	two := pattern.Group{Members: []pattern.Pattern{{1}, {2}}}
	distinct := []SetRequest{
		{IDs: ids, Group: two},
		{IDs: ids, Group: pattern.Group{Members: []pattern.Pattern{{1, 2}}}},    // one 2-slot member
		{IDs: ids, Group: pattern.Group{Members: []pattern.Pattern{{12}}}},      // Key "12" as above
		{IDs: ids, Group: pattern.Group{Members: []pattern.Pattern{{1}, {-2}}}}, // a negative slot
		{IDs: ids, Group: two, Reverse: true},
		{IDs: ids[:1], Group: two},
		{IDs: []dataset.ObjectID{1, 1, 2}, Group: two}, // a repeated id
	}
	tab := newQueryTable[SetRequest, int](&setKind{})
	for i, q := range distinct {
		s, head := tab.find(h, q)
		if s >= 0 {
			t.Fatalf("query %d matched slot %d (answer %d) before it was stored", i, s, tab.answers[s])
		}
		tab.answers[tab.add(h, head, q)] = i
	}
	answer := func(q SetRequest) int {
		if s, _ := tab.find(h, q); s >= 0 {
			return tab.answers[s]
		}
		return -1
	}
	for i, q := range distinct {
		if got := answer(q); got != i {
			t.Errorf("query %d got the answer of query %d", i, got)
		}
	}
	equivalent := []SetRequest{
		{IDs: []dataset.ObjectID{2, 1}, Group: two},
		{IDs: ids, Group: pattern.Group{Members: []pattern.Pattern{{2}, {1}}}},
		{IDs: []dataset.ObjectID{2, 1}, Group: pattern.Group{Name: "renamed", Members: []pattern.Pattern{{2}, {1}}}},
	}
	for _, q := range equivalent {
		if got := answer(q); got != 0 {
			t.Errorf("%v got the answer of query %d, want 0", q, got)
		}
		if tab.kind.hash(q) != tab.kind.hash(distinct[0]) {
			t.Errorf("%v hashes apart from its equivalent", q)
		}
	}
	last := len(distinct) - 1
	tab.pop(h)
	if got := answer(distinct[last]); got != -1 {
		t.Errorf("dropped query still answers %d", got)
	}
	for i, q := range distinct[:last] {
		if got := answer(q); got != i {
			t.Errorf("after the drop, query %d got the answer of query %d", i, got)
		}
	}
}

// BenchmarkCacheMissRound measures the cache's miss path the way the
// intersectional truth audit drives it: rounds of 90 fresh 10-id set
// queries over a free leaf, into a cache that grows to about the
// 150k entries of one such audit before it is replaced.
func BenchmarkCacheMissRound(b *testing.B) {
	const round, size, roundsPerCache = 90, 10, 1700
	g := pattern.Group{Members: []pattern.Pattern{{0, pattern.Wildcard, 1}}}
	reqs := make([]SetRequest, round)
	for i := range reqs {
		reqs[i] = SetRequest{IDs: make([]dataset.ObjectID, size), Group: g}
	}
	var c *CachingOracle
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%roundsPerCache == 0 {
			b.StopTimer()
			c = NewCachingOracle(newCountingLeaf())
			b.StartTimer()
		}
		for q := range reqs {
			for j := range reqs[q].IDs {
				reqs[q].IDs[j] = dataset.ObjectID(next)
				next++
			}
		}
		if _, err := c.SetQueryBatch(reqs); err != nil {
			b.Fatal(err)
		}
	}
}

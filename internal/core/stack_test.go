package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// retried puts leaf under a Stack with the retry policy alone.
func retried(leaf Oracle, policy RetryPolicy, parallelism int) Oracle {
	l, err := Stack{Retry: policy, Parallelism: parallelism}.Build(leaf)
	if err != nil {
		panic(err)
	}
	return l.Top
}

// TestStackBuildOrder: Build assembles retry → cache → trust → journal
// → governor → leaf, hands the governor to the journal, lifts a plain
// leaf once at the bottom, wraps a bare leaf under retry alone as is,
// and returns a layer-free stack's leaf as is.
func TestStackBuildOrder(t *testing.T) {
	d := binaryDataset(t, []int{0, 1, 1, 0, 1, 0, 0, 1})
	truth := NewTruthOracle(d)
	leaf := plainOracle{truth}

	for _, s := range []Stack{{}, {Retry: RetryPolicy{MaxAttempts: 1}}} {
		l, err := s.Build(leaf)
		if err != nil || l.Top != Oracle(leaf) || l.Cache != nil || l.Budget != nil || l.retry != nil {
			t.Fatalf("stack %+v: %+v, %v; want the leaf as given", s, l, err)
		}
	}
	retry := RetryPolicy{MaxAttempts: 2}
	l, err := Stack{Retry: retry, Parallelism: 4}.Build(leaf)
	if err != nil || l.Top != Oracle(l.retry) || l.retry.inner != Oracle(leaf) || l.retry.width != 4 {
		t.Fatalf("retry alone: %+v, %v; want retry directly over the bare leaf", l, err)
	}

	mem := &memJournal{}
	l, err = Stack{
		Cache:       true,
		Trust:       &TrustConfig{},
		Journal:     mem,
		Budget:      &Budget{MaxHITs: 3},
		Retry:       retry,
		Parallelism: 4,
	}.Build(leaf)
	if err != nil {
		t.Fatal(err)
	}
	if l.Top != Oracle(l.retry) || l.retry.inner != Oracle(l.Cache) || l.Cache.inner != BatchOracle(l.Trust) ||
		l.Trust.inner != BatchOracle(l.Journal) || l.Journal.inner != BatchOracle(l.Budget) ||
		l.Journal.gov != l.Budget {
		t.Fatalf("layers out of order: %+v", l)
	}
	lifted, ok := l.Budget.inner.(*batchAdapter)
	if !ok || lifted.Oracle != Oracle(leaf) || lifted.parallelism != 4 {
		t.Fatalf("leaf not lifted once at width 4: %#v", l.Budget.inner)
	}

	// A native leaf is used as is, and every single query is a
	// one-element round through every layer.
	l, err = Stack{Cache: true, Journal: mem, Budget: &Budget{MaxHITs: 3}}.Build(truth)
	if err != nil {
		t.Fatal(err)
	}
	if l.Budget.inner != BatchOracle(truth) {
		t.Fatalf("native leaf was wrapped: %#v", l.Budget.inner)
	}
	g := female(d)
	for i := 0; i < 2; i++ { // the repeat is a cache hit
		if ans, err := l.Top.SetQuery(d.IDs()[:2], g); err != nil || !ans {
			t.Fatalf("SetQuery = %v, %v", ans, err)
		}
	}
	if _, err := l.Top.PointQuery(d.IDs()[0]); err != nil {
		t.Fatal(err)
	}
	if got := l.Budget.Spent().HITs(); got != 2 {
		t.Errorf("governor charged %d HITs, want 2 (cache hits are free)", got)
	}
	if len(mem.recs) != 2 || len(mem.recs[0].Sets) != 1 || len(mem.recs[1].Points) != 1 {
		t.Errorf("journal recorded %+v, want two one-element rounds", mem.recs)
	}
	if _, err := l.Top.ReverseSetQuery(d.IDs()[:1], g); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Top.PointQuery(d.IDs()[1]); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("fourth HIT past MaxHITs 3: err = %v, want ErrBudgetExhausted", err)
	}

	if _, err := (Stack{Trust: &TrustConfig{Policy: TrustPolicy{AdversaryErr: 2}}}).Build(truth); err == nil {
		t.Error("invalid trust policy built")
	}
	if _, err := (Stack{Cache: true}).Build(nil); err == nil {
		t.Error("nil leaf under a cache built")
	}
}

// cancelAfter is a native batch leaf that cancels its context once it
// has answered n HITs, counting every HIT that reaches it and the HIT
// count at the end of every round.
type cancelAfter struct {
	inner  *TruthOracle
	n      int
	cancel context.CancelFunc

	mu     sync.Mutex
	hits   int
	rounds []int // cumulative HITs at each round's end
}

func (c *cancelAfter) tick(k int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hits < c.n && c.hits+k >= c.n {
		c.cancel()
	}
	c.hits += k
	c.rounds = append(c.rounds, c.hits)
}

func (c *cancelAfter) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	c.tick(1)
	return c.inner.SetQuery(ids, g)
}

func (c *cancelAfter) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	c.tick(1)
	return c.inner.ReverseSetQuery(ids, g)
}

func (c *cancelAfter) PointQuery(id dataset.ObjectID) ([]int, error) {
	c.tick(1)
	return c.inner.PointQuery(id)
}

func (c *cancelAfter) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	c.tick(len(reqs))
	return c.inner.SetQueryBatch(reqs)
}

func (c *cancelAfter) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	c.tick(len(ids))
	return c.inner.PointQueryBatch(ids)
}

// TestClassifierResidualHonorsCancellation: the classifier's residual
// Group-Coverage hunts run as one-task lockstep audits, so a context
// cancelled mid-audit stops the next round instead of auditing on.
// Rounds are atomic, so the round holding the n-th HIT — the one that
// cancels — completes, and no HIT reaches the leaf after it.
func TestClassifierResidualHonorsCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d, err := dataset.BinaryWithMinority(3000, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := female(d)
	for _, predicted := range [][]dataset.ObjectID{nil, d.PredictedSet(g, 3, 40)} {
		ctx, cancel := context.WithCancel(context.Background())
		leaf := &cancelAfter{inner: NewTruthOracle(d), n: 5, cancel: cancel}
		if len(predicted) > 0 {
			// Cancel inside the residual hunt, after the sample and the
			// cleanup rounds.
			leaf.n = 60
		}
		_, err := ClassifierCoverage(leaf, d.IDs(), predicted, 10, 50, g, ClassifierOptions{
			Rng: rand.New(rand.NewSource(1)),
			Ctx: ctx,
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%d predictions: err = %v, want context.Canceled", len(predicted), err)
		}
		// The last round the leaf saw is the one holding HIT n.
		last := len(leaf.rounds) - 1
		if last < 0 || leaf.rounds[last] < leaf.n || (last > 0 && leaf.rounds[last-1] >= leaf.n) {
			t.Errorf("%d predictions: rounds ended at HITs %v, want the last round to be the one holding HIT %d (none after the cancel)",
				len(predicted), leaf.rounds, leaf.n)
		}
	}
}

// TestRetryJitterLeavesRngStream: retry backoff jitter never draws from
// the caller's Rng, so after an audit the Rng is in the same state with
// retry off, with retry on, and with retried failures.
func TestRetryJitterLeavesRngStream(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d, err := dataset.BinaryWithMinority(2000, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := female(d)
	groups := pattern.GroupsForAttribute(d.Schema(), 0)
	predicted := d.PredictedSet(g, 30, 20)
	// A 2x3 instance, counts [30 8 0 37 35 19], whose intersectional
	// audit posts 58 resolution tasks.
	s := pattern.MustSchema(
		pattern.Attribute{Name: "a", Values: []string{"0", "1"}},
		pattern.Attribute{Name: "b", Values: []string{"0", "1", "2"}},
	)
	crng := rand.New(rand.NewSource(20))
	counts := make([]int, s.NumSubgroups())
	for i := range counts {
		counts[i] = crng.Intn(40)
	}
	d2 := dataset.MustFromCounts(s, counts, crng)

	type audit struct {
		d   *dataset.Dataset
		run func(o Oracle, rng *rand.Rand) error
	}
	audits := map[string]audit{
		"MultipleCoverage": {d, func(o Oracle, rng *rand.Rand) error {
			_, err := MultipleCoverage(o, d.IDs(), 10, 25, groups, MultipleOptions{Rng: rng, Parallelism: 4})
			return err
		}},
		"ClassifierCoverage": {d, func(o Oracle, rng *rand.Rand) error {
			_, err := ClassifierCoverage(o, d.IDs(), predicted, 10, 25, g, ClassifierOptions{Rng: rng, Parallelism: 4})
			return err
		}},
		"IntersectionalCoverage": {d2, func(o Oracle, rng *rand.Rand) error {
			_, err := IntersectionalCoverage(o, d2.IDs(), 8, 20, s, MultipleOptions{Rng: rng, Parallelism: 4})
			return err
		}},
	}
	retry := RetryPolicy{MaxAttempts: 5}
	for name, a := range audits {
		next := func(leaf Oracle, policy RetryPolicy) int64 {
			rng := rand.New(rand.NewSource(3))
			if err := a.run(retried(leaf, policy, 4), rng); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return rng.Int63()
		}
		flaky := &FlakyOracle{Inner: NewTruthOracle(a.d), FailEvery: 7}
		off, on, failing := next(NewTruthOracle(a.d), RetryPolicy{}), next(NewTruthOracle(a.d), retry), next(flaky, retry)
		if flaky.calls < 7 {
			t.Fatalf("%s: no transient failure injected (%d calls)", name, flaky.calls)
		}
		if off != on || on != failing {
			t.Errorf("%s: next Rng draw %d with retry off, %d with retry on, %d with retried failures", name, off, on, failing)
		}
	}
}

// TestClassifierNarrowsUnderEveryStack: the classifier narrows its
// rounds by the governor handle Build returns, so a layer above the
// governor leaves a budget-bound audit's result and spend unchanged.
func TestClassifierNarrowsUnderEveryStack(t *testing.T) {
	d, err := dataset.BinaryWithMinority(300, 100, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	g := female(d)
	for _, predicted := range [][]dataset.ObjectID{d.IDs(), d.PredictedSet(g, 90, 2)} {
		run := func(s Stack) string {
			s.Budget = &Budget{MaxHITs: 25}
			l, err := s.Build(NewTruthOracle(d))
			if err != nil {
				t.Fatal(err)
			}
			res, err := ClassifierCoverage(l.Top, d.IDs(), predicted, 10, 80, g,
				ClassifierOptions{Rng: rand.New(rand.NewSource(9)), Governor: l.Budget})
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%+v|%+v", res, l.Budget.Spent())
		}
		want := run(Stack{})
		for name, s := range map[string]Stack{
			"cache":   {Cache: true},
			"journal": {Journal: &memJournal{}},
			"retry":   {Retry: RetryPolicy{MaxAttempts: 2}},
			"all":     {Cache: true, Journal: &memJournal{}, Retry: RetryPolicy{MaxAttempts: 2}},
		} {
			if got := run(s); got != want {
				t.Errorf("%d predictions, %s over the governor:\n%s\nwant the governor-only stack's\n%s", len(predicted), name, got, want)
			}
		}
	}
}

// taggedOracle is a leaf answering under a transcript tag.
type taggedOracle struct {
	*TruthOracle
	tag string
}

func (o taggedOracle) TranscriptTag() string { return o.tag }

// TestStackTranscriptTag: the journal records the leaf's transcript
// tag on round 0 only, and Build refuses a replay recorded under
// another tag (or none) with ErrTranscriptTag, before any round runs.
// An untagged leaf keeps untagged records.
func TestStackTranscriptTag(t *testing.T) {
	d := binaryDataset(t, []int{0, 1, 1, 0, 1, 0, 0, 1})
	g := female(d)
	record := func(leaf Oracle) []RoundRecord {
		mem := &memJournal{}
		l, err := Stack{Journal: mem}.Build(leaf)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := l.Top.SetQuery(d.IDs()[i:i+2], g); err != nil {
				t.Fatal(err)
			}
		}
		return mem.recs
	}
	truth := NewTruthOracle(d)
	tagged := record(taggedOracle{truth, "c2"})
	if tagged[0].Transcript != "c2" || tagged[1].Transcript != "" {
		t.Fatalf("recorded transcripts %q, %q; want \"c2\" on round 0 only", tagged[0].Transcript, tagged[1].Transcript)
	}
	untagged := record(truth)
	if untagged[0].Transcript != "" {
		t.Fatalf("untagged leaf recorded transcript %q", untagged[0].Transcript)
	}

	cases := []struct {
		name   string
		leaf   Oracle
		replay []RoundRecord
		refuse bool
	}{
		{"same tag", taggedOracle{truth, "c2"}, tagged, false},
		{"untagged journal, tagged leaf", taggedOracle{truth, "c2"}, untagged, true},
		{"older tag", taggedOracle{truth, "c3"}, tagged, true},
		{"tagged journal, untagged leaf", truth, tagged, true},
		{"untagged both", truth, untagged, false},
		{"nothing to replay", taggedOracle{truth, "c3"}, nil, false},
	}
	for _, tc := range cases {
		_, err := Stack{Replay: tc.replay}.Build(tc.leaf)
		if refused := errors.Is(err, ErrTranscriptTag); refused != tc.refuse || (err != nil && !refused) {
			t.Errorf("%s: Build = %v, want refused %v", tc.name, err, tc.refuse)
		}
	}
}

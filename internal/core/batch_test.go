package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// Compile-time interface checks: the truth oracle and the adapter are
// batch oracles.
var (
	_ BatchOracle = (*TruthOracle)(nil)
	_ BatchOracle = (*batchAdapter)(nil)
	_ BatchOracle = (*CachingOracle)(nil)
)

// plainOracle hides TruthOracle's batch methods so tests can exercise
// the adapter path.
type plainOracle struct{ inner *TruthOracle }

func (p plainOracle) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return p.inner.SetQuery(ids, g)
}
func (p plainOracle) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return p.inner.ReverseSetQuery(ids, g)
}
func (p plainOracle) PointQuery(id dataset.ObjectID) ([]int, error) {
	return p.inner.PointQuery(id)
}

// randomRequests builds a mixed round of set and reverse-set queries.
func randomRequests(d *dataset.Dataset, rng *rand.Rand, n int) []SetRequest {
	g := dataset.Female(d.Schema())
	ids := d.IDs()
	reqs := make([]SetRequest, n)
	for i := range reqs {
		lo := rng.Intn(len(ids) - 1)
		hi := lo + 1 + rng.Intn(len(ids)-lo-1)
		reqs[i] = SetRequest{IDs: ids[lo:hi], Group: g, Reverse: rng.Intn(2) == 0}
	}
	return reqs
}

func TestAsBatchOracleReturnsNativeImplementation(t *testing.T) {
	d := binaryDataset(t, []int{0, 1})
	o := NewTruthOracle(d)
	if bo := AsBatchOracle(o, 4); bo != BatchOracle(o) {
		t.Error("AsBatchOracle should hand back the native implementation")
	}
	if _, ok := AsBatchOracle(plainOracle{o}, 4).(*batchAdapter); !ok {
		t.Error("plain oracles should be lifted with the adapter")
	}
}

func TestBatchAdapterMatchesSequentialAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	d, err := dataset.BinaryWithMinority(300, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	reqs := randomRequests(d, rng, 64)

	seq := NewTruthOracle(d)
	want := make([]bool, len(reqs))
	for i, req := range reqs {
		if req.Reverse {
			want[i], err = seq.ReverseSetQuery(req.IDs, req.Group)
		} else {
			want[i], err = seq.SetQuery(req.IDs, req.Group)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, par := range []int{1, 4, 16} {
		o := NewTruthOracle(d)
		got, err := NewBatchAdapter(plainOracle{o}, par).SetQueryBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: answer %d = %v, want %v", par, i, got[i], want[i])
			}
		}
		if o.Tasks() != seq.Tasks() {
			t.Errorf("parallelism %d: tasks %v, want %v", par, o.Tasks(), seq.Tasks())
		}
	}
}

func TestBatchAdapterPointQueryBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	d, err := dataset.BinaryWithMinority(100, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	ids := d.IDs()[:40]
	o := NewTruthOracle(d)
	labels, err := NewBatchAdapter(plainOracle{o}, 8).PointQueryBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		want, _ := d.TrueLabels(id)
		if len(labels[i]) != len(want) || labels[i][0] != want[0] {
			t.Fatalf("labels[%d] = %v, want %v", i, labels[i], want)
		}
	}
	if got := o.Tasks().Point; got != len(ids) {
		t.Errorf("point tasks = %d, want %d", got, len(ids))
	}
}

// gaugeOracle tracks the number of concurrently in-flight queries.
type gaugeOracle struct {
	inner         Oracle
	inflight, max int64
	mu            sync.Mutex
}

func (g *gaugeOracle) enter() {
	n := atomic.AddInt64(&g.inflight, 1)
	g.mu.Lock()
	if n > g.max {
		g.max = n
	}
	g.mu.Unlock()
}
func (g *gaugeOracle) exit() { atomic.AddInt64(&g.inflight, -1) }

func (g *gaugeOracle) SetQuery(ids []dataset.ObjectID, gr pattern.Group) (bool, error) {
	g.enter()
	defer g.exit()
	return g.inner.SetQuery(ids, gr)
}
func (g *gaugeOracle) ReverseSetQuery(ids []dataset.ObjectID, gr pattern.Group) (bool, error) {
	g.enter()
	defer g.exit()
	return g.inner.ReverseSetQuery(ids, gr)
}
func (g *gaugeOracle) PointQuery(id dataset.ObjectID) ([]int, error) {
	g.enter()
	defer g.exit()
	return g.inner.PointQuery(id)
}

func TestBatchAdapterBoundsWorkerPool(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	d, err := dataset.BinaryWithMinority(500, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	gauge := &gaugeOracle{inner: NewTruthOracle(d)}
	const par = 4
	if _, err := NewBatchAdapter(gauge, par).SetQueryBatch(randomRequests(d, rng, 200)); err != nil {
		t.Fatal(err)
	}
	if gauge.max > par {
		t.Errorf("max in-flight = %d, pool bound %d", gauge.max, par)
	}
}

// errAtOracle fails specific request indices (by arrival order).
type errAtOracle struct {
	calls int64
	fail  map[int64]error
}

func (e *errAtOracle) tick() error {
	n := atomic.AddInt64(&e.calls, 1) - 1
	return e.fail[n]
}
func (e *errAtOracle) SetQuery([]dataset.ObjectID, pattern.Group) (bool, error) {
	return true, e.tick()
}
func (e *errAtOracle) ReverseSetQuery([]dataset.ObjectID, pattern.Group) (bool, error) {
	return true, e.tick()
}
func (e *errAtOracle) PointQuery(dataset.ObjectID) ([]int, error) { return []int{0}, e.tick() }

func TestBatchAdapterPropagatesErrors(t *testing.T) {
	d := binaryDataset(t, []int{0, 1, 0, 1})
	g := female(d)
	reqs := make([]SetRequest, 8)
	for i := range reqs {
		reqs[i] = SetRequest{IDs: d.IDs(), Group: g}
	}
	wantErr := fmt.Errorf("wrapped: %w", ErrTransient)
	// The answers below the failing request come back as a committed
	// prefix: the first three sequentially, fewer than all in parallel.
	o := &errAtOracle{fail: map[int64]error{3: wantErr}}
	if ans, err := NewBatchAdapter(o, 1).SetQueryBatch(reqs); !errors.Is(err, ErrTransient) || len(ans) != 3 {
		t.Errorf("sequential adapter: %d answers, err = %v; want 3 and transient", len(ans), err)
	}
	o = &errAtOracle{fail: map[int64]error{3: wantErr}}
	if ans, err := NewBatchAdapter(o, 8).SetQueryBatch(reqs); !errors.Is(err, ErrTransient) || len(ans) >= len(reqs) {
		t.Errorf("parallel adapter: %d answers, err = %v; want a strict prefix and transient", len(ans), err)
	}
}

func TestTruthOracleNativeBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	d, err := dataset.BinaryWithMinority(200, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	o := NewTruthOracle(d)
	reqs := randomRequests(d, rng, 20)
	answers, err := o.SetQueryBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(reqs) {
		t.Fatalf("answers = %d, want %d", len(answers), len(reqs))
	}
	if o.Tasks().Total() != len(reqs) {
		t.Errorf("tasks = %v, want %d total", o.Tasks(), len(reqs))
	}
	labels, err := o.PointQueryBatch(d.IDs()[:7])
	if err != nil || len(labels) != 7 {
		t.Fatalf("point batch: %v %v", labels, err)
	}
	if got := o.Tasks().Point; got != 7 {
		t.Errorf("point tasks = %d, want 7", got)
	}
}

func TestEmptyBatches(t *testing.T) {
	d := binaryDataset(t, []int{0, 1})
	for _, bo := range []BatchOracle{
		NewTruthOracle(d),
		NewBatchAdapter(plainOracle{NewTruthOracle(d)}, 4),
		NewCachingOracle(NewTruthOracle(d)),
	} {
		if answers, err := bo.SetQueryBatch(nil); err != nil || len(answers) != 0 {
			t.Errorf("%T empty set batch: %v %v", bo, answers, err)
		}
		if labels, err := bo.PointQueryBatch(nil); err != nil || len(labels) != 0 {
			t.Errorf("%T empty point batch: %v %v", bo, labels, err)
		}
	}
}

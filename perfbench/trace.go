package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// span is one timed call across a layer boundary. Start and end are
// nanoseconds since the tracer's epoch; parent indexes the enclosing
// span (-1 for a root); id is the audit round or the service job the
// span belongs to.
type span struct {
	name       string
	id         int64
	parent     int32
	hits       int32
	start, end int64
}

// tracer keeps spans in memory until the run ends. Audit layers nest
// synchronously inside one lockstep round at a time, so the open-span
// stack gives every span its parent; a call that does not close the
// innermost open span means two rounds overlapped, which would make
// the attribution wrong, so the trace is marked broken instead.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	stack  []int32
	rounds int64
	broken error
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a nested span; a span opened with no span open is a new
// round.
func (t *tracer) begin(name string, hits int) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	} else {
		t.rounds++
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, id: t.rounds, parent: parent, hits: int32(hits), start: t.now()})
	t.stack = append(t.stack, idx)
	return idx
}

func (t *tracer) end(idx int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.stack)
	if n == 0 || t.stack[n-1] != idx {
		if t.broken == nil {
			t.broken = fmt.Errorf("trace: span %q closed out of order (overlapping rounds)", t.spans[idx].name)
		}
		return
	}
	t.stack = t.stack[:n-1]
	t.spans[idx].end = t.now()
}

// add records a span whose times were taken by the caller (service
// workloads, where spans of many jobs interleave across goroutines).
func (t *tracer) add(name string, id int64, parent int32, start, end time.Time) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, id: id, parent: parent,
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))})
	return idx
}

// layerTotals is one layer's aggregate over a trace.
type layerTotals struct {
	hits  int64
	total time.Duration // summed span durations
	self  time.Duration // summed durations minus child spans
	durs  []float64     // per-span durations, ms
}

// totals aggregates the trace by span name. A span's self time is its
// duration minus the durations of its direct children.
func (t *tracer) totals() (map[string]*layerTotals, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.broken != nil {
		return nil, t.broken
	}
	if len(t.stack) != 0 {
		return nil, errors.New("trace: spans left open")
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*layerTotals{}
	for i, s := range t.spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.name] = lt
		}
		d := s.end - s.start
		lt.hits += int64(s.hits)
		lt.total += time.Duration(d)
		lt.self += time.Duration(d - child[i])
		lt.durs = append(lt.durs, float64(d)/1e6)
	}
	return out, nil
}

// write dumps the spans as CSV (name,id,parent,start_ns,end_ns,hits).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,id,parent,start_ns,end_ns,hits")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", s.name, s.id, s.parent, s.start, s.end, s.hits)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shim times every call into the layer below it. It is a native
// BatchOracle, and forwards rounds through core.AsBatchOracle with the
// audit's width — the same call the middleware above would have made
// on the layer directly — so the stack behaves exactly as without it.
type shim struct {
	name  string
	inner core.Oracle
	width int
	tr    *tracer
}

func (t *tracer) shim(name string, inner core.Oracle, width int) *shim {
	return &shim{name: name, inner: inner, width: width, tr: t}
}

func (s *shim) SetQueryBatch(reqs []core.SetRequest) ([]bool, error) {
	i := s.tr.begin(s.name, len(reqs))
	defer s.tr.end(i)
	return core.AsBatchOracle(s.inner, s.width).SetQueryBatch(reqs)
}

func (s *shim) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	i := s.tr.begin(s.name, len(ids))
	defer s.tr.end(i)
	return core.AsBatchOracle(s.inner, s.width).PointQueryBatch(ids)
}

func (s *shim) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	i := s.tr.begin(s.name, 1)
	defer s.tr.end(i)
	return s.inner.SetQuery(ids, g)
}

func (s *shim) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	i := s.tr.begin(s.name, 1)
	defer s.tr.end(i)
	return s.inner.ReverseSetQuery(ids, g)
}

func (s *shim) PointQuery(id dataset.ObjectID) ([]int, error) {
	i := s.tr.begin(s.name, 1)
	defer s.tr.end(i)
	return s.inner.PointQuery(id)
}

// timedJournal times each RoundJournal.Append of the file journal —
// frame encoding, write and fsync — as a child span of the journaling
// middleware's span.
type timedJournal struct {
	inner core.RoundJournal
	tr    *tracer
}

func (j *timedJournal) Append(rec core.RoundRecord) error {
	i := j.tr.begin("journal.append", 0)
	defer j.tr.end(i)
	return j.inner.Append(rec)
}

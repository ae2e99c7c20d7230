package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// This file is the deterministic lockstep scheduler: the one engine
// every audit algorithm runs on. An order-dependent oracle like the
// crowd Platform consumes its RNG per HIT in arrival order, so a
// schedule that let goroutine interleaving pick the order would not be
// reproducible. Lockstep removes that dependence by executing audits
// in rounds:
//
//   - every audit task runs in its own goroutine regardless of
//     Parallelism, so the set of concurrently live tasks — and with it
//     the composition of every round — never depends on the pool
//     width;
//   - a task that needs oracle answers parks a window of queries and
//     blocks: one query, or a run of set queries it is certain to ask
//     in that order whatever the answers (Group-Coverage's certain
//     FIFO prefix, see groupcoverage.go); when every live task has
//     parked (or finished), the round is complete;
//   - the round posts the first w entries of every window, w being the
//     shortest window parked, in canonical order — by query sequence,
//     then task index, where the task index encodes the engine's
//     (super-group, member) ordering — through one BatchOracle round
//     (SetQueryBatch, then PointQueryBatch), and hands the unposted
//     window tails back unpaid;
//   - answers release the tasks, which commit them in order and
//     compute their next window.
//
// Every live task posts exactly one query per query sequence number,
// so a round of width w is exactly w one-query rounds laid end to end:
// the oracle sees the same query stream whatever the window lengths,
// and a task posting one query at a time (windows of one) commits the
// one-query canonical schedule. Windows hold set queries only; a point
// query parks alone, so a round that mixes kinds has width one.
//
// Because round composition and commit order are both schedule-free,
// an oracle that implements BatchOracle natively with batches executing
// in request order (the crowd Platform answers a batch under one lock)
// sees the identical query sequence at every Parallelism value, making
// the full crowdsourced pipeline — worker draws, Dawid-Skene-style
// aggregation, pricing — bit-for-bit reproducible. An order-independent
// oracle additionally reproduces the paper's sequential loops exactly.
// Parallelism only bounds the pool AsBatchOracle uses to lift oracles
// without native batching, so batched rounds still amortize per-HIT
// crowd latency.

// lockstepTask is one audit task's parking slot: the window it posts
// and, once its round commits, what came back. Its task's goroutine
// fills the window and reads the results; the scheduler touches it
// only under its lock while the task waits.
type lockstepTask struct {
	// index is the task's position in the engine's fixed task order.
	index int
	// The window: set queries (reqs), or one point query (point, id).
	reqs  []SetRequest
	point bool
	id    dataset.ObjectID
	// The round's delivery: answers[:n] (or labels, for a point query)
	// answer the posted prefix of the window, err is the error of the
	// first posted entry that failed, and done publishes all of it.
	answers []bool
	labels  []int
	n       int
	err     error
	done    bool
}

// width is the number of queries the task parked.
func (t *lockstepTask) width() int {
	if t.point {
		return 1
	}
	return len(t.reqs)
}

// lockstep coordinates one group of audit tasks through rounds.
type lockstep struct {
	bo  BatchOracle
	ctx context.Context

	mu     sync.Mutex
	cond   *sync.Cond
	live   int // tasks neither finished nor aborted
	parked []*lockstepTask
	err    error // sticky abort: set once a task finishes with an error

	// Round scratch, recycled across rounds so a long audit stops
	// allocating per round: spare ping-pongs with parked's backing
	// array, and sets/setReqs/pointIDs are the commit path's working
	// slices. All of it is touched only under mu or while every live
	// task sits in cond.Wait, and none of it is ever handed to code
	// outside the scheduler (batch oracles receive setReqs/pointIDs for
	// the duration of the call only — the middleware stack clones what
	// it retains).
	spare    []*lockstepTask
	sets     []*lockstepTask
	setReqs  []SetRequest
	pointIDs []dataset.ObjectID
}

// newLockstep builds a scheduler for n tasks committing rounds through
// bo under ctx.
func newLockstep(ctx context.Context, bo BatchOracle, n int) *lockstep {
	s := &lockstep{bo: bo, ctx: ctx, live: n}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// submit parks one task's window and blocks until its round commits.
// After an abort the window fails immediately without reaching the
// oracle.
func (s *lockstep) submit(t *lockstepTask) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t.n, t.err, t.done = 0, nil, false
	if s.err != nil {
		t.err, t.done = s.err, true
		return
	}
	s.parked = append(s.parked, t)
	s.maybeCommit()
	for !t.done {
		s.cond.Wait()
	}
}

// finish retires one task; a non-nil error aborts the remaining tasks
// (their next submit fails instead of posting more HITs a doomed audit
// would pay for). Callers hold no lock.
func (s *lockstep) finish(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live--
	if err != nil && s.err == nil {
		s.err = err
	}
	s.maybeCommit()
}

// maybeCommit commits the round once every live task has parked.
// Callers hold s.mu; the parked tasks are all inside cond.Wait, so the
// oracle round runs without contention. A cancelled context aborts the
// round BEFORE it reaches the oracle: every round either commits in
// full (and is journaled, if a journal is in the stack) or never
// touches the crowd — the invariant that makes kill-at-round-K exactly
// resumable.
func (s *lockstep) maybeCommit() {
	if len(s.parked) == 0 || len(s.parked) < s.live {
		return
	}
	round := s.parked
	s.parked = s.spare[:0]
	slices.SortFunc(round, func(a, b *lockstepTask) int { return a.index - b.index })
	if s.err == nil {
		s.err = s.ctx.Err()
	}
	if s.err == nil {
		s.commit(round)
	}
	for _, t := range round {
		if s.err != nil {
			t.err = s.err
		}
		t.done = true
	}
	// Recycle the round's backing array: every task is done, so no
	// waiter holds a reference into it past the broadcast.
	s.spare = round[:0]
	s.cond.Broadcast()
}

// commit posts one canonical round: the first w entries of every set
// window as one SetQueryBatch in (query sequence, task index) order,
// then the point queries as one PointQueryBatch in task order (a point
// query parks alone, so point queries only ever ride a round of width
// one). A batch error fails the failing queries uniformly — every
// parked task behind the failure sees the same error, so which error
// surfaces never depends on scheduling. Under a retry policy the retry
// wrapper sits below the scheduler (on top of the Stack) and absorbs
// transient failures inside the batch, so only a HIT that exhausts
// its attempts fails a round. A partial-prefix batch (a BudgetedOracle
// admitting only what the remaining budget affords) delivers the
// committed prefix's answers to their tasks and fails, with the
// batch's error, the entries of the query sequence the prefix ends in —
// the unadmitted sets of that sequence AND every point query, which sit
// after the sets in canonical order; later sequences go back unpaid.
// So a budget exhausts at the point of the canonical query stream
// where one query per round would, and no task ever hangs on an
// unanswered round.
func (s *lockstep) commit(round []*lockstepTask) {
	w := round[0].width()
	sets := s.sets[:0]
	for _, t := range round {
		w = min(w, t.width())
		if !t.point {
			sets = append(sets, t)
		}
	}
	s.sets = sets
	if len(sets) > 0 {
		reqs := s.setReqs[:0]
		for j := 0; j < w; j++ {
			for _, t := range sets {
				reqs = append(reqs, t.reqs[j])
			}
		}
		s.setReqs = reqs
		answers, err := s.bo.SetQueryBatch(reqs)
		answers = answers[:min(len(answers), len(reqs))]
		for i, ans := range answers {
			t := sets[i%len(sets)]
			t.answers[i/len(sets)] = ans
			t.n++
		}
		if err != nil {
			// The first unanswered entry sits in query sequence v: a
			// task whose entry v went unanswered fails there, as it
			// would one query per round, while a task answered through
			// v gets its tail back unpaid and posts it again next round,
			// where the governor decides afresh (a smaller query may
			// still fit a spend cap).
			v := len(answers) / len(sets)
			for _, t := range round {
				if t.point || (t.n == v && v < w) {
					t.err = err
				}
			}
			return
		}
	}
	if len(sets) == len(round) {
		return
	}
	ids := s.pointIDs[:0]
	for _, t := range round {
		if t.point {
			ids = append(ids, t.id)
		}
	}
	s.pointIDs = ids
	labels, err := s.bo.PointQueryBatch(ids)
	i := 0
	for _, t := range round {
		if !t.point {
			continue
		}
		if i < len(labels) {
			t.labels, t.n = labels[i], 1
		} else {
			t.err = err
		}
		i++
	}
}

// windowOracle posts a window of set queries the caller is certain to
// ask in that order, and returns the answers of the posted prefix: a
// round may post fewer entries than the window (the shortest window of
// the round bounds it), and the unposted tail is handed back unpaid
// with a nil error. A non-nil error belongs to the first posted entry
// that failed, the one after the returned answers. The answers are
// valid until the next call. Only the lockstep facade implements it;
// Group-Coverage over any other oracle posts windows of one.
type windowOracle interface {
	setWindow(reqs []SetRequest) ([]bool, error)
}

// lockstepOracle is the per-task Oracle facade: each window parks in
// the scheduler and returns with its round's answers. One goroutine
// owns it, and because a task has at most one window in flight
// (submit blocks until the round delivers), the parking slot and its
// answer buffer are reused across the task's rounds instead of
// allocating per HIT. The scheduler never retains a task past its
// round's broadcast, and the labels a point query returns are the
// batch oracle's own allocation, so slot reuse cannot alias an answer
// a caller holds.
type lockstepOracle struct {
	s   *lockstep
	t   lockstepTask
	one [1]SetRequest
}

// setWindow implements windowOracle.
func (o *lockstepOracle) setWindow(reqs []SetRequest) ([]bool, error) {
	t := &o.t
	t.point, t.reqs = false, reqs
	if cap(t.answers) < len(reqs) {
		t.answers = make([]bool, len(reqs))
	}
	t.answers = t.answers[:len(reqs)]
	o.s.submit(t)
	t.reqs = nil // the caller's slice; never retained
	return t.answers[:t.n], t.err
}

// set posts one set query as a window of one. A one-entry window is
// never cut short, so a nil error means it was answered.
func (o *lockstepOracle) set(req SetRequest) (bool, error) {
	o.one[0] = req
	answers, err := o.setWindow(o.one[:])
	o.one[0] = SetRequest{}
	if err != nil {
		return false, err
	}
	return answers[0], nil
}

// SetQuery implements Oracle.
func (o *lockstepOracle) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return o.set(SetRequest{IDs: ids, Group: g})
}

// ReverseSetQuery implements Oracle.
func (o *lockstepOracle) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return o.set(SetRequest{IDs: ids, Group: g, Reverse: true})
}

// PointQuery implements Oracle.
func (o *lockstepOracle) PointQuery(id dataset.ObjectID) ([]int, error) {
	t := &o.t
	t.point, t.id = true, id
	o.s.submit(t)
	labels := t.labels
	t.labels = nil
	return labels, t.err
}

// runLockstep runs fn(i) for every task in [0, n) in lockstep rounds:
// all n tasks are live at once (goroutines are cheap; the oracle round
// is the scarce resource), each audits through its own per-task Oracle
// facade, and rounds commit through AsBatchOracle(o, parallelism) in
// canonical order. Error surfacing follows task-index order, never
// finish order: a failed round delivers one error to every parked
// task, a task failing on its own aborts the rest before they post
// further queries, and the lowest-indexed task's error is returned —
// so which error surfaces does not depend on goroutine scheduling.
func runLockstep(ctx context.Context, o Oracle, parallelism, n int, fn func(i int, audit Oracle) error) error {
	if n == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := newLockstep(ctx, AsBatchOracle(o, parallelism), n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := fn(i, &lockstepOracle{s: s, t: lockstepTask{index: i}})
			errs[i] = err
			s.finish(err)
		}(i)
	}
	wg.Wait()
	return firstError(errs)
}

// RunTask runs one sequential audit, like GroupCoverage or
// BaseCoverage, as a one-task lockstep run: every window fn parks (a
// single query, or Group-Coverage's certain FIFO prefix) is one round
// committed through o, so a cancelled ctx fails the next round before
// it reaches the oracle. parallelism sizes the pool that lifts a plain
// o.
func RunTask(ctx context.Context, o Oracle, parallelism int, fn func(audit Oracle) error) error {
	if o == nil {
		return errors.New("core: nil oracle")
	}
	return runLockstep(ctx, o, parallelism, 1, func(_ int, audit Oracle) error { return fn(audit) })
}

// DelayOracle adds a fixed per-query wall-clock delay in front of an
// oracle, modeling what dominates a real deployment: every HIT takes
// time to come back from the crowd. It deliberately does NOT implement
// BatchOracle — AsBatchOracle lifts it across a worker pool, so a
// batched round overlaps its queries' round-trips the way concurrently
// posted HITs do. Safe for concurrent use when Inner is.
type DelayOracle struct {
	Inner Oracle
	Delay time.Duration
}

// SetQuery implements Oracle.
func (o DelayOracle) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	time.Sleep(o.Delay)
	return o.Inner.SetQuery(ids, g)
}

// ReverseSetQuery implements Oracle.
func (o DelayOracle) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	time.Sleep(o.Delay)
	return o.Inner.ReverseSetQuery(ids, g)
}

// PointQuery implements Oracle.
func (o DelayOracle) PointQuery(id dataset.ObjectID) ([]int, error) {
	time.Sleep(o.Delay)
	return o.Inner.PointQuery(id)
}

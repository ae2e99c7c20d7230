package core

import (
	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// SetRequest is one set or reverse-set query of a batch round: the
// HITs a deployment posts to the platform together, the way crowd
// marketplaces actually ingest work.
type SetRequest struct {
	// IDs are the objects shown to the worker.
	IDs []dataset.ObjectID
	// Group is the queried (possibly super-) group.
	Group pattern.Group
	// Reverse selects the reverse-set question ("at least one object
	// NOT in the group?") instead of the plain set question.
	Reverse bool
}

// BatchOracle extends Oracle with whole-round execution: a deployment
// posts all HITs of one round at once and collects the answers
// together. Implementations must answer positionally — answers[i]
// belongs to reqs[i] — and must return the error of the
// lowest-indexed failing request among those it executed. (A failing
// round may stop dispatching its remaining requests, so when several
// requests would fail concurrently, which error surfaces can depend
// on scheduling; successful rounds are always deterministic.)
//
// Partial-prefix commits: a failing batch may return a non-nil answer
// slice shorter than the request slice alongside its error, meaning
// requests [0, len(answers)) committed with those answers and the rest
// failed. The BudgetedOracle governor uses the prefix form to hand
// back the answers the remaining budget could still afford, and a
// lifted plain oracle (NewBatchAdapter) returns the requests answered
// below the lowest failing one; retry re-posts only the rest, and the
// lockstep commit path delivers such a prefix to its tasks instead of
// discarding paid answers.
//
// Oracles whose answers depend only on the request (TruthOracle, any
// stateless crowd bridge) may execute a batch in any order or fully in
// parallel. Stateful simulators (the crowd platform, whose RNG
// advances per HIT) must process the batch in request order so that
// identically-seeded runs reproduce identical answers.
type BatchOracle interface {
	Oracle
	// SetQueryBatch answers one round of set / reverse-set queries.
	SetQueryBatch(reqs []SetRequest) ([]bool, error)
	// PointQueryBatch answers one round of point queries.
	PointQueryBatch(ids []dataset.ObjectID) ([][]int, error)
}

// batchAdapter lifts a plain Oracle into batched execution with a
// bounded worker pool; single queries go straight to the embedded
// oracle. A failing round returns the answers below its lowest
// failing request: those ran and succeeded (see runBounded), so they
// are committed. The oracle must be safe for concurrent use when
// parallelism > 1.
type batchAdapter struct {
	Oracle
	parallelism int
}

// NewBatchAdapter wraps an Oracle so whole rounds execute across a
// bounded pool of parallelism goroutines (minimum 1). The inner
// oracle must be safe for concurrent use when parallelism > 1; its
// answers should not depend on call order, or batched runs will not
// reproduce sequential ones.
func NewBatchAdapter(o Oracle, parallelism int) BatchOracle {
	return &batchAdapter{Oracle: o, parallelism: normalizeParallelism(parallelism)}
}

// AsBatchOracle returns o itself when it already implements
// BatchOracle natively, and otherwise lifts it with NewBatchAdapter at
// the given width.
func AsBatchOracle(o Oracle, parallelism int) BatchOracle {
	if bo, ok := o.(BatchOracle); ok {
		return bo
	}
	return NewBatchAdapter(o, parallelism)
}

// batchRounds is the batch half of BatchOracle: the only interface the
// middleware layers call on the layer below them.
type batchRounds interface {
	SetQueryBatch(reqs []SetRequest) ([]bool, error)
	PointQueryBatch(ids []dataset.ObjectID) ([][]int, error)
}

// oneQueryRounds derives the single-query Oracle methods from a
// layer's batch methods: every single query is a one-element round, so
// it is cached, charged, journaled and screened exactly like a round
// the lockstep scheduler commits. The middlewares embed it.
type oneQueryRounds struct{ rounds batchRounds }

// SetQuery implements Oracle as a one-element set round.
func (o oneQueryRounds) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return onlyAnswer(o.rounds.SetQueryBatch([]SetRequest{{IDs: ids, Group: g}}))
}

// ReverseSetQuery implements Oracle as a one-element reverse-set round.
func (o oneQueryRounds) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return onlyAnswer(o.rounds.SetQueryBatch([]SetRequest{{IDs: ids, Group: g, Reverse: true}}))
}

// PointQuery implements Oracle as a one-element point round.
func (o oneQueryRounds) PointQuery(id dataset.ObjectID) ([]int, error) {
	return onlyAnswer(o.rounds.PointQueryBatch([]dataset.ObjectID{id}))
}

// onlyAnswer unpacks a one-element round.
func onlyAnswer[T any](answers []T, err error) (T, error) {
	if err == nil && len(answers) == 0 {
		err = errShortBatch(0, 1)
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return answers[0], nil
}

// firstError returns the lowest-indexed non-nil error.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SetQueryBatch implements BatchOracle.
func (a *batchAdapter) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	answers := make([]bool, len(reqs))
	k, err := runBounded(a.parallelism, len(reqs), func(i int) error {
		var e error
		if reqs[i].Reverse {
			answers[i], e = a.Oracle.ReverseSetQuery(reqs[i].IDs, reqs[i].Group)
		} else {
			answers[i], e = a.Oracle.SetQuery(reqs[i].IDs, reqs[i].Group)
		}
		return e
	})
	return answers[:k], err
}

// PointQueryBatch implements BatchOracle; see SetQueryBatch.
func (a *batchAdapter) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	labels := make([][]int, len(ids))
	k, err := runBounded(a.parallelism, len(ids), func(i int) error {
		var e error
		labels[i], e = a.Oracle.PointQuery(ids[i])
		return e
	})
	return labels[:k], err
}

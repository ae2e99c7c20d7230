package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// Strategy names the false-positive elimination strategy chosen by
// Classifier-Coverage (section 5).
type Strategy string

const (
	// StrategyPartition eliminates false positives with
	// divide-and-conquer reverse set queries; chosen when the
	// classifier looks precise on the sample.
	StrategyPartition Strategy = "partition"
	// StrategyLabel point-labels the predicted set; chosen when the
	// estimated false-positive rate is high and partitioning would
	// devolve into many tiny set queries.
	StrategyLabel Strategy = "label"
	// StrategyNone means the classifier predicted nothing, so the
	// audit fell back to plain Group-Coverage.
	StrategyNone Strategy = "none"
)

// ClassifierOptions tunes Classifier-Coverage.
type ClassifierOptions struct {
	// SampleFraction of the predicted-positive set is point-labeled to
	// estimate the classifier's precision. Zero means the paper's 10 %.
	SampleFraction float64
	// FPRateThreshold switches from partitioning to labeling when the
	// estimated false-positive rate reaches it. Zero means the paper's
	// 25 %.
	FPRateThreshold float64
	// Rng drives sampling; required.
	Rng *rand.Rand
	// Parallelism bounds the pool that lifts an oracle without native
	// batching (see AsBatchOracle); values <= 1 mean width 1. Every
	// phase posts whole rounds whose composition never depends on the
	// width, so the full ClassifierResult is bit-identical at every
	// value. The oracle must be safe for concurrent use when
	// Parallelism > 1.
	Parallelism int
	// Governor, when non-nil, is the budget governor inside the
	// oracle's Stack (Layers.Budget): the engine narrows its
	// speculative rounds to the governor's remaining headroom. It
	// never wraps the oracle; budget exhaustion yields a partial
	// ClassifierResult (Exhausted set, Count the verified lower bound)
	// with or without it.
	Governor *BudgetedOracle
	// Ctx cancels the audit at round boundaries (see
	// MultipleOptions.Ctx). Nil means context.Background().
	Ctx context.Context
}

// context resolves opts.Ctx, defaulting to context.Background().
func (o ClassifierOptions) context() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// ClassifierResult reports a classifier-assisted audit.
type ClassifierResult struct {
	Group   pattern.Group
	Covered bool
	// Count is the number of verified group members discovered (a
	// lower bound; exact when Exact is set).
	Count int
	Exact bool
	// Strategy actually used on the predicted set.
	Strategy Strategy
	// Exhausted is true when a budget governor stopped the audit before
	// it could decide coverage: Count is then the number of verified
	// members the committed answers prove (Covered stays true when that
	// bound already reaches tau).
	Exhausted bool
	// EstFPRate is the false-positive rate estimated on the sample.
	EstFPRate float64
	// Task breakdown: precision sample, predicted-set cleanup,
	// residual Group-Coverage over the rest of the data.
	SampleTasks, CleanupTasks, ResidualTasks int
	// Tasks is the total.
	Tasks int
}

// String implements fmt.Stringer.
func (r ClassifierResult) String() string {
	verdict := "uncovered"
	if r.Covered {
		verdict = "covered"
	}
	if r.Exhausted && !r.Covered {
		verdict = "undecided (budget exhausted)"
	}
	return fmt.Sprintf("%s: %s via %s (est. FP %.0f%%), count>=%d, %d tasks (sample=%d cleanup=%d residual=%d)",
		r.Group, verdict, r.Strategy, 100*r.EstFPRate, r.Count, r.Tasks, r.SampleTasks, r.CleanupTasks, r.ResidualTasks)
}

// ClassifierCoverage is Algorithm 4: it audits group g using the
// predicted-positive set G of a pre-trained classifier. A 10 % sample
// of G is point-labeled to estimate the classifier's precision on the
// positive group; false positives are then eliminated by partitioning
// (reverse set queries, precise classifiers) or exhaustive labeling
// (imprecise classifiers). If the verified positives already reach
// tau the audit stops; otherwise Group-Coverage hunts the remaining
// tau - c' false negatives in D - G.
//
// Every phase posts whole rounds of HITs instead of one at a time:
//
//   - the precision sample (line 2-3) is a single point-query round
//     over the objects Rng.Perm draws, in draw order;
//   - the Label phase (Algorithm 5) issues bounded rounds of point
//     queries over the unsampled predicted objects and commits the
//     answers in predicted-set order with a deterministic early stop:
//     each round posts min(max(1, tau - verified), remaining budget
//     headroom) queries, and the walk stops at the first index where
//     verified >= tau, discarding later in-flight answers;
//   - the Partition phase (Algorithm 5) runs the divide-and-conquer
//     queue but posts the front of the queue as one reverse-set round
//     per iteration, clipped to the prefix of nodes whose cumulative
//     size reaches stopAt - confirmed (and to the budget headroom):
//     nodes past that point are pure speculation. Commit order, sibling
//     inference and the early stop follow the paper's loop verbatim.
//
// Round composition is a pure function of previously committed answers
// — never of Parallelism — and each round commits as one canonical
// BatchOracle batch, exactly what a lockstep round of one-query tasks
// posts. So the full ClassifierResult is bit-identical at every
// Parallelism even through order-dependent oracles like the crowd
// Platform, and for order-independent oracles Strategy, Count, Exact
// and the task breakdown equal the paper's sequential loops: Tasks
// counts committed queries only. The price of posting rounds is
// over-issue — answers the early stop or the sibling inference discards
// were still real HITs — bounded per phase by one round. Budget
// exhaustion surfaces as a committed prefix of one round, translated
// into a partial result with Exhausted set.
func ClassifierCoverage(o Oracle, ids, predicted []dataset.ObjectID, n, tau int, g pattern.Group, opts ClassifierOptions) (ClassifierResult, error) {
	res := ClassifierResult{Group: g, Strategy: StrategyNone}
	inPredicted, err := classifierInputs(o, ids, predicted, n, tau, &opts)
	if err != nil {
		return res, err
	}

	ctx := opts.context()
	if err := ctx.Err(); err != nil {
		return res, err
	}

	// Without predictions there is nothing to exploit.
	if len(predicted) == 0 {
		var gc GroupResult
		err := RunTask(ctx, o, opts.Parallelism, func(audit Oracle) (err error) {
			gc, err = GroupCoverage(audit, ids, n, tau, g)
			return err
		})
		if err != nil {
			return res, err
		}
		res.Covered = gc.Covered
		res.Count = gc.Count
		res.Exact = gc.Exact
		res.Exhausted = gc.Exhausted
		res.ResidualTasks = gc.Tasks
		res.Tasks = gc.Tasks
		return res, nil
	}
	e := &classifierEngine{bo: AsBatchOracle(o, opts.Parallelism), gov: opts.Governor, ctx: ctx}

	// Line 2-3: estimate precision on a sample of G, posted as one
	// point-query round.
	sampleSize := sampleBudget(opts.SampleFraction, len(predicted))
	sample := make([]dataset.ObjectID, 0, sampleSize)
	for _, idx := range opts.Rng.Perm(len(predicted))[:sampleSize] {
		sample = append(sample, predicted[idx])
	}
	labels, err := e.pointRound(sample)
	if err != nil && !errors.Is(err, ErrBudgetExhausted) {
		return res, err
	}
	sampled := make(map[dataset.ObjectID]bool, sampleSize)
	truePos := 0
	for i, l := range labels {
		res.SampleTasks++
		sampled[sample[i]] = true
		if g.Matches(l) {
			truePos++
		}
	}
	if err != nil {
		// Budget exhausted mid-sample: settle on the committed prefix.
		return classifierExhausted(res, truePos, tau), nil
	}
	res.EstFPRate = 1 - float64(truePos)/float64(sampleSize)

	// Line 4-5: eliminate false positives.
	var verified, tasks int
	var exactClean, exhausted bool
	if res.EstFPRate < opts.FPRateThreshold {
		res.Strategy = StrategyPartition
		verified, exactClean, tasks, exhausted, err = e.partitionCleanRounds(predicted, n, tau, g)
	} else {
		res.Strategy = StrategyLabel
		verified, exactClean, tasks, exhausted, err = e.labelCleanRounds(predicted, sampled, truePos, tau, g)
	}
	if err != nil {
		return res, err
	}
	res.CleanupTasks = tasks
	if exhausted {
		return classifierExhausted(res, verified, tau), nil
	}

	return classifierFinish(ctx, o, opts.Parallelism, ids, inPredicted, n, tau, verified, exactClean, g, res)
}

// classifierInputs validates a Classifier-Coverage call, resolves the
// option defaults in place, and indexes the predicted set.
func classifierInputs(o Oracle, ids, predicted []dataset.ObjectID, n, tau int, opts *ClassifierOptions) (map[dataset.ObjectID]bool, error) {
	if o == nil {
		return nil, errors.New("core: nil oracle")
	}
	if opts.Rng == nil {
		return nil, errors.New("core: ClassifierCoverage needs options.Rng")
	}
	if opts.SampleFraction == 0 {
		opts.SampleFraction = 0.10
	}
	if opts.FPRateThreshold == 0 {
		opts.FPRateThreshold = 0.25
	}
	if opts.SampleFraction < 0 || opts.SampleFraction > 1 || opts.FPRateThreshold < 0 || opts.FPRateThreshold > 1 {
		return nil, fmt.Errorf("core: invalid options %+v", *opts)
	}
	if n < 1 || tau < 0 {
		return nil, fmt.Errorf("core: invalid parameters (n=%d tau=%d)", n, tau)
	}
	inIDs := make(map[dataset.ObjectID]bool, len(ids))
	for _, id := range ids {
		inIDs[id] = true
	}
	inPredicted := make(map[dataset.ObjectID]bool, len(predicted))
	for _, id := range predicted {
		if !inIDs[id] {
			return nil, fmt.Errorf("core: predicted object %d not in dataset", id)
		}
		if inPredicted[id] {
			return nil, fmt.Errorf("core: duplicate predicted object %d", id)
		}
		inPredicted[id] = true
	}
	return inPredicted, nil
}

// classifierExhausted settles a classifier audit whose budget ran out:
// Count is the verified lower bound the committed answers prove, which
// still decides coverage when it already reaches tau.
func classifierExhausted(res ClassifierResult, verified, tau int) ClassifierResult {
	res.Exhausted = true
	res.Count = verified
	res.Covered = verified >= tau
	res.Tasks = res.SampleTasks + res.CleanupTasks + res.ResidualTasks
	return res
}

// sampleBudget sizes the precision sample: ceil(fraction * |G|),
// clamped into [1, |G|].
func sampleBudget(fraction float64, predicted int) int {
	size := int(math.Ceil(fraction * float64(predicted)))
	if size < 1 {
		size = 1
	}
	if size > predicted {
		size = predicted
	}
	return size
}

// classifierFinish is lines 6-7 of Algorithm 4: enough verified
// positives end the audit; otherwise Group-Coverage hunts the
// remaining tau - verified false negatives in D - G. The residual
// search is a single adaptive query chain (each set query depends on
// the previous answer), so it runs as a one-task lockstep audit.
func classifierFinish(ctx context.Context, o Oracle, parallelism int, ids []dataset.ObjectID, inPredicted map[dataset.ObjectID]bool, n, tau, verified int, exactClean bool, g pattern.Group, res ClassifierResult) (ClassifierResult, error) {
	// Line 6: enough verified positives end the audit.
	if verified >= tau {
		res.Covered = true
		res.Count = verified
		res.Tasks = res.SampleTasks + res.CleanupTasks
		return res, nil
	}

	// Line 7: hunt false negatives in D - G.
	rest := make([]dataset.ObjectID, 0, len(ids)-len(inPredicted))
	for _, id := range ids {
		if !inPredicted[id] {
			rest = append(rest, id)
		}
	}
	var gc GroupResult
	err := RunTask(ctx, o, parallelism, func(audit Oracle) (err error) {
		gc, err = GroupCoverage(audit, rest, n, tau-verified, g)
		return err
	})
	if err != nil {
		return res, err
	}
	res.ResidualTasks = gc.Tasks
	res.Covered = gc.Covered
	res.Count = verified + gc.Count
	res.Exact = exactClean && gc.Exact && !gc.Covered
	res.Exhausted = gc.Exhausted
	res.Tasks = res.SampleTasks + res.CleanupTasks + res.ResidualTasks
	return res, nil
}

// classifierEngine posts the rounds of one classifier audit. bo is the
// audit's oracle stack as a BatchOracle; gov, when non-nil, is the
// budget governor inside that stack, whose headroom narrows the
// speculative rounds.
type classifierEngine struct {
	bo  BatchOracle
	gov *BudgetedOracle
	ctx context.Context
}

// pointRound posts one round of point queries. The answers are the
// committed prefix: all of them, or — with ErrBudgetExhausted — the
// part the budget admitted. Any other failure aborts the audit. A
// cancelled context fails the round before it reaches the oracle.
func (e *classifierEngine) pointRound(ids []dataset.ObjectID) ([][]int, error) {
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	labels, err := e.bo.PointQueryBatch(ids)
	if err == nil && len(labels) < len(ids) {
		err = errShortBatch(len(labels), len(ids))
	}
	return labels, err
}

// reverseRound posts one round of reverse set queries ("is anyone here
// NOT in g?"); see pointRound for the committed-prefix convention.
func (e *classifierEngine) reverseRound(sets [][]dataset.ObjectID, g pattern.Group) ([]bool, error) {
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	reqs := make([]SetRequest, len(sets))
	for i, ids := range sets {
		reqs[i] = SetRequest{IDs: ids, Group: g, Reverse: true}
	}
	answers, err := e.bo.SetQueryBatch(reqs)
	if err == nil && len(answers) < len(reqs) {
		err = errShortBatch(len(answers), len(reqs))
	}
	return answers, err
}

// labelCleanRounds is the Label function of Algorithm 5 in bounded
// rounds: it point-labels the unsampled predicted objects, reusing the
// sample's labels, in rounds of min(max(1, tau - verified), budget
// headroom) queries — the confirmations still missing when the round
// is posted, narrowed to what the remaining budget affords — and
// commits the answers in predicted-set order. The walk mirrors the
// paper's one-at-a-time loop exactly: it stops at the first index
// where verified >= tau (marking the count a bound, not exact) and
// discards any in-flight answers past the stop, so the committed task
// count is both width-independent and equal to the loop's. A budget
// exhaustion commits the affordable prefix and reports exhausted.
func (e *classifierEngine) labelCleanRounds(predicted []dataset.ObjectID, sampled map[dataset.ObjectID]bool, truePos, tau int, g pattern.Group) (verified int, exactClean bool, tasks int, exhausted bool, err error) {
	verified = truePos
	exactClean = true
	var round [][]int // committed answers of the current round
	var roundIDs []dataset.ObjectID
	pos := 0 // next uncommitted answer within the round
	for i := 0; i < len(predicted); i++ {
		if verified >= tau {
			exactClean = false // stopped early: count is a bound
			return verified, exactClean, tasks, false, nil
		}
		id := predicted[i]
		if sampled[id] {
			continue
		}
		if pos >= len(roundIDs) {
			// Post the next round: the next max(1, tau - verified)
			// unsampled objects from position i onward, clipped to the
			// budget's point-query headroom (floored at one so an
			// exhausted budget surfaces as a refusal, not a spin).
			want := tau - verified
			if h := headroomOf(e.gov, HITPoint, 1); h < want {
				want = h
			}
			if want < 1 {
				want = 1
			}
			roundIDs = roundIDs[:0]
			for j := i; j < len(predicted) && len(roundIDs) < want; j++ {
				if !sampled[predicted[j]] {
					roundIDs = append(roundIDs, predicted[j])
				}
			}
			round, err = e.pointRound(roundIDs)
			if err != nil && !errors.Is(err, ErrBudgetExhausted) {
				return verified, exactClean, tasks, false, err
			}
			pos = 0
		}
		if pos >= len(round) {
			return verified, exactClean, tasks, true, nil // budget exhausted
		}
		labels := round[pos]
		pos++
		tasks++
		if g.Matches(labels) {
			verified++
		}
	}
	return verified, exactClean, tasks, false, nil
}

// partitionCleanRounds is the Partition function of Algorithm 5 in
// clipped rounds: the paper's FIFO queue drives the walk, but each
// iteration posts the front of the queue as one reverse-set round. The
// clip takes nodes until their cumulative size reaches stopAt -
// confirmed (posting more is pure speculation: were every posted node
// clean, the early stop would already fire) and never more queries
// than the budget's headroom affords, always at least one node. Commit
// semantics are the paper's, verbatim: a "no" confirms the range and
// may infer a task-free "yes" on its right sibling — wherever that
// sibling sits, in this round (its in-flight answer is discarded) or
// still unposted in the queue — a "yes" splits the range, isolating
// false positives in singletons, a committed walk reaching stopAt
// returns immediately discarding the rest of its round, and a full
// drain makes the confirmed count exact. Round composition depends
// only on committed answers, never on the pool width.
func (e *classifierEngine) partitionCleanRounds(predicted []dataset.ObjectID, n, stopAt int, g pattern.Group) (confirmed int, drained bool, tasks int, exhausted bool, err error) {
	if len(predicted) == 0 {
		return 0, true, 0, false, nil
	}
	q := newQueue()
	for i := 0; i < len(predicted); i += n {
		end := i + n
		if end > len(predicted) {
			end = len(predicted)
		}
		q.push(&node{b: i, e: end})
	}
	for !q.empty() {
		// Clip the round: enough front-of-queue nodes to reach the
		// remaining need if all confirm, within budget headroom.
		need := stopAt - confirmed
		room := headroomOf(e.gov, HITReverseSet, n)
		batch := make([]*node, 0, q.len())
		sum := 0
		for t := q.front(); t != nil; t = q.next(t) {
			batch = append(batch, t)
			sum += t.size()
			if sum >= need || len(batch) >= room {
				break
			}
		}
		sets := make([][]dataset.ObjectID, len(batch))
		for i, t := range batch {
			sets[i] = predicted[t.b:t.e]
		}
		answers, err := e.reverseRound(sets, g)
		if err != nil && !errors.Is(err, ErrBudgetExhausted) {
			return confirmed, false, tasks, false, err
		}

		for idx, t := range batch {
			if !t.inQueue {
				continue // answered for free by its left sibling
			}
			if idx >= len(answers) {
				// Budget exhausted: the walk stops at the first
				// uncommitted answer.
				return confirmed, false, tasks, true, nil
			}
			q.remove(t)
			hasFP := answers[idx]
			tasks++

		process:
			if !hasFP {
				// The whole range is verified members of g.
				confirmed += t.size()
				if confirmed >= stopAt {
					return confirmed, false, tasks, false, nil
				}
				// Sibling inference: our parent contains a false
				// positive and we contain none, so the right sibling
				// must.
				if t.parent != nil && t == t.parent.left {
					sib := t.parent.right
					if sib != nil && sib.inQueue {
						q.remove(sib)
						t = sib
						hasFP = true
						goto process
					}
				}
				continue
			}
			if t.size() == 1 {
				continue // isolated false positive: discard
			}
			mid := (t.b + t.e) / 2
			t.left = &node{b: t.b, e: mid, parent: t}
			t.right = &node{b: mid, e: t.e, parent: t}
			q.push(t.left)
			q.push(t.right)
		}
	}
	return confirmed, true, tasks, false, nil
}

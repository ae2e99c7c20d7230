package core

import (
	"context"
	"errors"
	"math/rand"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// This file is the paper reference: Algorithm 1 (Group-Coverage),
// Algorithm 2 (Multiple-Coverage) and Algorithm 4/5
// (Classifier-Coverage) as the one-query-at-a-time loops the paper
// specifies. Production runs every audit on the
// lockstep round engine; the equivalence suites and FuzzPartitionClean
// diff that engine against these loops at P in {1, 2, 4, 16}, which an
// order-independent oracle must reproduce byte for byte.

// labelSamples is the sampling phase of section 4 (Algorithm 6), one
// point query at a time: it draws up to k random objects with the
// same chooser (and RNG consumption) as LabelSamplesBatch, labels
// each, moves them into L, and returns the remaining ids.
func labelSamples(o Oracle, ids []dataset.ObjectID, k int, l *LabeledSet, rng *rand.Rand) (remaining []dataset.ObjectID, tasks int, err error) {
	if o == nil {
		return nil, 0, errNilOracleOrSet
	}
	sample, remaining, err := chooseSamples(ids, k, l, rng)
	if err != nil {
		return nil, 0, err
	}
	for _, id := range sample {
		labels, err := o.PointQuery(id)
		if err != nil {
			// The chosen-but-unlabeled suffix stays outside both L and
			// remaining; callers translating a budget exhaustion into a
			// partial result still get a valid (sample-free) remainder.
			return remaining, tasks, err
		}
		tasks++
		l.Add(id, labels)
	}
	return remaining, tasks, nil
}

// groupCoverageReference is Algorithm 1 verbatim: pop the FIFO queue
// one entry at a time, ask it, and commit its answer before asking the
// next. GroupCoverageOpt must reproduce it — verdict, count and tasks —
// whatever windows it posts.
func groupCoverageReference(o Oracle, ids []dataset.ObjectID, n, tau int, g pattern.Group, opts GroupCoverageOptions) (GroupResult, error) {
	res := GroupResult{Group: g}
	if n < 1 || tau < 0 {
		return GroupCoverageOpt(o, ids, n, tau, g, opts)
	}
	if tau == 0 {
		res.Covered = true
		return res, nil
	}
	if len(ids) == 0 {
		res.Exact = true
		return res, nil
	}

	q := newQueue()
	for i := 0; i < len(ids); i += n {
		q.push(&node{b: i, e: min(i+n, len(ids))})
	}
	cnt := 0
	for !q.empty() {
		t := q.pop()
		ans, err := o.SetQuery(ids[t.b:t.e], g)
		if err != nil {
			if errors.Is(err, ErrBudgetExhausted) {
				res.Count = cnt
				res.Exhausted = true
				return res, nil
			}
			return res, err
		}
		res.Tasks++
		if opts.Trace != nil {
			opts.Trace.record(t, ans, false)
		}
		if !ans {
			if t.parent == nil || opts.DisableSiblingInference {
				continue
			}
			sib := t.parent.right
			if t != t.parent.left || sib == nil || !sib.inQueue {
				continue
			}
			q.remove(sib)
			t = sib
			if opts.Trace != nil {
				opts.Trace.record(t, true, true)
			}
		}
		switch {
		case opts.CountSingletonsOnly:
			if t.size() == 1 {
				cnt++
			}
		case t.parent == nil, t.parent.checked:
			cnt++
		default:
			t.parent.checked = true
		}
		if cnt >= tau {
			res.Covered = true
			res.Count = cnt
			return res, nil
		}
		if t.size() > 1 {
			mid := (t.b + t.e) / 2
			t.left = &node{b: t.b, e: mid, parent: t}
			t.right = &node{b: mid, e: t.e, parent: t}
			q.push(t.left)
			q.push(t.right)
		}
	}
	res.Count = cnt
	res.Exact = true
	return res, nil
}

// multipleCoverageReference is Algorithm 2 verbatim: sample, aggregate,
// then audit the super-groups one after another, re-auditing the
// members of a covered multi-member super-group (line 8-12).
func multipleCoverageReference(o Oracle, ids []dataset.ObjectID, n, tau int, groups []pattern.Group, opts MultipleOptions) (*MultipleResult, error) {
	c, err := sampleFactor(o, n, tau, groups, opts)
	if err != nil {
		return nil, err
	}
	res := &MultipleResult{
		Results: make([]MultipleGroupResult, len(groups)),
		Labeled: NewLabeledSet(),
	}
	budget := c * tau
	if opts.NoSampling {
		budget = 0
	}
	ctx := opts.context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	remaining, sampleTasks, err := labelSamples(o, ids, budget, res.Labeled, opts.Rng)
	if err != nil {
		if errors.Is(err, ErrBudgetExhausted) {
			return settleSamplingExhausted(res, remaining, sampleTasks, groups, len(ids)), nil
		}
		return nil, err
	}
	res.RemainingIDs = remaining
	res.SampleTasks = sampleTasks

	plans := buildSuperPlans(res.Labeled, tau, groups, Aggregate(res.Labeled, len(ids), tau, groups, opts.Multi))
	for _, plan := range plans {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		gc, err := groupCoverageReference(o, remaining, n, plan.tauPrime, plan.union, GroupCoverageOptions{})
		if err != nil {
			return nil, err
		}
		subs := make([]GroupResult, 0, len(plan.members))
		if len(plan.members) > 1 && gc.Covered {
			for _, gi := range plan.members {
				g := groups[gi]
				sub, err := groupCoverageReference(o, remaining, n, clampTau(tau-res.Labeled.Count(g)), g, GroupCoverageOptions{})
				if err != nil {
					return nil, err
				}
				subs = append(subs, sub)
			}
		}
		settleSuper(res, plan, gc, subs, groups, len(ids))
	}
	res.Tasks = res.SampleTasks + res.AuditTasks
	return res, nil
}

// classifierCoverageReference is Algorithm 4 with the Partition and
// Label functions of Algorithm 5 as one-query-at-a-time loops.
// Validation and the no-prediction fallback are shared with
// ClassifierCoverage.
func classifierCoverageReference(o Oracle, ids, predicted []dataset.ObjectID, n, tau int, g pattern.Group, opts ClassifierOptions) (ClassifierResult, error) {
	inPredicted, err := classifierInputs(o, ids, predicted, n, tau, &opts)
	if err != nil || len(predicted) == 0 {
		return ClassifierCoverage(o, ids, predicted, n, tau, g, opts)
	}
	res := ClassifierResult{Group: g, Strategy: StrategyNone}

	// Line 2-3: estimate precision on a sample of G.
	sampleSize := sampleBudget(opts.SampleFraction, len(predicted))
	sampled := make(map[dataset.ObjectID]bool, sampleSize)
	truePos := 0
	for _, idx := range opts.Rng.Perm(len(predicted))[:sampleSize] {
		id := predicted[idx]
		labels, err := o.PointQuery(id)
		if err != nil {
			if errors.Is(err, ErrBudgetExhausted) {
				return classifierExhausted(res, truePos, tau), nil
			}
			return res, err
		}
		res.SampleTasks++
		sampled[id] = true
		if g.Matches(labels) {
			truePos++
		}
	}
	res.EstFPRate = 1 - float64(truePos)/float64(sampleSize)

	// Line 4-5: eliminate false positives.
	verified := 0
	var exactClean bool
	if res.EstFPRate < opts.FPRateThreshold {
		res.Strategy = StrategyPartition
		confirmed, drained, tasks, err := partitionClean(o, predicted, n, tau, g)
		res.CleanupTasks = tasks
		if err != nil {
			if errors.Is(err, ErrBudgetExhausted) {
				return classifierExhausted(res, confirmed, tau), nil
			}
			return res, err
		}
		verified = confirmed
		exactClean = drained
	} else {
		res.Strategy = StrategyLabel
		// Algorithm 5 Label: point-label G, reusing the sample's
		// labels, stopping early at tau verified members.
		verified = truePos
		exactClean = true
		for _, id := range predicted {
			if verified >= tau {
				exactClean = false // stopped early: count is a bound
				break
			}
			if sampled[id] {
				continue
			}
			labels, err := o.PointQuery(id)
			if err != nil {
				if errors.Is(err, ErrBudgetExhausted) {
					return classifierExhausted(res, verified, tau), nil
				}
				return res, err
			}
			res.CleanupTasks++
			if g.Matches(labels) {
				verified++
			}
		}
	}

	return classifierFinish(opts.context(), o, opts.Parallelism, ids, inPredicted, n, tau, verified, exactClean, g, res)
}

// partitionClean is the Partition function of Algorithm 5 one query at
// a time: it verifies the predicted-positive set with
// divide-and-conquer reverse set queries ("is anyone here NOT in g?").
// A "no" confirms the whole subset as genuine members; a "yes" splits
// it, isolating false positives in singletons. A "no" on a left child
// implies — task-free — a "yes" on its right sibling. It stops early
// once stopAt members are confirmed, and reports whether it drained
// the whole set (making the confirmed count exact).
func partitionClean(o Oracle, predicted []dataset.ObjectID, n, stopAt int, g pattern.Group) (confirmed int, drained bool, tasks int, err error) {
	if len(predicted) == 0 {
		return 0, true, 0, nil
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
		t := q.pop()
		hasFP, err := o.ReverseSetQuery(predicted[t.b:t.e], g)
		if err != nil {
			return confirmed, false, tasks, err
		}
		tasks++

	process:
		if !hasFP {
			// The whole range is verified members of g.
			confirmed += t.size()
			if confirmed >= stopAt {
				return confirmed, false, tasks, nil
			}
			// Sibling inference, mirrored: our parent contains a false
			// positive and we contain none, so the right sibling must.
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
	return confirmed, true, tasks, nil
}

// classifierRounds builds the production round engine over a plain
// oracle at the given width, for tests that drive one phase directly.
func classifierRounds(o Oracle, width int) *classifierEngine {
	return &classifierEngine{bo: AsBatchOracle(o, width), ctx: context.Background()}
}

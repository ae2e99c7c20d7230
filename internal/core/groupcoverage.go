package core

import (
	"errors"
	"fmt"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// GroupResult reports the outcome of auditing one group.
type GroupResult struct {
	// Group is the audited group.
	Group pattern.Group
	// Covered is true when at least Tau objects of the group were
	// established to exist.
	Covered bool
	// Count is the discovered lower bound on |g|. When Covered is
	// false and Exact is true it equals |g| exactly (the algorithm has
	// examined the entire search space).
	Count int
	// Exact marks Count as the exact group size.
	Exact bool
	// Exhausted marks an audit a budget governor stopped early: the
	// verdict is undecided (Covered false, Exact false) and Count is
	// the lower bound proven by the queries that did commit. See
	// Budget.
	Exhausted bool
	// Tasks is the number of crowd tasks this audit issued.
	Tasks int
}

// String implements fmt.Stringer.
func (r GroupResult) String() string {
	verdict := "uncovered"
	if r.Covered {
		verdict = "covered"
	}
	if r.Exhausted {
		verdict = "undecided (budget exhausted)"
	}
	exact := ""
	if r.Exact {
		exact = " (exact)"
	}
	return fmt.Sprintf("%s: %s, count>=%d%s, %d tasks", r.Group, verdict, r.Count, exact, r.Tasks)
}

// GroupCoverageOptions toggles individual design choices of
// Algorithm 1 for ablation studies. The zero value is the full
// algorithm as published.
type GroupCoverageOptions struct {
	// DisableSiblingInference issues a real task for a right sibling
	// whose "yes" answer is logically implied (parent yes, left
	// sibling no), instead of claiming it for free.
	DisableSiblingInference bool
	// CountSingletonsOnly replaces the checked-based lower bound with
	// naive counting: only singleton "yes" queries (definite
	// individuals) increment the count, forcing full drill-downs.
	CountSingletonsOnly bool
	// Trace, when non-nil, records the execution tree (every asked or
	// inferred set query) for visualization and debugging.
	Trace *ExecutionTrace
}

// GroupCoverage is Algorithm 1: it decides whether group g is covered
// (has at least tau members) among the objects ids, issuing set
// queries of at most n objects.
//
// The dataset is partitioned into ceil(N/n) subsets, each the root of
// a binary tree of set queries. A "no" answer prunes its subtree; a
// "no" on a left child additionally implies — for free, without a
// task — a "yes" on its right sibling, because their parent answered
// "yes". Disjoint "yes" sets lower-bound |g|, and the audit stops as
// soon as the bound reaches tau. If the queue drains first, every
// group member has been isolated in a singleton query, so the final
// count is exact and below tau.
//
// The worst case issues Theta(N/n + tau*log n) tasks (Theorem 3.2 and
// Lemma 3.3), a small additive overhead on the N/n lower bound any
// correct algorithm needs.
func GroupCoverage(o Oracle, ids []dataset.ObjectID, n, tau int, g pattern.Group) (GroupResult, error) {
	return GroupCoverageOpt(o, ids, n, tau, g, GroupCoverageOptions{})
}

// GroupCoverageOpt is GroupCoverage with ablation options; see
// GroupCoverageOptions.
func GroupCoverageOpt(o Oracle, ids []dataset.ObjectID, n, tau int, g pattern.Group, opts GroupCoverageOptions) (GroupResult, error) {
	res := GroupResult{Group: g}
	if o == nil {
		return res, errors.New("core: nil oracle")
	}
	if n < 1 {
		return res, fmt.Errorf("core: set size bound n=%d, need >= 1", n)
	}
	if tau < 0 {
		return res, fmt.Errorf("core: coverage threshold tau=%d, need >= 0", tau)
	}
	if tau == 0 {
		// Zero members suffice: trivially covered at no cost.
		res.Covered = true
		return res, nil
	}
	if len(ids) == 0 {
		res.Exact = true
		return res, nil
	}

	q := newQueue()
	for i := 0; i < len(ids); i += n {
		end := i + n
		if end > len(ids) {
			end = len(ids)
		}
		q.push(&node{b: i, e: end})
	}

	// The loop commits answers in queue order, one window at a time.
	// A window is the FIFO prefix the paper's loop is certain to pop
	// next whatever the answers: at most tau - cnt entries, since one
	// committed answer raises cnt by at most 1, and never past a right
	// child whose left sibling is still unanswered, since that left
	// sibling's "no" would remove it. Under these rules no posted HIT
	// is ever discarded, and the committed tasks equal the paper's
	// loop. Only the lockstep facade posts windows longer than one.
	win, limit := windowOracle(&oneQueryWindow{o: o}), 1
	if wo, ok := o.(windowOracle); ok {
		win, limit = wo, tau
	}
	var reqs []SetRequest
	cnt := 0
	for !q.empty() {
		reqs = reqs[:0]
		for t := q.front(); t != nil && len(reqs) < min(tau-cnt, limit); t = q.next(t) {
			if !opts.DisableSiblingInference && t.parent != nil && t == t.parent.right && t.parent.left.inQueue {
				break
			}
			reqs = append(reqs, SetRequest{IDs: ids[t.b:t.e], Group: g})
		}
		answers, err := win.setWindow(reqs)
		for _, ans := range answers {
			t := q.pop()
			res.Tasks++
			if opts.Trace != nil {
				opts.Trace.record(t, ans, false)
			}
			if !ans {
				// Prune the subtree (lines 9, 11). For a left child,
				// the right sibling must answer yes (the parent did),
				// so claim that answer without issuing a task (lines
				// 12-13) — unless the ablation disables the inference.
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
			// t answered (or is implied to answer) yes.
			switch {
			case opts.CountSingletonsOnly:
				// Ablation: only definite individuals count.
				if t.size() == 1 {
					cnt++
				}
			case t.parent == nil:
				cnt++
			case t.parent.checked:
				// Lines 14-15: the parent already contributed one
				// member to the bound; a second yes-child proves
				// another.
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
		if err != nil {
			if errors.Is(err, ErrBudgetExhausted) {
				// A budget cap is a configured stopping rule, not a
				// failure: report the bound proven so far undecided.
				res.Count = cnt
				res.Exhausted = true
				return res, nil
			}
			return res, err
		}
	}
	// Queue drained below tau: every yes reached a singleton, so cnt
	// is the exact group size (Lemma 3.1).
	res.Count = cnt
	res.Exact = true
	return res, nil
}

// oneQueryWindow posts a window's first entry alone, as one SetQuery:
// the windows of one Group-Coverage uses over any oracle but the
// lockstep facade.
type oneQueryWindow struct {
	o   Oracle
	ans [1]bool
}

// setWindow implements windowOracle.
func (w *oneQueryWindow) setWindow(reqs []SetRequest) ([]bool, error) {
	ans, err := w.o.SetQuery(reqs[0].IDs, reqs[0].Group)
	if err != nil {
		return nil, err
	}
	w.ans[0] = ans
	return w.ans[:], nil
}

// BaseCoverage is Algorithm 7, the baseline the paper compares
// against: label objects one by one with point queries until tau group
// members are found or the data runs out.
func BaseCoverage(o Oracle, ids []dataset.ObjectID, tau int, g pattern.Group) (GroupResult, error) {
	res := GroupResult{Group: g}
	if o == nil {
		return res, errors.New("core: nil oracle")
	}
	if tau < 0 {
		return res, fmt.Errorf("core: coverage threshold tau=%d, need >= 0", tau)
	}
	if tau == 0 {
		res.Covered = true
		return res, nil
	}
	cnt := 0
	for _, id := range ids {
		labels, err := o.PointQuery(id)
		if err != nil {
			if errors.Is(err, ErrBudgetExhausted) {
				res.Count = cnt
				res.Exhausted = true
				return res, nil
			}
			return res, err
		}
		res.Tasks++
		if g.Matches(labels) {
			cnt++
			if cnt >= tau {
				res.Covered = true
				res.Count = cnt
				return res, nil
			}
		}
	}
	res.Count = cnt
	res.Exact = true
	return res, nil
}

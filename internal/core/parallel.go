package core

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"imagecvg/internal/dataset"
)

// This file holds the pool helpers of the audit engine: the width
// normalization every layer shares, the bounded worker pool that lifts
// non-batching oracles (batchAdapter) and fans experiment trials out,
// the deterministic child-seed split, and the batched sampling phase.
// The audits themselves run on the lockstep scheduler (lockstep.go);
// Parallelism never selects an engine, it only sizes these pools.

// normalizeParallelism maps non-positive pool widths to 1: "no
// parallelism requested" always means a single worker, never a hidden
// default width.
func normalizeParallelism(parallelism int) int {
	if parallelism < 1 {
		return 1
	}
	return parallelism
}

// RunBounded runs fn(i) for every index in [0, n) across at most
// parallelism goroutines and returns the lowest-indexed error. Once a
// task fails, tasks with HIGHER indices are no longer dispatched —
// every query costs crowd money, so a doomed round must not keep
// posting HITs a one-at-a-time walk would never pay for — but tasks
// with lower indices still run: they might fail at a lower index, and
// a one-at-a-time walk would have paid for them anyway. When each
// task's failure is a function of its own index (not of shared
// call-order state), the surfaced error is therefore deterministic
// under any scheduling: the lowest failing index. batchAdapter lifts a
// round's requests through it; the experiment harness and the audit
// service reuse it to fan independent trials and jobs out across
// workers.
func RunBounded(parallelism, n int, fn func(i int) error) error {
	_, err := runBounded(parallelism, n, fn)
	return err
}

// runBounded is RunBounded that also returns the lowest failing index,
// n when no task fails. Every task below that index ran and succeeded,
// so a lifted round's answers below it are a committed prefix.
func runBounded(parallelism, n int, fn func(i int) error) (int, error) {
	if n == 0 {
		return 0, nil
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return i, err
			}
		}
		return n, nil
	}
	errs := make([]error, n)
	// minFailed is the lowest failing index observed so far; only
	// tasks above it are skipped.
	var minFailed atomic.Int64
	minFailed.Store(int64(n))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if int64(i) > minFailed.Load() {
					continue
				}
				if errs[i] = fn(i); errs[i] != nil {
					for {
						cur := minFailed.Load()
						if int64(i) >= cur || minFailed.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return n, nil
}

// LabelSamplesBatch is the sampling phase of section 4 (Algorithm 6)
// issued as one batched oracle round: it draws up to k random objects,
// labels them through a single PointQueryBatch call — so a crowd
// deployment posts all c*tau sampling HITs together — moves them into
// the labeled set L, and returns the remaining ids (order preserved).
// The paper uses k = c*tau with c = 2: enough point queries to confirm
// majority groups outright while estimating the frequencies of the
// minorities.
func LabelSamplesBatch(o BatchOracle, ids []dataset.ObjectID, k int, l *LabeledSet, rng *rand.Rand) (remaining []dataset.ObjectID, tasks int, err error) {
	if o == nil {
		return nil, 0, errNilOracleOrSet
	}
	batch, remaining, err := chooseSamples(ids, k, l, rng)
	if err != nil {
		return nil, 0, err
	}
	labels, err := o.PointQueryBatch(batch)
	// A partial-prefix batch (budget governor) committed — and paid —
	// the first len(labels) queries: fold them into L so the partial
	// result keeps every answered HIT, then surface the error.
	for i := 0; i < len(labels) && i < len(batch); i++ {
		l.Add(batch[i], labels[i])
	}
	if err != nil {
		return remaining, len(labels), err
	}
	return remaining, len(batch), nil
}

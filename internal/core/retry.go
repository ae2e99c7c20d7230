package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// RetryPolicy re-posts transiently failing HITs, the way a deployment
// handles expired or rejected assignments, instead of aborting a whole
// multi-group audit on one bad task. The zero value disables retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per query; values <= 1
	// mean a single attempt (no retry).
	MaxAttempts int
	// Backoff scales the wait between attempts: before retry k the
	// engine sleeps Backoff * (0.5 + jitter) where jitter in [0, 1) is
	// drawn from a private RNG with a fixed seed, never from the
	// audit's Rng. Zero sleeps not at all (tests).
	Backoff time.Duration
}

// Enabled reports whether the policy actually retries.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// retryOracle wraps an oracle with the retry policy. Jitter draws
// take the wrapper's lock; they only scale backoff sleeps, never
// answers.
//
// retryOracle is itself a BatchOracle: over a natively batching inner
// oracle a transient failure re-posts only the unanswered suffix of
// the round and splices the answers onto the committed prefix — a
// prefix a budget governor already admitted and charged stays
// committed and is never re-posted, so a retried round never
// double-charges (and preserves the inner's request-order determinism,
// since the committed prefix plus re-posted suffix replays the same
// request sequence). Over a plain oracle each request retries
// individually across a pool of the audit's width.
type retryOracle struct {
	inner  Oracle
	policy RetryPolicy
	width  int

	mu  sync.Mutex // guards ctx and rng
	ctx context.Context
	rng *rand.Rand
}

// fixedJitterSeed seeds the retry jitter. Jitter only scales sleeps,
// so a fixed seed costs nothing, and it keeps the audit's Rng stream
// the same with or without retries.
const fixedJitterSeed = 1

// withRetry wraps o with the policy; Stack.Build calls it when the
// policy is enabled. The context bounds the backoff waits: a cancelled
// ctx aborts a sleeping retry immediately with ctx.Err() instead of
// posting another attempt. parallelism sizes the pool that retries a
// plain oracle's requests one by one.
func withRetry(ctx context.Context, o Oracle, policy RetryPolicy, parallelism int) *retryOracle {
	r := &retryOracle{
		inner:  o,
		policy: policy,
		width:  normalizeParallelism(parallelism),
		rng:    rand.New(rand.NewSource(fixedJitterSeed)),
	}
	r.setContext(ctx)
	return r
}

// setContext installs the context that bounds backoff waits; nil means
// context.Background().
func (r *retryOracle) setContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	r.mu.Lock()
	r.ctx = ctx
	r.mu.Unlock()
}

// do runs fn up to MaxAttempts times, backing off with jitter between
// attempts, and keeps only transient failures retryable. The backoff
// selects on the context, so a cancelled job stops promptly instead of
// sleeping through its backoff and posting another attempt.
func (r *retryOracle) do(fn func() error) error {
	var err error
	for attempt := 0; attempt < r.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			r.mu.Lock()
			ctx, jitter := r.ctx, 0.5+r.rng.Float64()
			r.mu.Unlock()
			if d := time.Duration(float64(r.policy.Backoff) * jitter); d > 0 {
				timer := time.NewTimer(d)
				select {
				case <-ctx.Done():
					timer.Stop()
					return ctx.Err()
				case <-timer.C:
				}
			}
			if e := ctx.Err(); e != nil {
				return e
			}
		}
		if err = fn(); err == nil || !errors.Is(err, ErrTransient) {
			return err
		}
	}
	return err
}

// retryOne runs one single query under the policy.
func retryOne[T any](r *retryOracle, query func() (T, error)) (T, error) {
	var v T
	err := r.do(func() (e error) {
		v, e = query()
		return e
	})
	return v, err
}

// SetQuery implements Oracle.
func (r *retryOracle) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return retryOne(r, func() (bool, error) { return r.inner.SetQuery(ids, g) })
}

// ReverseSetQuery implements Oracle.
func (r *retryOracle) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return retryOne(r, func() (bool, error) { return r.inner.ReverseSetQuery(ids, g) })
}

// PointQuery implements Oracle.
func (r *retryOracle) PointQuery(id dataset.ObjectID) ([]int, error) {
	return retryOne(r, func() ([]int, error) { return r.inner.PointQuery(id) })
}

// retrySuffix retries one native round of n requests; suffix(from)
// posts requests [from, n). Each attempt re-posts only the suffix the
// previous attempts left unanswered: a partial prefix the inner batch
// committed (and a budget governor charged) splices into the
// accumulated answers instead of being posted — and paid — again.
func retrySuffix[T any](r *retryOracle, n int, suffix func(from int) ([]T, error)) ([]T, error) {
	var answers []T
	err := r.do(func() error {
		part, e := suffix(len(answers))
		if rest := n - len(answers); len(part) > rest {
			part = part[:rest]
		}
		answers = append(answers, part...)
		if e == nil && len(answers) < n {
			// A short answer slice without an error breaks the
			// BatchOracle contract; surface it rather than retry.
			return errShortBatch(len(answers), n)
		}
		return e
	})
	if err != nil && len(answers) == 0 {
		return nil, err
	}
	return answers, err
}

// SetQueryBatch implements BatchOracle; see the type comment for the
// native-vs-lifted retry semantics.
func (r *retryOracle) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	if bo, ok := r.inner.(BatchOracle); ok {
		return retrySuffix(r, len(reqs), func(from int) ([]bool, error) { return bo.SetQueryBatch(reqs[from:]) })
	}
	return NewBatchAdapter(r, r.width).SetQueryBatch(reqs)
}

// PointQueryBatch implements BatchOracle; see SetQueryBatch.
func (r *retryOracle) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	if bo, ok := r.inner.(BatchOracle); ok {
		return retrySuffix(r, len(ids), func(from int) ([][]int, error) { return bo.PointQueryBatch(ids[from:]) })
	}
	return NewBatchAdapter(r, r.width).PointQueryBatch(ids)
}

// errShortBatch reports a batch that returned fewer answers than
// requests without an error — a contract violation, not a transient
// failure, so do never retries it.
func errShortBatch(got, want int) error {
	return fmt.Errorf("core: batch returned %d of %d answers with nil error", got, want)
}

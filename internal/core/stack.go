package core

import (
	"context"
	"errors"
	"fmt"
)

// Stack declares the middleware an audit's oracle runs behind; Build
// is the only place an oracle is wrapped. It assembles the one legal
// order,
//
//	retry → cache → trust → journal → governor → leaf
//
// whatever order the fields were set in: the governor sits directly
// over the leaf, so it charges real HITs and every cache hit above it
// is free; the journal sits above the governor, whose ledger it
// snapshots per round and restores on replay; trust sits above the
// journal, so probe-augmented rounds are journaled and a resumed audit
// re-issues identical probes; the cache sits above trust, where a
// replayed round re-fills it deterministically; retry sits on top,
// below the audit's lockstep scheduler, so a transient HIT is
// re-posted inside its round instead of failing every task parked in
// it. The zero value has no layers.
type Stack struct {
	// Budget, when non-nil, puts a BudgetedOracle governor over the
	// leaf. An inactive budget still counts spend.
	Budget *Budget
	// Journal and Replay, when either is non-nil, put a
	// JournalingOracle over the governor: live rounds are appended to
	// Journal (nil records nothing) and the Replay records of an
	// earlier run answer the first rounds.
	Journal RoundJournal
	Replay  []RoundRecord
	// Trust, when non-nil, puts a TrustOracle over the journal.
	Trust *TrustConfig
	// Cache puts a CachingOracle over trust.
	Cache bool
	// Retry, when enabled, puts the retry wrapper on top: a transient
	// failure re-posts only the part of the round left unanswered
	// below; over a bare plain leaf each request retries on its own.
	// Backoff jitter draws from a fixed seed, never from an audit's
	// Rng.
	Retry RetryPolicy
	// Parallelism is the width of the pool that lifts a leaf without
	// native batching (values <= 1 mean width 1).
	Parallelism int
	// Ctx cancels the journal's rounds (see JournalingOracle.SetContext)
	// and the retry backoff waits; nil means context.Background().
	Ctx context.Context
}

// Layers is a built Stack: Top is the oracle audits query through, and
// each layer handle is nil when the Stack did not ask for that layer.
// Pass Budget to ClassifierOptions.Governor so the classifier narrows
// its rounds to the remaining headroom.
type Layers struct {
	Top     Oracle
	Cache   *CachingOracle
	Trust   *TrustOracle
	Journal *JournalingOracle
	Budget  *BudgetedOracle

	retry *retryOracle
}

// SetContext replaces the context the built stack checks: the
// journal's per-round check and the retry backoff waits.
func (l Layers) SetContext(ctx context.Context) {
	if l.Journal != nil {
		l.Journal.SetContext(ctx)
	}
	if l.retry != nil {
		l.retry.setContext(ctx)
	}
}

// Build assembles the stack over leaf. Below retry, a leaf without
// native batching is lifted once, at the bottom, across Parallelism
// goroutines, and every layer above talks to the one below only
// through batches; retry alone wraps the leaf as given. A stack with
// no layers returns the leaf as given. The journal records the leaf's
// transcript tag (TranscriptTagger) on round 0. Build fails for a nil
// leaf under some layer, an invalid trust configuration, or, with
// ErrTranscriptTag, Replay records from a journal recorded under a tag
// other than the leaf's.
func (s Stack) Build(leaf Oracle) (Layers, error) {
	l := Layers{Top: leaf}
	batched := s.Budget != nil || s.Journal != nil || s.Replay != nil || s.Trust != nil || s.Cache
	if !batched && !s.Retry.Enabled() {
		return l, nil
	}
	if leaf == nil {
		return Layers{}, errors.New("core: nil oracle")
	}
	if batched {
		bo := AsBatchOracle(leaf, s.Parallelism)
		if s.Budget != nil {
			l.Budget = NewBudgetedOracle(bo, *s.Budget)
			bo = l.Budget
		}
		if s.Journal != nil || s.Replay != nil {
			tag := transcriptTag(leaf)
			if len(s.Replay) > 0 && s.Replay[0].Transcript != tag {
				return Layers{}, fmt.Errorf("%w: journal %q, oracle %q", ErrTranscriptTag, s.Replay[0].Transcript, tag)
			}
			l.Journal = NewJournalingOracle(bo, s.Journal, s.Replay, l.Budget).SetContext(s.Ctx)
			l.Journal.tag = tag
			bo = l.Journal
		}
		if s.Trust != nil {
			t, err := NewTrustOracle(bo, *s.Trust)
			if err != nil {
				return Layers{}, err
			}
			l.Trust = t
			bo = t
		}
		if s.Cache {
			l.Cache = NewCachingOracle(bo)
			bo = l.Cache
		}
		l.Top = bo
	}
	if s.Retry.Enabled() {
		l.retry = withRetry(s.Ctx, l.Top, s.Retry, s.Parallelism)
		l.Top = l.retry
	}
	return l, nil
}

package core

import (
	"context"
	"errors"
)

// Stack declares the middleware an audit's oracle runs behind. Build
// assembles the one legal order,
//
//	cache → trust → journal → governor → leaf
//
// whatever order the fields were set in: the governor sits directly
// over the leaf, so it charges real HITs and every cache hit above it
// is free; the journal sits above the governor, whose ledger it
// snapshots per round and restores on replay; trust sits above the
// journal, so probe-augmented rounds are journaled and a resumed audit
// re-issues identical probes; the cache sits on top, where a replayed
// round re-fills it deterministically. The zero value has no layers.
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
	// Cache puts a CachingOracle on top.
	Cache bool
	// Parallelism is the width of the pool that lifts a leaf without
	// native batching (values <= 1 mean width 1).
	Parallelism int
	// Ctx cancels the journal's rounds (see JournalingOracle.SetContext);
	// nil means context.Background().
	Ctx context.Context
}

// Layers is a built Stack: Top is the oracle audits query through, and
// each layer handle is nil when the Stack did not ask for that layer.
type Layers struct {
	Top     Oracle
	Cache   *CachingOracle
	Trust   *TrustOracle
	Journal *JournalingOracle
	Budget  *BudgetedOracle
}

// empty reports whether the stack asks for no layer at all.
func (s Stack) empty() bool {
	return s.Budget == nil && s.Journal == nil && s.Replay == nil && s.Trust == nil && !s.Cache
}

// Build assembles the stack over leaf. A leaf without native batching
// is lifted once, at the bottom, across Parallelism goroutines; every
// layer above talks to the one below only through batches. A stack
// with no layers returns the leaf as given. Build fails only for a nil
// leaf under some layer or an invalid trust configuration.
func (s Stack) Build(leaf Oracle) (Layers, error) {
	if s.empty() {
		return Layers{Top: leaf}, nil
	}
	if leaf == nil {
		return Layers{}, errors.New("core: nil oracle")
	}
	var l Layers
	bo := AsBatchOracle(leaf, s.Parallelism)
	if s.Budget != nil {
		l.Budget = NewBudgetedOracle(bo, *s.Budget)
		bo = l.Budget
	}
	if s.Journal != nil || s.Replay != nil {
		l.Journal = NewJournalingOracle(bo, s.Journal, s.Replay, l.Budget).SetContext(s.Ctx)
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
	return l, nil
}

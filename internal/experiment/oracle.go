package experiment

import (
	"imagecvg/internal/core"
)

// Factory builds the oracle one trial audits through. A nil factory
// means the trial body constructs its own oracle (the common case
// when every trial generates its own dataset).
type Factory func(t Trial) (core.Oracle, error)

// SharedCache returns a factory that hands every trial of a config
// the SAME deduplicating CachingOracle over inner, plus the cache for
// inspecting hit/miss statistics. Repeated HITs — identical set or
// point queries re-issued by later trials, or by sibling cells
// sweeping an engine knob over the same dataset — are paid for once.
// This is only sound when the trials share the dataset behind inner;
// trials that regenerate their data must build fresh oracles instead.
// The cache is safe for concurrent trials when inner is. A nil inner
// fails every trial.
func SharedCache(inner core.Oracle) (Factory, *core.CachingOracle) {
	l, err := core.Stack{Cache: true}.Build(inner)
	return func(Trial) (core.Oracle, error) { return l.Top, err }, l.Cache
}

// PerTrial adapts a per-trial oracle builder into a Factory, for
// configs whose trials need fresh oracles constructed from the trial
// seed (e.g. one simulated crowd deployment per trial).
func PerTrial(build func(t Trial) (core.Oracle, error)) Factory {
	return build
}

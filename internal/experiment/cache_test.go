package experiment

import (
	"math/rand"
	"reflect"
	"testing"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// cachedAuditConfig builds the cross-trial amortization scenario the
// ROADMAP called out: one fixed dataset audited repeatedly (think
// several stakeholders re-running the same audit), every trial going
// through one SharedCache. The audit RNG is fixed per cell — the
// re-audit asks the same questions — so later trials should hit.
func cachedAuditConfig(t *testing.T, trials, parallelism int) (Config, *core.CachingOracle, []pattern.Group, *dataset.Dataset) {
	t.Helper()
	s := pattern.MustSchema(pattern.Attribute{
		Name: "group", Values: []string{"g0", "g1", "g2", "g3"},
	})
	d, err := dataset.FromCounts(s, []int{1960, 14, 14, 12}, rand.New(rand.NewSource(301)))
	if err != nil {
		t.Fatal(err)
	}
	factory, cache := SharedCache(core.NewTruthOracle(d))
	cfg := Config{
		Name:        "cached-audit",
		Seed:        302,
		Trials:      trials,
		Parallelism: parallelism,
		Oracle:      factory,
	}
	return cfg, cache, pattern.GroupsForAttribute(s, 0), d
}

// TestCrossTrialCacheAmortization: with one shared CachingOracle,
// every trial after the first must issue STRICTLY fewer real oracle
// tasks (cache misses) than trial 1, and the cumulative hit count
// must grow monotonically trial over trial.
func TestCrossTrialCacheAmortization(t *testing.T) {
	const trials = 4
	cfg, cache, groups, d := cachedAuditConfig(t, trials, 1)
	// Cumulative cache snapshots, taken as each trial ends (exact at
	// Parallelism 1, where trials run one after another).
	snaps := make([]core.CacheStats, trials)
	res, err := Run(cfg, func(tr Trial) (int, error) {
		// Fixed audit seed: each trial re-runs the same audit.
		mres, err := core.MultipleCoverage(tr.Oracle, d.IDs(), 50, 50, groups,
			core.MultipleOptions{Rng: rand.New(rand.NewSource(cfg.Seed))})
		if err != nil {
			return 0, err
		}
		snaps[tr.Index] = cache.Stats()
		return mres.Tasks, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Per-trial misses from consecutive cumulative snapshots.
	prev := core.CacheStats{}
	var misses, hits []int
	for _, snap := range snaps {
		misses = append(misses, snap.Misses.Total()-prev.Misses.Total())
		hits = append(hits, snap.Hits.Total())
		prev = snap
	}
	if misses[0] == 0 {
		t.Fatal("trial 1 should pay real oracle tasks")
	}
	for i := 1; i < trials; i++ {
		if misses[i] >= misses[0] {
			t.Errorf("trial %d issued %d oracle tasks, want strictly fewer than trial 1's %d",
				i+1, misses[i], misses[0])
		}
		if hits[i] <= hits[i-1] {
			t.Errorf("cumulative hits fell from %d to %d at trial %d", hits[i-1], hits[i], i+1)
		}
	}
	// The final tally must agree with the shared cache itself.
	if got := cache.Stats(); got != snaps[trials-1] {
		t.Errorf("final snapshot %+v != cache stats %+v", snaps[trials-1], got)
	}
	// Every re-audit sees the same answers, so reported task counts
	// (which the cache serves for free) are identical across trials.
	if vals := res.Values(); !reflect.DeepEqual(vals, []int{vals[0], vals[0], vals[0], vals[0]}) {
		t.Errorf("re-audit task counts diverged: %v", vals)
	}
}

// TestCrossTrialCacheParallelTrials: under parallel trials the shared
// cache stays consistent — the trials' rounds take turns on the cache,
// so a key is paid once and total misses equal one full audit's
// queries.
func TestCrossTrialCacheParallelTrials(t *testing.T) {
	const trials = 6
	// Sequential baseline measures one audit's query count.
	seqCfg, seqCache, groups, d := cachedAuditConfig(t, 1, 1)
	_, err := Run(seqCfg, func(tr Trial) (int, error) {
		mres, err := core.MultipleCoverage(tr.Oracle, d.IDs(), 50, 50, groups,
			core.MultipleOptions{Rng: rand.New(rand.NewSource(seqCfg.Seed))})
		if err != nil {
			return 0, err
		}
		return mres.Tasks, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	oneAudit := seqCache.Stats().Misses.Total()

	cfg, cache, groups, d := cachedAuditConfig(t, trials, 4)
	if _, err := Run(cfg, func(tr Trial) (int, error) {
		mres, err := core.MultipleCoverage(tr.Oracle, d.IDs(), 50, 50, groups,
			core.MultipleOptions{Rng: rand.New(rand.NewSource(cfg.Seed))})
		if err != nil {
			return 0, err
		}
		return mres.Tasks, nil
	}); err != nil {
		t.Fatal(err)
	}
	stats := cache.Stats()
	if got := stats.Misses.Total(); got != oneAudit {
		t.Errorf("parallel re-audits paid %d oracle tasks, want exactly one audit's %d", got, oneAudit)
	}
	if stats.Hits.Total() == 0 {
		t.Error("parallel re-audits never hit the cache")
	}
	if rate := stats.HitRate(); rate < 0.5 {
		t.Errorf("hit rate %.2f, want most queries amortized", rate)
	}
}

package sim

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/journal"
	"imagecvg/internal/pattern"
)

// TestJournalOverheadPassthrough: on the lockstep Multiple-Coverage
// workload, a fresh audit through the journaling stack backed by the
// fsynced file codec commits exactly the bare stack's result and task
// count, and actually journals rounds — the journal is a passthrough
// for a fresh run, whatever the engine's batch-lifting width.
func TestJournalOverheadPassthrough(t *testing.T) {
	s := oneAttrSchema(4)
	groups := pattern.GroupsForAttribute(s, 0)
	counts := buildCounts(4, 2_000, []int{30, 28, 26})
	const setSize, tau, parallelism = 25, 50, 4

	for trial := int64(0); trial < 2; trial++ {
		audit := func(o core.Oracle) (string, int) {
			d := dataset.MustFromCounts(s, counts, rand.New(rand.NewSource(42+trial)))
			if o == nil {
				o = core.NewTruthOracle(d)
			}
			res, err := core.MultipleCoverage(o, d.IDs(), setSize, tau, groups,
				core.MultipleOptions{Rng: rand.New(rand.NewSource(7 + trial)), Parallelism: parallelism})
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%+v|%+v|%+v", res.Results, res.SuperAudits, res.RemainingIDs), res.Tasks
		}
		bare, bareTasks := audit(nil)

		jnl, err := journal.Create(filepath.Join(t.TempDir(), "audit.jnl"))
		if err != nil {
			t.Fatal(err)
		}
		d := dataset.MustFromCounts(s, counts, rand.New(rand.NewSource(42+trial)))
		l, err := core.Stack{Journal: jnl, Parallelism: parallelism}.Build(core.NewTruthOracle(d))
		if err != nil {
			t.Fatal(err)
		}
		live, liveTasks := audit(l.Top)
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}

		if live != bare {
			t.Errorf("trial %d: journaled result diverged from the bare stack's:\n%s\nvs\n%s", trial, live, bare)
		}
		if liveTasks != bareTasks {
			t.Errorf("trial %d: task counts diverged: bare %d, journaled %d", trial, bareTasks, liveTasks)
		}
		if l.Journal.Rounds() < 1 {
			t.Errorf("trial %d: journaled stack committed %d rounds, want >= 1", trial, l.Journal.Rounds())
		}
	}
}

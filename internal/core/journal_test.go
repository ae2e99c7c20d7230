package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// memJournal collects records in memory for tests.
type memJournal struct {
	recs []RoundRecord
	err  error // injected Append failure
}

func (m *memJournal) Append(rec RoundRecord) error {
	if m.err != nil {
		return m.err
	}
	m.recs = append(m.recs, rec)
	return nil
}

// deadOracle fails every call: replay tests wrap it to prove replayed
// rounds never touch the inner oracle.
type deadOracle struct{}

var errDeadOracle = errors.New("core: dead oracle touched")

func (deadOracle) SetQuery([]dataset.ObjectID, pattern.Group) (bool, error) {
	return false, errDeadOracle
}
func (deadOracle) ReverseSetQuery([]dataset.ObjectID, pattern.Group) (bool, error) {
	return false, errDeadOracle
}
func (deadOracle) PointQuery(dataset.ObjectID) ([]int, error) { return nil, errDeadOracle }

// journalAudit runs one lockstep Multiple-Coverage audit through o (a
// journaling middleware, or the bare leaf for reference) and returns
// its serialized result.
func journalAudit(t *testing.T, d *dataset.Dataset, o Oracle, seed int64) string {
	t.Helper()
	s := raceSchema()
	groups := pattern.GroupsForAttribute(s, 0)
	res, err := MultipleCoverage(o, d.IDs(), 20, 20, groups, MultipleOptions{
		Rng: rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatalf("MultipleCoverage: %v", err)
	}
	return fmt.Sprintf("%+v|%+v|%+v|%d|%d|%d",
		res.Results, res.SuperAudits, res.RemainingIDs, res.SampleTasks, res.AuditTasks, res.Tasks)
}

// TestJournalRecordReplay is the journal's core property: a fresh
// journaled audit is a passthrough — it commits the bare leaf's result
// and pays the leaf the same HITs — and it replays byte-identically
// from its records alone: the inner oracle of the resumed run is never
// touched when the journal covers every round.
func TestJournalRecordReplay(t *testing.T) {
	s := raceSchema()
	d := dataset.MustFromCounts(s, []int{400, 30, 25, 22}, rand.New(rand.NewSource(41)))

	bareLeaf := NewTruthOracle(d)
	bare := journalAudit(t, d, bareLeaf, 7)
	mem := &memJournal{}
	leaf := NewTruthOracle(d)
	live := journalAudit(t, d, NewJournalingOracle(leaf, mem, nil, nil), 7)
	if live != bare {
		t.Errorf("journaled result diverged from the bare leaf's:\n%s\nvs\n%s", live, bare)
	}
	if got, want := leaf.Tasks(), bareLeaf.Tasks(); got != want {
		t.Errorf("journaled audit paid the leaf %+v, bare audit %+v", got, want)
	}
	if len(mem.recs) == 0 {
		t.Fatal("live run journaled no rounds")
	}
	for i, rec := range mem.recs {
		if rec.Round != i {
			t.Fatalf("record %d has Round=%d", i, rec.Round)
		}
	}

	replayJo := NewJournalingOracle(NewBatchAdapter(deadOracle{}, 1), nil, mem.recs, nil)
	replayed := journalAudit(t, d, replayJo, 7)
	if replayed != live {
		t.Errorf("replayed result diverged:\n%s\nvs\n%s", replayed, live)
	}
	if got := replayJo.Replayed(); got != len(mem.recs) {
		t.Errorf("Replayed() = %d, want %d", got, len(mem.recs))
	}
}

// TestJournalPartialReplaySwitchesLive resumes from a prefix of the
// journal: the first K rounds replay, the rest run live, and the
// result still matches the uninterrupted run.
func TestJournalPartialReplaySwitchesLive(t *testing.T) {
	s := raceSchema()
	d := dataset.MustFromCounts(s, []int{400, 30, 25, 22}, rand.New(rand.NewSource(42)))

	mem := &memJournal{}
	live := journalAudit(t, d, NewJournalingOracle(NewTruthOracle(d), mem, nil, nil), 7)
	if len(mem.recs) < 2 {
		t.Fatalf("need >= 2 rounds, got %d", len(mem.recs))
	}

	k := len(mem.recs) / 2
	truth := NewTruthOracle(d)
	resumeJo := NewJournalingOracle(truth, nil, mem.recs[:k], nil)
	resumed := journalAudit(t, d, resumeJo, 7)
	if resumed != live {
		t.Errorf("resumed result diverged:\n%s\nvs\n%s", resumed, live)
	}
	if got := resumeJo.Replayed(); got != k {
		t.Errorf("Replayed() = %d, want %d", got, k)
	}
	if truth.Tasks().Total() == 0 {
		t.Error("live suffix never reached the inner oracle")
	}
}

// TestJournalReplayMismatch: records from a different audit
// configuration must fail with ErrJournalMismatch, never fabricate
// answers.
func TestJournalReplayMismatch(t *testing.T) {
	s := raceSchema()
	g := pattern.GroupsForAttribute(s, 0)[1]

	recs := []RoundRecord{{
		Round:      0,
		Sets:       []SetRequest{{IDs: []dataset.ObjectID{0, 1}, Group: g}},
		SetAnswers: []bool{true},
	}}

	jo := NewJournalingOracle(NewBatchAdapter(deadOracle{}, 1), nil, recs, nil)
	// Different ids than journaled.
	if _, err := jo.SetQuery([]dataset.ObjectID{5, 6}, g); !errors.Is(err, ErrJournalMismatch) {
		t.Errorf("set mismatch err = %v, want ErrJournalMismatch", err)
	}
	// Point round against a journaled set round.
	jo = NewJournalingOracle(NewBatchAdapter(deadOracle{}, 1), nil, recs, nil)
	if _, err := jo.PointQuery(0); !errors.Is(err, ErrJournalMismatch) {
		t.Errorf("kind mismatch err = %v, want ErrJournalMismatch", err)
	}
	// Unknown journaled outcome kind.
	bad := []RoundRecord{{Round: 0, Sets: recs[0].Sets, ErrKind: "martian"}}
	jo = NewJournalingOracle(NewBatchAdapter(deadOracle{}, 1), nil, bad, nil)
	if _, err := jo.SetQuery([]dataset.ObjectID{0, 1}, g); !errors.Is(err, ErrJournalMismatch) {
		t.Errorf("unknown outcome err = %v, want ErrJournalMismatch", err)
	}
}

// TestJournalRestoresGovernorSpend: replayed rounds restore the budget
// ledger instead of charging it — the paid-HIT-never-recharged rule.
func TestJournalRestoresGovernorSpend(t *testing.T) {
	s := raceSchema()
	d := dataset.MustFromCounts(s, []int{400, 30, 25, 22}, rand.New(rand.NewSource(44)))
	budget := Budget{MaxHITs: 60}

	mem := &memJournal{}
	gov := NewBudgetedOracle(NewTruthOracle(d), budget)
	live := journalAudit(t, d, NewJournalingOracle(gov, mem, nil, gov), 7)
	liveSpent := gov.Spent()
	if liveSpent.HITs() == 0 {
		t.Fatal("budgeted live run spent nothing")
	}

	truth := NewTruthOracle(d)
	gov2 := NewBudgetedOracle(truth, budget)
	jo2 := NewJournalingOracle(gov2, nil, mem.recs, gov2)
	replayed := journalAudit(t, d, jo2, 7)
	if replayed != live {
		t.Errorf("budgeted replay diverged:\n%s\nvs\n%s", replayed, live)
	}
	if got := gov2.Spent(); !reflect.DeepEqual(got, liveSpent) {
		t.Errorf("replayed governor spend %+v, want %+v", got, liveSpent)
	}
	if n := truth.Tasks().Total(); n != 0 {
		t.Errorf("replay posted %d HITs to the inner oracle, want 0", n)
	}
}

// TestJournalContextCancel: a cancelled context fails the next round
// before it reaches the oracle or the journal.
func TestJournalContextCancel(t *testing.T) {
	s := raceSchema()
	d := dataset.MustFromCounts(s, []int{50, 5, 5, 5}, rand.New(rand.NewSource(45)))
	g := pattern.GroupsForAttribute(s, 0)[1]

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mem := &memJournal{}
	truth := NewTruthOracle(d)
	jo := NewJournalingOracle(truth, mem, nil, nil).SetContext(ctx)
	if _, err := jo.SetQuery(d.IDs()[:2], g); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if truth.Tasks().Total() != 0 || len(mem.recs) != 0 {
		t.Errorf("cancelled round reached oracle (%d tasks) or journal (%d records)",
			truth.Tasks().Total(), len(mem.recs))
	}
}

// TestJournalAppendFailureIsLoud: a round that committed to the crowd
// but could not be journaled must surface the append error — silently
// continuing would leave unrecoverable paid HITs.
func TestJournalAppendFailureIsLoud(t *testing.T) {
	s := raceSchema()
	d := dataset.MustFromCounts(s, []int{50, 5, 5, 5}, rand.New(rand.NewSource(46)))
	g := pattern.GroupsForAttribute(s, 0)[1]

	sentinel := errors.New("disk full")
	jo := NewJournalingOracle(NewTruthOracle(d), &memJournal{err: sentinel}, nil, nil)
	if _, err := jo.SetQuery(d.IDs()[:2], g); !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want append failure surfaced", err)
	}
}

// TestJournalSkipsHardErrorsAndEmptyRounds: hard errors are not
// deterministic facts about a committed round, so they pass through
// unjournaled; empty batches never reach journal or oracle.
func TestJournalSkipsHardErrorsAndEmptyRounds(t *testing.T) {
	mem := &memJournal{}
	jo := NewJournalingOracle(NewBatchAdapter(deadOracle{}, 1), mem, nil, nil)

	if _, err := jo.PointQuery(3); !errors.Is(err, errDeadOracle) {
		t.Fatalf("err = %v, want hard error passed through", err)
	}
	if len(mem.recs) != 0 || jo.Rounds() != 0 {
		t.Errorf("hard error journaled: %d records, %d rounds", len(mem.recs), jo.Rounds())
	}

	if answers, err := jo.SetQueryBatch(nil); answers != nil || err != nil {
		t.Errorf("empty set batch = (%v, %v), want (nil, nil)", answers, err)
	}
	if labels, err := jo.PointQueryBatch(nil); labels != nil || err != nil {
		t.Errorf("empty point batch = (%v, %v), want (nil, nil)", labels, err)
	}
	if len(mem.recs) != 0 {
		t.Errorf("empty rounds journaled %d records", len(mem.recs))
	}
}

// TestJournalTransientOutcomeReplays: an ErrTransient round outcome is
// a journaled fact (its committed prefix is real); replay reproduces
// the error without touching the oracle.
func TestJournalTransientOutcomeReplays(t *testing.T) {
	s := raceSchema()
	d := dataset.MustFromCounts(s, []int{50, 5, 5, 5}, rand.New(rand.NewSource(47)))
	g := pattern.GroupsForAttribute(s, 0)[1]

	mem := &memJournal{}
	flaky := &FlakyOracle{Inner: NewTruthOracle(d), FailEvery: 1} // every call fails
	jo := NewJournalingOracle(NewBatchAdapter(flaky, 1), mem, nil, nil)
	if _, err := jo.SetQuery(d.IDs()[:2], g); !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if len(mem.recs) != 1 || mem.recs[0].ErrKind != roundErrTransient {
		t.Fatalf("journal = %+v, want one transient record", mem.recs)
	}

	jo2 := NewJournalingOracle(NewBatchAdapter(deadOracle{}, 1), nil, mem.recs, nil)
	if _, err := jo2.SetQueryBatch([]SetRequest{{IDs: d.IDs()[:2], Group: g}}); !errors.Is(err, ErrTransient) {
		t.Errorf("replayed err = %v, want ErrTransient", err)
	}
	if jo2.Replayed() != 1 {
		t.Errorf("Replayed() = %d, want 1", jo2.Replayed())
	}
}

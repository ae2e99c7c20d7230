package imagecvg

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"imagecvg/internal/core"
)

// memRoundJournal keeps appended rounds in memory.
type memRoundJournal struct{ recs []RoundRecord }

func (m *memRoundJournal) Append(rec RoundRecord) error {
	m.recs = append(m.recs, rec)
	return nil
}

// permutations returns every ordering of [0, n).
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int{}, p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestAuditorStackOrderIndependent applies the four middleware calls in
// all 24 orders over the simulated crowd and runs the same audit twice:
// every order must build the one stack cache → trust → journal →
// governor → crowd, so verdicts, spend, journal records, trust report
// and cache stats all equal the documented order's. The repeated audit
// is answered by the cache, so it must not charge the budget again.
func TestAuditorStackOrderIndependent(t *testing.T) {
	ds, err := GenerateBinary(1500, 25, 11)
	if err != nil {
		t.Fatal(err)
	}
	groups := GroupsForAttribute(ds.Schema(), 0)
	probes := GoldProbes(ds, groups, 6, 99)
	const (
		budget = iota
		journal
		trust
		cache
	)
	run := func(t *testing.T, order []int) string {
		sc, err := NewSimulatedCrowd(ds, 3, CrowdOptions{RecordResponses: true})
		if err != nil {
			t.Fatal(err)
		}
		jnl := &memRoundJournal{}
		a := NewAuditor(sc, 15, 15).WithSeed(5).WithParallelism(4)
		for _, layer := range order {
			switch layer {
			case budget:
				a = a.WithBudget(Budget{MaxHITs: 100000, Cost: sc.HITCost()})
			case journal:
				a = a.WithJournal(jnl, nil)
			case trust:
				if a, err = a.WithTrust(TrustConfig{Probes: probes, Feed: sc.AnswerFeed(), Screen: sc.Screener()}); err != nil {
					t.Fatal(err)
				}
			case cache:
				a = a.WithCache()
			}
		}
		var out strings.Builder
		var first BudgetSpent
		for k := 0; k < 2; k++ {
			res, err := a.AuditGroups(ds.IDs(), groups)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "audit %d: %+v tasks=%d\n", k, res.Results, res.Tasks)
			spent, ok := a.BudgetSpent()
			if !ok {
				t.Fatal("BudgetSpent not available")
			}
			if k == 0 {
				first = spent
			} else if spent != first {
				t.Errorf("order %v: repeated audit charged the budget again: %+v after %+v", order, spent, first)
			}
		}
		spent, _ := a.BudgetSpent()
		report, _ := a.TrustStats()
		stats, _ := a.CacheStats()
		replayed, rounds, _ := a.JournalStats()
		if report.ProbesIssued == 0 || stats.Hits.Total() == 0 || rounds == 0 || spent.HITs() == 0 {
			t.Errorf("order %v: a layer did no work: trust %+v cache %+v rounds %d spent %+v",
				order, report, stats, rounds, spent)
		}
		recs, err := json.Marshal(jnl.recs)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "spent %+v\ntrust %+v\ncache %+v\njournal %d/%d %s\nledger %+v\n",
			spent, report, stats, replayed, rounds, recs, sc.Cost())
		return out.String()
	}

	canonical := run(t, []int{budget, journal, trust, cache})
	orders := permutations(4)
	if len(orders) != 24 {
		t.Fatalf("%d orders, want 24", len(orders))
	}
	for _, order := range orders {
		if got := run(t, order); got != canonical {
			t.Errorf("order %v diverged from the documented order:\n got %s\nwant %s", order, got, canonical)
		}
	}
}

// TestAuditorLateLayerPanics: a middleware call after the stack was
// built (first audit or stats call) could no longer join it, so it
// panics instead of being silently ignored.
func TestAuditorLateLayerPanics(t *testing.T) {
	ds, err := GenerateBinary(400, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]func(a *Auditor){
		"WithCache":   func(a *Auditor) { a.WithCache() },
		"WithBudget":  func(a *Auditor) { a.WithBudget(Budget{MaxHITs: 5}) },
		"WithJournal": func(a *Auditor) { a.WithJournal(&memRoundJournal{}, nil) },
		"WithTrust":   func(a *Auditor) { a.WithTrust(TrustConfig{}) },
		"WithRetry":   func(a *Auditor) { a.WithRetry(RetryPolicy{MaxAttempts: 2}) },
	}
	for name, call := range calls {
		for _, first := range []string{"audit", "stats"} {
			a := NewAuditor(NewTruthOracle(ds), 5, 10)
			if first == "audit" {
				if _, err := a.AuditGroups(ds.IDs(), GroupsForAttribute(ds.Schema(), 0)); err != nil {
					t.Fatal(err)
				}
			} else {
				a.CacheStats()
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s after the first %s did not panic", name, first)
					}
				}()
				call(a)
			}()
		}
	}
	// Before the build the same calls are plain setters.
	a := NewAuditor(NewTruthOracle(ds), 5, 10)
	for _, call := range calls {
		call(a)
	}
	if _, ok := a.CacheStats(); !ok {
		t.Error("CacheStats unavailable after WithCache")
	}
}

// hitCounter counts the HITs that reach the leaf.
type hitCounter struct {
	Oracle
	hits int
}

func (h *hitCounter) SetQuery(ids []ObjectID, g Group) (bool, error) {
	h.hits++
	return h.Oracle.SetQuery(ids, g)
}

func (h *hitCounter) ReverseSetQuery(ids []ObjectID, g Group) (bool, error) {
	h.hits++
	return h.Oracle.ReverseSetQuery(ids, g)
}

func (h *hitCounter) PointQuery(id ObjectID) ([]int, error) {
	h.hits++
	return h.Oracle.PointQuery(id)
}

// TestAuditGroupHonorsCancellation: the sequential entry points run as
// one-task lockstep audits, so an already-cancelled context posts no
// HIT and surfaces the cancellation instead of auditing to the end.
func TestAuditGroupHonorsCancellation(t *testing.T) {
	ds, err := GenerateBinary(2000, 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := FemaleGroup(ds.Schema())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, audit := range map[string]func(a *Auditor) error{
		"AuditGroup": func(a *Auditor) error {
			_, err := a.AuditGroup(ds.IDs(), g)
			return err
		},
		"AuditBaseline": func(a *Auditor) error {
			_, err := a.AuditBaseline(ds.IDs(), g)
			return err
		},
	} {
		leaf := &hitCounter{Oracle: NewTruthOracle(ds)}
		err := audit(NewAuditor(leaf, 50, 10).WithContext(ctx))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: err = %v, want context.Canceled", name, err)
		}
		if leaf.hits != 0 {
			t.Errorf("%s under a cancelled context posted %d HITs, want 0", name, leaf.hits)
		}
	}
}

// TestFlakyPlainLeafUnderRetryAndCache: the lifted plain leaf hands
// back the answered prefix of a failing round, so retry re-posts only
// the rest. A plain leaf failing every 7th HIT then finishes the
// 30-query sample round and the whole audit with the clean leaf's
// verdicts and tasks, at every width.
func TestFlakyPlainLeafUnderRetryAndCache(t *testing.T) {
	ds, err := GenerateBinary(1500, 25, 11)
	if err != nil {
		t.Fatal(err)
	}
	audit := func(leaf Oracle, par int) string {
		a := NewAuditor(leaf, 15, 15).WithSeed(5).WithParallelism(par).
			WithRetry(RetryPolicy{MaxAttempts: 8}).WithCache()
		res, err := a.AuditAttribute(ds.IDs(), ds.Schema(), 0)
		if err != nil {
			t.Fatalf("P=%d: %v", par, err)
		}
		return fmt.Sprintf("%+v tasks %d", res.Results, res.Tasks)
	}
	want := audit(struct{ Oracle }{NewTruthOracle(ds)}, 1)
	for _, par := range []int{1, 4} {
		if got := audit(&core.FlakyOracle{Inner: NewTruthOracle(ds), FailEvery: 7}, par); got != want {
			t.Errorf("P=%d: flaky leaf audited %s, clean leaf %s", par, got, want)
		}
	}
}

// untagJournal rewrites a journal file's header to "CVGJNL01", the
// header every journal carried before crowd transcripts were tagged.
func untagJournal(t *testing.T, path string) {
	t.Helper()
	retagJournal(t, path, "CVGJNL01")
}

// retagJournal rewrites a journal file's 8-byte header.
func retagJournal(t *testing.T, path, header string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, header)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResumeRefusesUntaggedCrowdJournal: a crowd journal resumes under
// its own transcript tag, and one recorded under the untagged
// transcript fails with ErrTranscriptTag before any round runs. A
// truth-oracle journal carries no tag and resumes as before.
func TestResumeRefusesUntaggedCrowdJournal(t *testing.T) {
	ds, err := GenerateBinary(600, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	audit := func(t *testing.T, leaf func() Oracle, path string, resume bool) error {
		t.Helper()
		var (
			jnl    *FileJournal
			replay []RoundRecord
			err    error
		)
		if resume {
			jnl, replay, err = OpenJournal(path)
		} else {
			jnl, err = CreateJournal(path)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer jnl.Close()
		_, err = NewAuditor(leaf(), 10, 15).WithSeed(5).WithJournal(jnl, replay).AuditAttribute(ds.IDs(), ds.Schema(), 0)
		return err
	}
	crowdLeaf := func() Oracle {
		sc, err := NewSimulatedCrowd(ds, 3, CrowdOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	truthLeaf := func() Oracle { return NewTruthOracle(ds) }

	path := filepath.Join(t.TempDir(), "crowd.jnl")
	if err := audit(t, crowdLeaf, path, false); err != nil {
		t.Fatal(err)
	}
	if err := audit(t, crowdLeaf, path, true); err != nil {
		t.Fatalf("resume under the same transcript: %v", err)
	}
	untagJournal(t, path)
	if err := audit(t, crowdLeaf, path, true); !errors.Is(err, ErrTranscriptTag) {
		t.Fatalf("resume of an untagged crowd journal = %v, want ErrTranscriptTag", err)
	}

	path = filepath.Join(t.TempDir(), "truth.jnl")
	if err := audit(t, truthLeaf, path, false); err != nil {
		t.Fatal(err)
	}
	if head, err := os.ReadFile(path); err != nil || string(head[:8]) != "CVGJNL01" {
		t.Fatalf("truth journal header %q, err %v; want the untagged header", head[:8], err)
	}
	if err := audit(t, truthLeaf, path, true); err != nil {
		t.Fatalf("resume of a truth journal: %v", err)
	}
}

// TestResumeRefusesC2CrowdJournal: a crowd journal recorded under
// transcript "c2" — one-query rounds per task, probes per set round —
// fails resume with ErrTranscriptTag before any HIT is posted.
func TestResumeRefusesC2CrowdJournal(t *testing.T) {
	ds, err := GenerateBinary(600, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "crowd.jnl")
	jnl, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewSimulatedCrowd(ds, 3, CrowdOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAuditor(sc, 10, 15).WithSeed(5).WithJournal(jnl, nil).AuditAttribute(ds.IDs(), ds.Schema(), 0); err != nil {
		t.Fatal(err)
	}
	jnl.Close()
	retagJournal(t, path, "CVGJNLc2")

	jnl, replay, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	fresh, err := NewSimulatedCrowd(ds, 3, CrowdOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewAuditor(fresh, 10, 15).WithSeed(5).WithJournal(jnl, replay).AuditAttribute(ds.IDs(), ds.Schema(), 0)
	if !errors.Is(err, ErrTranscriptTag) {
		t.Fatalf("resume of a c2 crowd journal = %v, want ErrTranscriptTag", err)
	}
	if hits := fresh.Cost().TotalHITs; hits != 0 {
		t.Errorf("refused resume posted %d live HITs, want 0", hits)
	}
}

// TestResumeRefusesParentRoundLayout: a truth journal carries no
// transcript tag, so a journal written in the one-query-per-task round
// layout — hand-written here by splitting every recorded window round
// into one-query rounds — must fail resume on its first round with
// ErrJournalMismatch, and post no live HIT.
func TestResumeRefusesParentRoundLayout(t *testing.T) {
	ds, err := GenerateBinary(600, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := FemaleGroup(ds.Schema())
	mem := &memRoundJournal{}
	if _, err := NewAuditor(NewTruthOracle(ds), 10, 15).WithJournal(mem, nil).AuditGroup(ds.IDs(), g); err != nil {
		t.Fatal(err)
	}
	if len(mem.recs) == 0 || len(mem.recs[0].Sets) < 2 {
		t.Fatalf("first recorded round %+v, want a window of several set queries", mem.recs)
	}

	path := filepath.Join(t.TempDir(), "truth.jnl")
	jnl, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	round := 0
	for _, rec := range mem.recs {
		for i := range rec.Sets {
			one := RoundRecord{Round: round, Sets: rec.Sets[i : i+1], SetAnswers: rec.SetAnswers[i : i+1]}
			if err := jnl.Append(one); err != nil {
				t.Fatal(err)
			}
			round++
		}
	}
	jnl.Close()

	jnl, replay, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	if len(replay) != round {
		t.Fatalf("reopened %d rounds, wrote %d", len(replay), round)
	}
	truth := NewTruthOracle(ds)
	_, err = NewAuditor(truth, 10, 15).WithJournal(jnl, replay).AuditGroup(ds.IDs(), g)
	if !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("resume of a one-query-round journal = %v, want ErrJournalMismatch", err)
	}
	if hits := truth.Tasks().Total(); hits != 0 {
		t.Errorf("refused resume posted %d live HITs, want 0", hits)
	}
}

package imagecvg

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestPlanRepairFromAudit(t *testing.T) {
	schema, err := NewSchema(
		Attribute{Name: "gender", Values: []string{"male", "female"}},
		Attribute{Name: "race", Values: []string{"white", "black"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	var labels [][]int
	add := func(g, r, n int) {
		for i := 0; i < n; i++ {
			labels = append(labels, []int{g, r})
		}
	}
	add(0, 0, 300)
	add(1, 0, 250)
	add(0, 1, 100)
	add(1, 1, 5)
	ds, err := NewDataset(schema, labels)
	if err != nil {
		t.Fatal(err)
	}
	auditor := NewAuditor(NewTruthOracle(ds), 50, 50).WithSeed(4)
	audit, err := auditor.AuditIntersectional(ds.IDs(), schema)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := auditor.PlanRepair(schema, audit)
	if err != nil {
		t.Fatal(err)
	}
	// female-black lacks 45 objects; everything else is fine.
	if plan.Total != 45 {
		t.Errorf("plan total = %d, want 45:\n%s", plan.Total, plan)
	}
	if !strings.Contains(plan.String(), "gender=female AND race=black") {
		t.Errorf("plan = %s", plan)
	}
	// Executing the plan against the true counts repairs coverage.
	if !plan.Verify(ds.SubgroupCounts(), 50) {
		t.Error("plan does not repair the true composition")
	}
}

func TestAuditGroupBatched(t *testing.T) {
	ds, err := GenerateBinary(5_000, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	auditor := NewAuditor(NewTruthOracle(ds), 50, 50)
	res, err := auditor.AuditGroupBatched(ds.IDs(), FemaleGroup(ds.Schema()), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered {
		t.Error("200 >= 50 must be covered")
	}
	if res.Rounds < 1 || res.Rounds > 7 {
		t.Errorf("rounds = %d, want within 1..1+log2(50)", res.Rounds)
	}
}

func TestAuditGroupTraced(t *testing.T) {
	ds, err := GenerateBinary(64, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	auditor := NewAuditor(NewTruthOracle(ds), 8, 16)
	res, trace, err := auditor.AuditGroupTraced(ds.IDs(), FemaleGroup(ds.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	if trace.Tasks() != res.Tasks {
		t.Errorf("trace tasks %d != result tasks %d", trace.Tasks(), res.Tasks)
	}
	if !strings.Contains(trace.DOT(), "digraph") {
		t.Error("DOT rendering broken")
	}
}

func TestAuditSampledFacade(t *testing.T) {
	ds, err := GenerateBinary(10_000, 5_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	auditor := NewAuditor(NewTruthOracle(ds), 50, 50).WithSeed(12)
	res, err := auditor.AuditSampled(ds.IDs(), FemaleGroup(ds.Schema()), 0.05, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || !res.Covered {
		t.Errorf("half-female dataset must decide covered: %+v", res)
	}
	if res.String() == "" {
		t.Error("empty rendering")
	}
}

// untouchable fails every query, so a replayed audit that reaches it
// surfaces an error.
type untouchable struct{}

var errTouched = errors.New("replayed audit reached the oracle")

func (untouchable) SetQuery([]ObjectID, Group) (bool, error)        { return false, errTouched }
func (untouchable) ReverseSetQuery([]ObjectID, Group) (bool, error) { return false, errTouched }
func (untouchable) PointQuery(ObjectID) ([]int, error)              { return nil, errTouched }

// TestTranscriptRoundTripFacade: an audit recorded with WithJournal
// replays from its records alone, without touching the oracle.
func TestTranscriptRoundTripFacade(t *testing.T) {
	ds, err := GenerateBinary(400, 30, 13)
	if err != nil {
		t.Fatal(err)
	}
	groups := GroupsForAttribute(ds.Schema(), 0)
	jnl := &memRoundJournal{}
	orig, err := NewAuditor(NewTruthOracle(ds), 20, 25).WithJournal(jnl, nil).AuditGroups(ds.IDs(), groups)
	if err != nil {
		t.Fatal(err)
	}
	replay := NewAuditor(untouchable{}, 20, 25).WithJournal(nil, jnl.recs)
	again, err := replay.AuditGroups(ds.IDs(), groups)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%+v", again.Results), fmt.Sprintf("%+v", orig.Results); got != want || again.Tasks != orig.Tasks {
		t.Errorf("replay diverged: %s tasks=%d vs %s tasks=%d", got, again.Tasks, want, orig.Tasks)
	}
	if replayed, _, _ := replay.JournalStats(); replayed != len(jnl.recs) || replayed == 0 {
		t.Errorf("replayed %d of %d recorded rounds", replayed, len(jnl.recs))
	}
}

func TestNewRepairPlanFacade(t *testing.T) {
	s := GenderSchema()
	plan, err := NewRepairPlan(s, []int{100, 10}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Total != 40 {
		t.Errorf("plan total = %d, want 40", plan.Total)
	}
}

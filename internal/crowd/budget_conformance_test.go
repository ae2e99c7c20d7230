package crowd

// The budgeted extension of the lockstep conformance matrix: when a
// BudgetedOracle governor caps an audit through the full crowd
// pipeline, the EXHAUSTION itself must be deterministic — the point in
// the canonical query sequence where the budget runs out, the partial
// verdicts assembled from the committed answers, the committed task
// counts, the governor's spend snapshot and the platform ledger must
// all be byte-identical at every engine Parallelism value under
// lockstep. Instances randomize the whole deployment (screening,
// pricing, aggregation) like the base matrix, plus the budget shape
// (HIT caps and dollar caps priced by the deployment's own cost
// model). The suite runs under -race in CI.

import (
	"fmt"
	"math/rand"
	"testing"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// budgetedInstance pairs a pipeline instance with a budget shape.
type budgetedInstance struct {
	conformanceInstance
	// budgetHITs sizes the cap; small enough to usually bind.
	budgetHITs int
	// spendCap denominates the cap in dollars via the deployment's
	// HITCost instead of a raw HIT count.
	spendCap bool
}

// generateBudgetedInstance draws the base pipeline first (same
// distribution as the unbudgeted matrix) and the budget shape after,
// so the budget axis composes with every screening/pricing/algorithm
// combination.
func generateBudgetedInstance(rng *rand.Rand, kind string) budgetedInstance {
	return budgetedInstance{
		conformanceInstance: generateInstance(rng, kind),
		budgetHITs:          2 + rng.Intn(30),
		spendCap:            rng.Intn(3) == 0,
	}
}

// budgetFor realizes the instance's budget against one platform: a
// dollar cap prices budgetHITs worth of set queries under the
// deployment's own cost model, so the same instance binds identically
// on every identically-configured platform.
func budgetFor(inst budgetedInstance, p *Platform) core.Budget {
	if inst.spendCap {
		cost := p.HITCost()
		return core.Budget{
			MaxSpend: float64(inst.budgetHITs) * cost(core.HITSet, inst.setSize),
			Cost:     cost,
		}
	}
	return core.Budget{MaxHITs: inst.budgetHITs}
}

// runBudgetedCell executes one (instance, parallelism) cell under
// lockstep with the governor over the platform and serializes
// everything observable, the exhaustion point included.
func runBudgetedCell(t *testing.T, inst budgetedInstance, parallelism int) (string, bool) {
	t.Helper()
	d := dataset.MustFromCounts(inst.schema, inst.counts, rand.New(rand.NewSource(inst.platformSeed+1)))
	log := &ResponseLog{}
	p := platformFor(t, inst.conformanceInstance, d, log)
	b := budgetFor(inst, p)
	layers, err := core.Stack{Budget: &b}.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	gov := layers.Budget
	opts := core.MultipleOptions{
		Rng:         rand.New(rand.NewSource(inst.auditSeed)),
		Parallelism: parallelism,
	}
	var audit string
	var exhausted bool
	switch inst.kind {
	case "intersectional":
		res, err := core.IntersectionalCoverage(gov, d.IDs(), inst.setSize, inst.tau, inst.schema, opts)
		if err != nil {
			t.Fatal(err)
		}
		exhausted = res.Exhausted
		audit = fmt.Sprintf("%+v|%+v|%v|%d|%d", res.Verdicts, res.MUPs, res.Exhausted, res.ResolutionTasks, res.Tasks)
	case "classifier":
		g := pattern.GroupsForAttribute(inst.schema, 0)[1]
		predicted := d.PredictedSet(g, inst.classifierTP, inst.classifierFP)
		res, err := core.ClassifierCoverage(gov, d.IDs(), predicted, inst.setSize, inst.tau, g,
			core.ClassifierOptions{
				Rng:         rand.New(rand.NewSource(inst.auditSeed)),
				Parallelism: parallelism,
				Governor:    gov,
			})
		if err != nil {
			t.Fatal(err)
		}
		exhausted = res.Exhausted
		audit = fmt.Sprintf("%+v", res)
	default:
		groups := pattern.GroupsForAttribute(inst.schema, 0)
		res, err := core.MultipleCoverage(gov, d.IDs(), inst.setSize, inst.tau, groups, opts)
		if err != nil {
			t.Fatal(err)
		}
		exhausted = res.Exhausted
		audit = fmt.Sprintf("%+v|%+v|%v|%d|%d|%d", res.Results, res.SuperAudits,
			res.Exhausted, res.SampleTasks, res.AuditTasks, res.Tasks)
	}

	spent := gov.Spent()
	cell := fmt.Sprintf("audit=%s\nexhaustion=%+v\nspend=%s\neligible=%d\nhits=%d",
		audit, spent, p.Ledger().Snapshot(), p.EligibleWorkers(), log.HITs())
	return cell, exhausted
}

// TestBudgetedLockstepCrossParallelismConformance is the budgeted
// conformance matrix: >= 50 randomized instances, each run at P in
// {1, 2, 4, 16} under lockstep, asserting byte-identical exhaustion
// points, partial verdicts, committed task counts and ledger spend.
func TestBudgetedLockstepCrossParallelismConformance(t *testing.T) {
	instances := 50
	if testing.Short() {
		instances = 12
	}
	rng := rand.New(rand.NewSource(20270))
	exhaustedInstances := 0
	for i := 0; i < instances; i++ {
		inst := generateBudgetedInstance(rng, conformanceKind(i))
		var exhausted bool
		t.Run(fmt.Sprintf("%02d-%s", i, inst.kind), func(t *testing.T) {
			var base string
			for _, par := range []int{1, 2, 4, 16} {
				got, exh := runBudgetedCell(t, inst, par)
				if par == 1 {
					base, exhausted = got, exh
					continue
				}
				if got != base {
					t.Fatalf("parallelism %d diverged from parallelism 1:\n--- P=%d ---\n%s\n--- P=1 ---\n%s\n(instance %+v)",
						par, par, got, base, inst)
				}
			}
		})
		if exhausted {
			exhaustedInstances++
		}
	}
	// Coverage guard: the matrix must actually exercise exhaustion —
	// caps that never bind would verify nothing about the exhaustion
	// path.
	if min := instances / 3; exhaustedInstances < min {
		t.Errorf("only %d of %d budgeted instances exhausted; want >= %d for the matrix to cover the exhaustion path",
			exhaustedInstances, instances, min)
	}
}

// TestBudgetedLedgerNeverExceedsCap asserts the governance invariant
// end to end, for both cap denominations across the randomized
// screening/pricing deployments: a HIT cap bounds the ledger's HIT
// count, a dollar cap bounds the ledger's TotalCost (workers + fee) —
// the money actually spent — and the governor's accounting agrees with
// the ledger (its HIT tally exactly, its spend because crowd.HITCost
// quotes precisely what Platform records per posted HIT).
func TestBudgetedLedgerNeverExceedsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(20271))
	for i := 0; i < 24; i++ {
		inst := generateBudgetedInstance(rng, conformanceKind(i))
		inst.spendCap = i%2 == 1
		d := dataset.MustFromCounts(inst.schema, inst.counts, rand.New(rand.NewSource(inst.platformSeed+1)))
		p := platformFor(t, inst.conformanceInstance, d, &ResponseLog{})
		budget := budgetFor(inst, p)
		layers, err := core.Stack{Budget: &budget}.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		gov := layers.Budget
		groups := pattern.GroupsForAttribute(inst.schema, 0)
		if _, err := core.MultipleCoverage(gov, d.IDs(), inst.setSize, inst.tau, groups, core.MultipleOptions{
			Rng: rand.New(rand.NewSource(inst.auditSeed)),
		}); err != nil {
			t.Fatal(err)
		}
		spent := gov.Spent()
		ledger := p.Ledger().Snapshot()
		if spent.HITs() != ledger.TotalHITs {
			t.Errorf("instance %d: governor committed %d HITs but ledger recorded %d",
				i, spent.HITs(), ledger.TotalHITs)
		}
		if inst.spendCap {
			if ledger.TotalCost > budget.MaxSpend+1e-9 {
				t.Errorf("instance %d: ledger spend $%.4f exceeds the $%.4f cap (pricing=%d assignments=%d)",
					i, ledger.TotalCost, budget.MaxSpend, inst.pricing, inst.assignments)
			}
			if diff := ledger.TotalCost - spent.Spend; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("instance %d: governor spend $%.4f diverges from ledger $%.4f",
					i, spent.Spend, ledger.TotalCost)
			}
		} else if ledger.TotalHITs > inst.budgetHITs {
			t.Errorf("instance %d: ledger recorded %d HITs over cap %d", i, ledger.TotalHITs, inst.budgetHITs)
		}
	}
}

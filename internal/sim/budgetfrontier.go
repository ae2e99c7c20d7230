package sim

import (
	"fmt"
	"math"
	"math/rand"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/experiment"
	"imagecvg/internal/pattern"
	"imagecvg/internal/stats"
)

// The budget-frontier harness regression-tests the paper's central
// tradeoff — audit accuracy against crowdsourcing spend — as a curve
// artifact in the style of the Figure 6/7 series: for every (N, tau)
// workload it calibrates the unbudgeted Multiple-Coverage cost, then
// re-audits under HIT caps at fractions of that cost and scores the
// partial verdicts against ground truth. Audits run on the lockstep
// engine, whose budgeted exhaustion point is engine-parallelism-
// invariant — which is exactly what lets the rendered artifact be
// golden-filed and compared at any -engine-parallelism.

// BudgetFrontierParams spans the budget-vs-accuracy grid.
type BudgetFrontierParams struct {
	// Ns and Taus span the workload grid.
	Ns, Taus []int
	// Fractions are the budget ladder, as fractions of each workload's
	// calibrated unbudgeted audit cost (1.0 reproduces the full audit).
	Fractions []float64
	// SetSize is the set-query bound n.
	SetSize int
	// MinorityCounts shapes each dataset (majority absorbs the rest),
	// audited as one group per value of a single 4-ary attribute.
	MinorityCounts []int
}

// DefaultBudgetFrontierParams keeps `-exp all` runs quick while still
// crossing two sizes, two thresholds and a four-step budget ladder.
func DefaultBudgetFrontierParams() BudgetFrontierParams {
	return BudgetFrontierParams{
		Ns:             []int{2_000, 8_000},
		Taus:           []int{20, 40},
		Fractions:      []float64{0.25, 0.5, 0.75, 1.0},
		SetSize:        50,
		MinorityCounts: []int{12, 8, 5},
	}
}

// BudgetFrontierRow is one (workload, budget) cell's outcome.
type BudgetFrontierRow struct {
	N, Tau int
	// Fraction of the calibrated cost and the resulting HIT cap.
	Fraction float64
	MaxHITs  int
	// Tasks is the mean committed task count (never above MaxHITs).
	Tasks float64
	// Settled is the mean fraction of groups with a definite verdict.
	Settled float64
	// Accuracy is the mean fraction of groups whose verdict is settled
	// AND matches ground truth (unsettled groups score zero).
	Accuracy float64
	// ExhaustedFrac is the fraction of trials that hit the cap.
	ExhaustedFrac float64
}

// BudgetFrontierResult is the grid outcome.
type BudgetFrontierResult struct {
	Params BudgetFrontierParams
	// Calibration holds each workload's unbudgeted task cost.
	Calibration map[[2]int]int
	Rows        []BudgetFrontierRow
}

// String renders the budget-vs-accuracy curve per workload.
func (r *BudgetFrontierResult) String() string {
	t := stats.NewTable("N", "tau", "budget frac", "max HITs", "committed", "settled", "verdict accuracy", "exhausted trials")
	for _, row := range r.Rows {
		t.AddRow(row.N, row.Tau,
			fmt.Sprintf("%.2f", row.Fraction), row.MaxHITs,
			fmt.Sprintf("%.1f", row.Tasks),
			fmt.Sprintf("%.2f", row.Settled),
			fmt.Sprintf("%.2f", row.Accuracy),
			fmt.Sprintf("%.2f", row.ExhaustedFrac))
	}
	return fmt.Sprintf("Budget frontier: verdict accuracy vs spend cap across N x tau (n=%d, lockstep engine)\n%s",
		r.Params.SetSize, t.String())
}

// bfObservation is one trial's scores.
type bfObservation struct {
	tasks, settled, accuracy float64
	exhausted                bool
}

// RunBudgetFrontier runs the grid: per workload one fixed dataset, a
// calibration audit at the cell's base seed, then one cell per budget
// fraction whose trials audit under a HIT cap; the artifact is
// invariant to -engine-parallelism.
func RunBudgetFrontier(p BudgetFrontierParams, o Options) (*BudgetFrontierResult, error) {
	s := oneAttrSchema(4)
	groups := pattern.GroupsForAttribute(s, 0)

	type workload struct {
		n, tau   int
		ids      []dataset.ObjectID
		oracle   *core.TruthOracle
		covered  []bool // ground truth per group
		baseline int
	}
	type cell struct {
		wi       int
		fraction float64
		maxHITs  int
	}
	var workloads []*workload
	var cells []cell
	var cfgs []experiment.Config
	for ni, n := range p.Ns {
		for ti, tau := range p.Taus {
			seedOffset := int64(10_000*ni + 1_000*ti)
			d, err := dataset.FromCounts(s, buildCounts(4, n, p.MinorityCounts),
				rand.New(rand.NewSource(o.Seed+seedOffset)))
			if err != nil {
				return nil, err
			}
			w := &workload{n: n, tau: tau, ids: d.IDs(), oracle: core.NewTruthOracle(d)}
			for _, g := range groups {
				count := 0
				for i := 0; i < d.Size(); i++ {
					if g.Matches(d.At(i).Labels) {
						count++
					}
				}
				w.covered = append(w.covered, count >= tau)
			}
			// Calibration: the unbudgeted cost at the cell's base seed
			// anchors the budget ladder deterministically.
			calib, err := core.MultipleCoverage(w.oracle, w.ids, p.SetSize, tau, groups,
				core.MultipleOptions{Rng: rand.New(rand.NewSource(o.Seed + seedOffset))})
			if err != nil {
				return nil, err
			}
			w.baseline = calib.Tasks
			wi := len(workloads)
			workloads = append(workloads, w)
			for _, frac := range p.Fractions {
				maxHITs := int(math.Ceil(frac * float64(w.baseline)))
				if maxHITs < 1 {
					maxHITs = 1
				}
				cells = append(cells, cell{wi: wi, fraction: frac, maxHITs: maxHITs})
				cfgs = append(cfgs, o.cell(fmt.Sprintf("budget-frontier/N=%d/tau=%d/frac=%.2f", n, tau, frac), seedOffset))
			}
		}
	}

	results, err := experiment.RunMany(cfgs, func(ci int, t experiment.Trial) (bfObservation, error) {
		c := cells[ci]
		w := workloads[c.wi]
		// Each trial owns its governor (the budget is per audit, the
		// truth oracle is shared and concurrency-safe).
		width := engineWidth(t, 1)
		l, err := core.Stack{Budget: &core.Budget{MaxHITs: c.maxHITs}, Parallelism: width}.Build(w.oracle)
		if err != nil {
			return bfObservation{}, err
		}
		mres, err := core.MultipleCoverage(l.Top, w.ids, p.SetSize, w.tau, groups,
			core.MultipleOptions{Rng: t.Rng, Parallelism: width})
		if err != nil {
			return bfObservation{}, err
		}
		obs := bfObservation{tasks: float64(mres.Tasks), exhausted: mres.Exhausted}
		for gi, r := range mres.Results {
			if !r.Settled {
				continue
			}
			obs.settled++
			if r.Covered == w.covered[gi] {
				obs.accuracy++
			}
		}
		obs.settled /= float64(len(groups))
		obs.accuracy /= float64(len(groups))
		return obs, nil
	})
	if err != nil {
		return nil, err
	}

	res := &BudgetFrontierResult{Params: p, Calibration: map[[2]int]int{}}
	for _, w := range workloads {
		res.Calibration[[2]int{w.n, w.tau}] = w.baseline
	}
	for ci, c := range cells {
		r := results[ci]
		row := BudgetFrontierRow{
			N: workloads[c.wi].n, Tau: workloads[c.wi].tau,
			Fraction: c.fraction, MaxHITs: c.maxHITs,
			Tasks:    r.Mean(func(v bfObservation) float64 { return v.tasks }),
			Settled:  r.Mean(func(v bfObservation) float64 { return v.settled }),
			Accuracy: r.Mean(func(v bfObservation) float64 { return v.accuracy }),
			ExhaustedFrac: r.Mean(func(v bfObservation) float64 {
				if v.exhausted {
					return 1
				}
				return 0
			}),
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

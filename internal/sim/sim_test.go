package sim

import (
	"strings"
	"testing"
)

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 22 {
		t.Fatalf("registry has %d experiments, want 22 (2 tables + 2 fig6 + 8 fig7 + 10 extensions)", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Paper == "" || e.Description == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Lookup("table1"); !ok {
		t.Error("Lookup(table1) failed")
	}
	if _, ok := Lookup("nonsense"); ok {
		t.Error("Lookup(nonsense) should miss")
	}
}

func TestRunTable1ShapeMatchesPaper(t *testing.T) {
	// Integration test: the full crowd pipeline (glyph rendering,
	// noisy workers, majority vote, ledger) under all three
	// quality-control settings. The paper's shape: Group-Coverage in
	// the 60-90 HIT range, Base-Coverage in the 250-450 range, upper
	// bound 115, all runs agreeing the female group is covered.
	res, err := RunTable1(DefaultTable1Params(), Options{Seed: 17, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.Covered {
			t.Errorf("%s: females must be covered", row.QualityControl)
		}
		if row.UpperBoundHITs != 115 {
			t.Errorf("%s: upper bound = %d, want 115", row.QualityControl, row.UpperBoundHITs)
		}
		if row.GroupCoverageHITs < 40 || row.GroupCoverageHITs > 120 {
			t.Errorf("%s: Group-Coverage HITs = %.1f, expected 40-120",
				row.QualityControl, row.GroupCoverageHITs)
		}
		if row.BaseCoverageHITs < 180 || row.BaseCoverageHITs > 600 {
			t.Errorf("%s: Base-Coverage HITs = %.1f, expected 180-600",
				row.QualityControl, row.BaseCoverageHITs)
		}
		if row.GroupCoverageHITs*2 > row.BaseCoverageHITs {
			t.Errorf("%s: Group-Coverage (%.1f) should at least halve Base-Coverage (%.1f)",
				row.QualityControl, row.GroupCoverageHITs, row.BaseCoverageHITs)
		}
		if row.TotalCostUSD <= 0 {
			t.Errorf("%s: zero cost", row.QualityControl)
		}
	}
	out := res.String()
	if !strings.Contains(out, "Majority Vote") || !strings.Contains(out, "115") {
		t.Errorf("rendering missing cells:\n%s", out)
	}
}

func TestRunTable2ShapeMatchesPaper(t *testing.T) {
	res, err := RunTable2(Options{Seed: 23, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(res.Rows))
	}
	// Paper strategies: partition for the two precise FERET DeepFace
	// rows, label everywhere else. Row 5 (BaseCNN on UTKFace-200F,
	// precision 74.8 %) sits exactly on the 25 % false-positive
	// boundary, so its sampled estimate legitimately lands on either
	// side; both strategies are accepted there.
	wantStrategy := []string{
		"partition", "partition", "label",
		"label", "label", "",
		"label", "label", "label",
	}
	for i, row := range res.Rows {
		if wantStrategy[i] != "" && row.Strategy != wantStrategy[i] {
			t.Errorf("row %d (%s on %s): strategy %s, want %s",
				i, row.Classifier, row.Dataset, row.Strategy, wantStrategy[i])
		}
	}
	// Verdicts: FERET (403F) and UTKFace-200F covered, UTKFace-20F not.
	for i, row := range res.Rows {
		wantCovered := i < 6
		if row.Covered != wantCovered {
			t.Errorf("row %d: covered=%v, want %v", i, row.Covered, wantCovered)
		}
	}
	// Precise classifiers (FERET DeepFace rows) must beat standalone
	// Group-Coverage by a wide margin.
	for i := 0; i < 2; i++ {
		if res.Rows[i].ClassifierCoverageHITs*2 > res.Rows[i].GroupCoverageHITs {
			t.Errorf("row %d: CC %.1f vs GC %.1f, want >= 2x savings",
				i, res.Rows[i].ClassifierCoverageHITs, res.Rows[i].GroupCoverageHITs)
		}
	}
	// Imprecise classifiers on the uncovered UTKFace slice: verifying
	// "uncovered" requires sweeping D-G regardless, so the classifier
	// cannot win much; it must at least stay in the same cost regime
	// as standalone Group-Coverage (see EXPERIMENTS.md for why the
	// paper's absolute numbers here undercount the residual sweep).
	for i := 6; i < 9; i++ {
		if res.Rows[i].ClassifierCoverageHITs > 1.4*res.Rows[i].GroupCoverageHITs {
			t.Errorf("row %d: CC %.1f vs GC %.1f, want within 1.4x",
				i, res.Rows[i].ClassifierCoverageHITs, res.Rows[i].GroupCoverageHITs)
		}
	}
	if !strings.Contains(res.String(), "DeepFace") {
		t.Error("rendering missing classifier names")
	}
}

func TestRunFigure6aShape(t *testing.T) {
	res, err := RunFigure6a(Options{Seed: 29, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(res.Points))
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if first.AccDisparity < 0.03 {
		t.Errorf("initial disparity %.4f too small to demonstrate the effect", first.AccDisparity)
	}
	if last.AccDisparity > first.AccDisparity*0.7 {
		t.Errorf("disparity did not shrink: %.4f -> %.4f", first.AccDisparity, last.AccDisparity)
	}
	if !strings.Contains(res.String(), "drowsiness") {
		t.Error("rendering missing name")
	}
}

func TestRunFigure6bSmallerThan6a(t *testing.T) {
	a, err := RunFigure6a(Options{Seed: 31, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFigure6b(Options{Seed: 31, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b.Points[0].AccDisparity >= a.Points[0].AccDisparity {
		t.Errorf("gender disparity %.4f should be below drowsiness %.4f",
			b.Points[0].AccDisparity, a.Points[0].AccDisparity)
	}
}

// smallFigure7Params shrinks the sweep for test speed while keeping
// the shape observable.
func smallFigure7Params() Figure7Params {
	return Figure7Params{N: 20_000, Tau: 50, SetSize: 50, BaseCoverage: true}
}

func TestRunFigure7aPeaksNearTau(t *testing.T) {
	p := smallFigure7Params()
	res, err := RunFigure7a(p, Options{Seed: 37, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 11 {
		t.Fatalf("points = %d, want 11", len(res.Points))
	}
	// Find the peak of Group-Coverage cost; it must sit near f=tau and
	// dominate both endpoints.
	peakX, peakV := 0, 0.0
	for _, pt := range res.Points {
		if pt.GroupCoverage > peakV {
			peakX, peakV = pt.X, pt.GroupCoverage
		}
	}
	if peakX < 30 || peakX > 60 {
		t.Errorf("cost peak at f=%d, want near tau=50", peakX)
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if first.GroupCoverage >= peakV || last.GroupCoverage >= peakV {
		t.Errorf("endpoints (%.1f, %.1f) should lie below the peak %.1f",
			first.GroupCoverage, last.GroupCoverage, peakV)
	}
	// Base-Coverage dominates Group-Coverage near the peak.
	mid := res.Points[5]
	if mid.BaseCoverage <= mid.GroupCoverage {
		t.Errorf("at f=tau, Base (%.1f) must exceed Group-Coverage (%.1f)",
			mid.BaseCoverage, mid.GroupCoverage)
	}
	// Coverage verdict flips across the sweep: f<tau uncovered, f>tau covered.
	if res.Points[0].CoveredFraction != 0 || res.Points[10].CoveredFraction != 1 {
		t.Errorf("covered fractions wrong: %v, %v",
			res.Points[0].CoveredFraction, res.Points[10].CoveredFraction)
	}
}

func TestRunFigure7bLinearInTau(t *testing.T) {
	p := smallFigure7Params()
	res, err := RunFigure7b(p, Options{Seed: 41, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 11 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Monotone growth (up to noise): compare tau=10 vs tau=100.
	if res.Points[1].GroupCoverage >= res.Points[10].GroupCoverage {
		t.Errorf("cost at tau=10 (%.1f) should be below tau=100 (%.1f)",
			res.Points[1].GroupCoverage, res.Points[10].GroupCoverage)
	}
	// The worst case stays under the theoretical log2 bound.
	for _, pt := range res.Points {
		bound := float64(pt.X)*2*7 + float64(p.N)/float64(p.SetSize) + 2*float64(pt.X)
		if pt.GroupCoverage > bound {
			t.Errorf("tau=%d: %.1f tasks above generous bound %.1f", pt.X, pt.GroupCoverage, bound)
		}
	}
}

func TestRunFigure7cLogarithmicKnee(t *testing.T) {
	p := smallFigure7Params()
	res, err := RunFigure7c(p, Options{Seed: 43, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	byX := map[int]Figure7Point{}
	for _, pt := range res.Points {
		byX[pt.X] = pt
	}
	// n=1 costs about N tasks; n=50 must be dramatically cheaper; the
	// tail (n=50 vs n=400) changes comparatively little.
	if byX[1].GroupCoverage < float64(p.N)*0.9 {
		t.Errorf("n=1 cost %.1f, want ~N=%d", byX[1].GroupCoverage, p.N)
	}
	if byX[50].GroupCoverage*10 > byX[1].GroupCoverage {
		t.Errorf("n=50 (%.1f) should be >=10x cheaper than n=1 (%.1f)",
			byX[50].GroupCoverage, byX[1].GroupCoverage)
	}
	tailRatio := byX[400].GroupCoverage / byX[50].GroupCoverage
	if tailRatio > 2.0 || tailRatio < 0.2 {
		t.Errorf("tail should be flat-ish: n=400/n=50 ratio = %.2f", tailRatio)
	}
}

func TestRunFigure7dLinearAndUnder6Percent(t *testing.T) {
	p := smallFigure7Params()
	p.BaseCoverage = false // keep the large-N test quick
	res, err := RunFigure7d(p, Options{Seed: 47, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Points {
		frac := pt.GroupCoverage / float64(pt.X)
		// The paper's "< 6 % of N" claim matches the plotted range
		// (N >= 10^5); at N = 1000 with f = tau the worst case is
		// intrinsically denser (even the theoretical upper bound is
		// ~10 % of N there).
		if pt.X >= 100_000 && frac > 0.06 {
			t.Errorf("N=%d: tasks are %.2f%% of N, paper reports < 6%%", pt.X, 100*frac)
		}
		if frac > 0.35 {
			t.Errorf("N=%d: tasks are %.2f%% of N, absurdly high", pt.X, 100*frac)
		}
	}
	// Linear growth: 1M costs roughly 10x of 100K (within 3x slack).
	var at100k, at1m float64
	for _, pt := range res.Points {
		if pt.X == 100_000 {
			at100k = pt.GroupCoverage
		}
		if pt.X == 1_000_000 {
			at1m = pt.GroupCoverage
		}
	}
	ratio := at1m / at100k
	if ratio < 3 || ratio > 30 {
		t.Errorf("1M/100K cost ratio = %.1f, want ~10", ratio)
	}
}

func TestRunFigure7eTable3Shapes(t *testing.T) {
	res, err := RunFigure7e(DefaultMultiParams(), Options{Seed: 53, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	rows := map[string]MultiRow{}
	for _, r := range res.Rows {
		rows[r.Setting] = r
	}
	// effective 1: joint audit of rare minorities wins clearly.
	if e1 := rows["effective 1"]; e1.HeuristicTasks >= e1.BruteTasks {
		t.Errorf("effective 1: heuristic %.1f should beat brute %.1f",
			e1.HeuristicTasks, e1.BruteTasks)
	}
	// adversarial: the covered super-group costs a penalty.
	if adv := rows["adversarial"]; adv.HeuristicTasks <= adv.BruteTasks {
		t.Errorf("adversarial: heuristic %.1f should lose to brute %.1f",
			adv.HeuristicTasks, adv.BruteTasks)
	}
}

func TestRunFigure7fIntersectionalShapes(t *testing.T) {
	res, err := RunFigure7f(DefaultMultiParams(), Options{Seed: 59, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	rows := map[string]MultiRow{}
	for _, r := range res.Rows {
		rows[r.Setting] = r
	}
	if e1 := rows["effective 1"]; e1.HeuristicTasks >= e1.BruteTasks {
		t.Errorf("effective 1: heuristic %.1f should beat brute %.1f",
			e1.HeuristicTasks, e1.BruteTasks)
	}
}

func TestRunFigure7gGapGrowsWithCardinality(t *testing.T) {
	res, err := RunFigure7g(DefaultMultiParams(), Options{Seed: 61, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want sigma 3..6", len(res.Rows))
	}
	// In the effective regime, the heuristic wins at every sigma and
	// the absolute gap widens from sigma=3 to sigma=6.
	for _, r := range res.Rows {
		if r.HeuristicTasks >= r.BruteTasks {
			t.Errorf("%s: heuristic %.1f should beat brute %.1f",
				r.Setting, r.HeuristicTasks, r.BruteTasks)
		}
	}
	gapFirst := res.Rows[0].BruteTasks - res.Rows[0].HeuristicTasks
	gapLast := res.Rows[3].BruteTasks - res.Rows[3].HeuristicTasks
	if gapLast <= gapFirst {
		t.Errorf("gap should widen with cardinality: sigma=3 gap %.1f vs sigma=6 gap %.1f",
			gapFirst, gapLast)
	}
}

func TestRunFigure7hSchemasAgree(t *testing.T) {
	res, err := RunFigure7h(DefaultMultiParams(), Options{Seed: 67, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	// The paper's point: only the number of fully-specified subgroups
	// matters, so (2,4) and (2,2,2) land close together.
	a, b := res.Rows[0].HeuristicTasks, res.Rows[1].HeuristicTasks
	hi, lo := a, b
	if lo > hi {
		hi, lo = lo, hi
	}
	if hi > 1.6*lo {
		t.Errorf("(2,4)=%.1f and (2,2,2)=%.1f should be similar", a, b)
	}
}

func TestTable3SettingsDescriptions(t *testing.T) {
	settings := Table3Settings()
	if len(settings) != 4 {
		t.Fatalf("settings = %d", len(settings))
	}
	for _, s := range settings {
		if s.Name == "" || s.Description == "" || len(s.MinorityCounts) != 3 {
			t.Errorf("malformed setting %+v", s)
		}
	}
	// effective 1 and adversarial both have all minorities uncovered
	// at tau=50, differing in whether the sum crosses tau.
	sum := func(xs []int) int {
		t := 0
		for _, x := range xs {
			t += x
		}
		return t
	}
	if sum(settings[0].MinorityCounts) >= 50 {
		t.Error("effective 1 minorities must sum below tau")
	}
	if sum(settings[3].MinorityCounts) < 50 {
		t.Error("adversarial minorities must sum above tau")
	}
}

func TestBuildCountsConservesN(t *testing.T) {
	counts := buildCounts(4, 10_000, []int{10, 8, 6})
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 10_000 {
		t.Errorf("total = %d", total)
	}
	ic := intersectionalCounts(8, 10_000, []int{10, 8, 6})
	total = 0
	for _, c := range ic {
		total += c
	}
	if total != 10_000 {
		t.Errorf("intersectional total = %d", total)
	}
}

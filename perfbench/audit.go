package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"imagecvg"
	"imagecvg/internal/core"
	"imagecvg/internal/crowd"
	"imagecvg/internal/dataset"
	"imagecvg/internal/journal"
	"imagecvg/internal/pattern"
)

// nonBindingHITs caps the budget governor far above any audit here:
// the governor counts every HIT and checks admission, but never
// refuses — budget.refused must read 0.
const nonBindingHITs = 1 << 40

// How many times an audit workload builds its inputs in one run; the
// median is setup_s. A crowd-audit set-up takes milliseconds, so it
// repeats more often to steady the median.
const (
	crowdSetups = 25
	truthSetups = 9
)

// crowdParams shapes crowd-audit: one Multiple-Coverage audit of a
// 4-value attribute whose three minorities sit just below tau.
type crowdParams struct {
	n          int
	minorities []int
	tau, set   int
	probes     int
}

func crowdSize(tiny bool) crowdParams {
	p := crowdParams{n: 30_000, minorities: []int{30, 28, 26}, tau: 50, set: 10, probes: 8}
	if tiny {
		p.n = 3_000
	}
	return p
}

// truthParams shapes truth-audit: one Intersectional-Coverage audit
// over a 2x4x3 schema with planted maximal uncovered patterns.
type truthParams struct {
	n, tau, set int
}

func truthSize(tiny bool) truthParams {
	if tiny {
		return truthParams{n: 24_000, tau: 50, set: 10}
	}
	return truthParams{n: 500_000, tau: 50, set: 10}
}

func crowdDataset(p crowdParams, seed int64) (*dataset.Dataset, error) {
	s, err := pattern.NewSchema(pattern.Attribute{Name: "group", Values: []string{"v0", "v1", "v2", "v3"}})
	if err != nil {
		return nil, err
	}
	counts := []int{p.n}
	for _, m := range p.minorities {
		counts[0] -= m
		counts = append(counts, m)
	}
	return dataset.FromCounts(s, counts, rand.New(rand.NewSource(seed)))
}

// truthDataset draws every subgroup near n/24, then plants the same
// uncovered patterns for every seed: three leaves below tau and one
// level-2 pattern whose three leaves sum below tau. The planted shape
// decides how the audit aggregates and batches, so it is fixed; the
// seed varies the large counts, the object order and the audit's
// sampling.
func truthDataset(p truthParams, seed int64) (*dataset.Dataset, error) {
	s, err := pattern.NewSchema(
		pattern.Attribute{Name: "a", Values: []string{"a0", "a1"}},
		pattern.Attribute{Name: "b", Values: []string{"b0", "b1", "b2", "b3"}},
		pattern.Attribute{Name: "c", Values: []string{"c0", "c1", "c2"}},
	)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	base := p.n / s.NumSubgroups()
	counts := make([]int, s.NumSubgroups())
	for i := range counts {
		counts[i] = base - base/10 + rng.Intn(base/5+1)
	}
	set := func(count int, slots ...int) {
		counts[pattern.SubgroupIndex(s, pattern.MustPattern(s, slots...))] = count
	}
	// a1 AND b2: its three leaves sum to 30 < tau.
	set(12, 1, 2, 0)
	set(10, 1, 2, 1)
	set(8, 1, 2, 2)
	// Three lone uncovered leaves.
	set(40, 0, 1, 0)
	set(25, 0, 3, 2)
	set(5, 1, 0, 1)
	return dataset.FromCounts(s, counts, rng)
}

// fingerprint is the exact work a workload did for a seed. It must
// repeat across repetitions in a run, across runs, and between the
// traced and untraced runs; a mismatch fails the run.
type fingerprint struct {
	Tasks        int64 `json:"tasks"`
	HITs         int64 `json:"hits"`
	ProbeHITs    int64 `json:"probe_hits"`
	Rounds       int64 `json:"rounds"`
	JournalBytes int64 `json:"journal_bytes"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("tasks=%d hits=%d probe_hits=%d rounds=%d journal_bytes=%d",
		f.Tasks, f.HITs, f.ProbeHITs, f.Rounds, f.JournalBytes)
}

// verdict is one group's outcome, compared between an audit and its
// resume and against ground truth.
type verdict struct {
	group            string
	covered, settled bool
	lo, hi           int
}

func verdictsOf(res *core.MultipleResult) []verdict {
	out := make([]verdict, len(res.Results))
	for i, r := range res.Results {
		out[i] = verdict{r.Group.Name, r.Covered, r.Settled, r.CountLo, r.CountHi}
	}
	return out
}

// checkGroundTruth is the crowd-audit correctness gate: every group
// settled with the verdict the dataset's true counts give.
func checkGroundTruth(ds *dataset.Dataset, groups []pattern.Group, tau int, got []verdict) error {
	if len(got) != len(groups) {
		return fmt.Errorf("audit returned %d verdicts for %d groups", len(got), len(groups))
	}
	for i, g := range groups {
		want := ds.CountGroup(g) >= tau
		if !got[i].settled || got[i].covered != want {
			return fmt.Errorf("group %s: verdict covered=%v settled=%v, ground truth covered=%v",
				g.Name, got[i].covered, got[i].settled, want)
		}
	}
	return nil
}

// auditRun is one audit (and, on crowd-audit, its resume).
type auditRun struct {
	wall       time.Duration
	resumeWall time.Duration
	tasks      int
	fp         fingerprint
	rt         runtimeDelta
	held       any // the auditor, kept reachable for heap_mb
}

// crowdEnv is crowd-audit's fixed input.
type crowdEnv struct {
	p       crowdParams
	ds      *dataset.Dataset
	groups  []pattern.Group
	seed    int64
	width   int
	jnlPath string
	// want, when set, replaces the dataset's ground truth — used only
	// by the benchmark's own test to show the gate catches a wrong
	// verdict.
	want []verdict
}

func (e *crowdEnv) crowdConfig() crowd.Config {
	cfg := crowd.DefaultConfig(e.seed)
	cfg.Responses = &crowd.ResponseLog{}
	return cfg
}

func (e *crowdEnv) probes() []core.GoldProbe {
	return core.GoldProbes(e.ds, e.groups, e.p.probes, e.seed+99)
}

// auditor builds the stack cvgrun -crowd -journal -trust -cache
// -max-hits builds: cache → trust → file journal → governor → crowd.
func (e *crowdEnv) auditor(sc *imagecvg.SimulatedCrowd, jnl imagecvg.RoundJournal, replay []imagecvg.RoundRecord) (*imagecvg.Auditor, error) {
	a := imagecvg.NewAuditor(sc, e.p.tau, e.p.set).WithSeed(e.seed).WithParallelism(e.width).WithLockstep()
	a = a.WithBudget(imagecvg.Budget{MaxHITs: nonBindingHITs, Cost: sc.HITCost()})
	a = a.WithJournal(jnl, replay)
	a, err := a.WithTrust(imagecvg.TrustConfig{Probes: e.probes(), Feed: sc.AnswerFeed(), Screen: sc.Screener()})
	if err != nil {
		return nil, err
	}
	return a.WithCache(), nil
}

func (e *crowdEnv) newCrowd() (*imagecvg.SimulatedCrowd, error) {
	return imagecvg.NewSimulatedCrowd(e.ds, e.seed, imagecvg.CrowdOptions{RecordResponses: true})
}

// check gates one audit: no refusals, and the ground-truth verdicts.
func (e *crowdEnv) check(res *core.MultipleResult, denied int) error {
	if res.Exhausted || denied != 0 {
		return fmt.Errorf("non-binding governor refused %d queries", denied)
	}
	if e.want != nil {
		if !slices.Equal(verdictsOf(res), e.want) {
			return fmt.Errorf("verdicts %v differ from expected %v", verdictsOf(res), e.want)
		}
		return nil
	}
	return checkGroundTruth(e.ds, e.groups, e.p.tau, verdictsOf(res))
}

// checkResume gates a resume: identical verdicts and tasks, every
// round replayed, zero live HITs posted to the fresh crowd.
func checkResume(first, resumed *core.MultipleResult, replayed, rounds, liveHITs int) error {
	if !slices.Equal(verdictsOf(first), verdictsOf(resumed)) || first.Tasks != resumed.Tasks {
		return fmt.Errorf("resume returned %v (%d tasks), audit %v (%d tasks)",
			verdictsOf(resumed), resumed.Tasks, verdictsOf(first), first.Tasks)
	}
	if liveHITs != 0 || replayed != rounds {
		return fmt.Errorf("resume posted %d live HITs, replayed %d of %d rounds", liveHITs, replayed, rounds)
	}
	return nil
}

// runCrowd is one untraced crowd-audit: the audit through the public
// Auditor, then a fresh Auditor resumed from its journal.
func (e *crowdEnv) runCrowd() (auditRun, error) {
	var r auditRun
	sc, err := e.newCrowd()
	if err != nil {
		return r, err
	}
	m0 := readRuntime()
	t0 := time.Now()
	jnl, err := imagecvg.CreateJournal(e.jnlPath)
	if err != nil {
		return r, err
	}
	a, err := e.auditor(sc, jnl, nil)
	if err != nil {
		jnl.Close()
		return r, err
	}
	res, err := a.AuditAttribute(e.ds.IDs(), e.ds.Schema(), 0)
	if cerr := jnl.Close(); err == nil {
		err = cerr
	}
	r.wall = time.Since(t0)
	r.rt = readRuntime().since(m0)
	if err != nil {
		return r, fmt.Errorf("crowd audit: %w", err)
	}
	spent, _ := a.BudgetSpent()
	if err := e.check(res, spent.Denied); err != nil {
		return r, err
	}
	_, rounds, _ := a.JournalStats()
	report, _ := a.TrustStats()
	size, err := fileSize(e.jnlPath)
	if err != nil {
		return r, err
	}
	r.tasks = res.Tasks
	r.fp = fingerprint{Tasks: int64(res.Tasks), HITs: int64(sc.Cost().TotalHITs),
		ProbeHITs: int64(report.ProbesIssued), Rounds: int64(rounds), JournalBytes: size}

	sc2, err := e.newCrowd()
	if err != nil {
		return r, err
	}
	t1 := time.Now()
	jnl2, replay, err := imagecvg.OpenJournal(e.jnlPath)
	if err != nil {
		return r, err
	}
	a2, err := e.auditor(sc2, jnl2, replay)
	if err != nil {
		jnl2.Close()
		return r, err
	}
	res2, err := a2.AuditAttribute(e.ds.IDs(), e.ds.Schema(), 0)
	if cerr := jnl2.Close(); err == nil {
		err = cerr
	}
	r.resumeWall = time.Since(t1)
	if err != nil {
		return r, fmt.Errorf("crowd resume: %w", err)
	}
	replayed, rounds2, _ := a2.JournalStats()
	if err := checkResume(res, res2, replayed, rounds2, sc2.Cost().TotalHITs); err != nil {
		return r, err
	}
	r.held = a
	return r, nil
}

// crowdTraced rebuilds the same stack from the internal/core
// constructors with a timing shim at every boundary, runs the audit,
// and derives the per-layer metrics. The resume reuses the journal the
// traced audit wrote.
func (e *crowdEnv) runCrowdTraced(tr *tracer) (auditRun, map[string]float64, error) {
	var r auditRun
	cfg := e.crowdConfig()
	plat, err := crowd.NewPlatform(e.ds, cfg)
	if err != nil {
		return r, nil, err
	}
	file, err := journal.Create(e.jnlPath)
	if err != nil {
		return r, nil, err
	}
	gov := core.NewBudgetedOracle(tr.shim("crowd", plat, e.width), core.Budget{MaxHITs: nonBindingHITs, Cost: plat.HITCost()})
	jo := core.NewJournalingOracle(tr.shim("budget", gov, e.width), &timedJournal{inner: file, tr: tr}, nil, gov)
	trust, err := core.NewTrustOracle(tr.shim("journal", jo, e.width),
		core.TrustConfig{Probes: e.probes(), Feed: cfg.Responses, Screen: plat})
	if err != nil {
		file.Close()
		return r, nil, err
	}
	cache := core.NewCachingOracle(tr.shim("trust", trust, e.width))
	top := tr.shim("cache", cache, e.width)

	t0 := time.Now()
	res, err := core.MultipleCoverage(top, e.ds.IDs(), e.p.set, e.p.tau, e.groups, e.options())
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	r.wall = time.Since(t0)
	if err != nil {
		return r, nil, fmt.Errorf("traced crowd audit: %w", err)
	}
	if err := e.check(res, gov.Spent().Denied); err != nil {
		return r, nil, err
	}
	size, err := fileSize(e.jnlPath)
	if err != nil {
		return r, nil, err
	}
	ledger := plat.Ledger().Snapshot()
	report := trust.Report()
	r.tasks = res.Tasks
	r.fp = fingerprint{Tasks: int64(res.Tasks), HITs: int64(ledger.TotalHITs),
		ProbeHITs: int64(report.ProbesIssued), Rounds: int64(jo.Rounds()), JournalBytes: size}

	tot, err := tr.totals()
	if err != nil {
		return r, nil, err
	}
	m := zeroLayers()
	auditLayers(m, tot, tr.rounds, r.wall)
	m["cache.hit_ratio"] = cache.Stats().HitRate()
	m["budget.refused"] = float64(gov.Spent().Denied)
	m["crowd.assignments"] = float64(ledger.Assignments)
	m["trust.probe_hits"] = float64(report.ProbesIssued)
	m["journal.rounds"] = float64(jo.Rounds())
	if jo.Rounds() > 0 {
		m["journal.bytes_per_round"] = float64(size-int64(len("CVGJNL01"))) / float64(jo.Rounds())
	}
	if a := tot["journal.append"]; a != nil {
		m["journal.append_p50_us"] = quantile(a.durs, 0.5) * 1e3
		v, _ := tail(a.durs)
		m["journal.append_p99_us"] = v * 1e3
	}

	// Resume from the traced journal through the same constructors.
	cfg2 := e.crowdConfig()
	plat2, err := crowd.NewPlatform(e.ds, cfg2)
	if err != nil {
		return r, nil, err
	}
	t1 := time.Now()
	file2, replay, err := journal.Open(e.jnlPath)
	if err != nil {
		return r, nil, err
	}
	m["journal.load_s"] = time.Since(t1).Seconds()
	gov2 := core.NewBudgetedOracle(plat2, core.Budget{MaxHITs: nonBindingHITs, Cost: plat2.HITCost()})
	jo2 := core.NewJournalingOracle(gov2, file2, replay, gov2)
	trust2, err := core.NewTrustOracle(jo2, core.TrustConfig{Probes: e.probes(), Feed: cfg2.Responses, Screen: plat2})
	if err != nil {
		file2.Close()
		return r, nil, err
	}
	res2, err := core.MultipleCoverage(core.NewCachingOracle(trust2), e.ds.IDs(), e.p.set, e.p.tau, e.groups, e.options())
	if cerr := file2.Close(); err == nil {
		err = cerr
	}
	r.resumeWall = time.Since(t1)
	if err != nil {
		return r, nil, fmt.Errorf("traced crowd resume: %w", err)
	}
	if err := checkResume(res, res2, jo2.Replayed(), jo2.Rounds(), plat2.Ledger().Snapshot().TotalHITs); err != nil {
		return r, nil, err
	}
	return r, m, nil
}

func (e *crowdEnv) options() core.MultipleOptions {
	return core.MultipleOptions{Rng: rand.New(rand.NewSource(e.seed)), Parallelism: e.width, Lockstep: true}
}

// truthEnv is truth-audit's fixed input.
type truthEnv struct {
	p     truthParams
	ds    *dataset.Dataset
	seed  int64
	width int
	// want, when set, replaces pattern.FindMUPs as the expected MUPs —
	// used only by the benchmark's own test.
	want []pattern.MUP
}

// roundCounter counts the rounds reaching the answer source, the
// truth-audit fingerprint's round count.
type roundCounter struct {
	core.BatchOracle
	rounds atomic.Int64
}

func (c *roundCounter) SetQueryBatch(reqs []core.SetRequest) ([]bool, error) {
	c.rounds.Add(1)
	return c.BatchOracle.SetQueryBatch(reqs)
}

func (c *roundCounter) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	c.rounds.Add(1)
	return c.BatchOracle.PointQueryBatch(ids)
}

func (c *roundCounter) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	c.rounds.Add(1)
	return c.BatchOracle.SetQuery(ids, g)
}

func (c *roundCounter) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	c.rounds.Add(1)
	return c.BatchOracle.ReverseSetQuery(ids, g)
}

func (c *roundCounter) PointQuery(id dataset.ObjectID) ([]int, error) {
	c.rounds.Add(1)
	return c.BatchOracle.PointQuery(id)
}

// checkMUPs is the truth-audit correctness gate: the audit's MUPs are
// pattern.FindMUPs on the dataset's exact counts, in order, and every
// pattern's verdict agrees with its true count. A MUP's count is exact
// only when its bounds close, so the gate checks that the bounds hold
// the true count rather than comparing counts.
func (e *truthEnv) checkMUPs(res *core.IntersectionalResult, denied int) error {
	if res.Exhausted || denied != 0 {
		return fmt.Errorf("non-binding governor refused %d queries", denied)
	}
	s := e.ds.Schema()
	counts := e.ds.SubgroupCounts()
	want := e.want
	if want == nil {
		want = pattern.FindMUPs(s, counts, e.p.tau)
	}
	if len(res.MUPs) != len(want) {
		return fmt.Errorf("audit found %d MUPs, want %d", len(res.MUPs), len(want))
	}
	for i, m := range res.MUPs {
		if !m.Pattern.Equal(want[i].Pattern) {
			return fmt.Errorf("audit found MUP %d %s, want %s", i, m.Pattern.Format(s), want[i].Pattern.Format(s))
		}
	}
	for key, n := range pattern.AllCounts(s, counts) {
		v, ok := res.Verdicts[key]
		if !ok || (v.Coverage == pattern.Covered) != (n >= e.p.tau) || v.Bounds.Lo > n || v.Bounds.Hi < n {
			return fmt.Errorf("pattern %s: verdict %v bounds [%d, %d], true count %d",
				key, v.Coverage, v.Bounds.Lo, v.Bounds.Hi, n)
		}
	}
	return nil
}

// runTruth is one untraced truth-audit through the public Auditor:
// cache → non-binding governor → truth oracle.
func (e *truthEnv) runTruth() (auditRun, error) {
	var r auditRun
	leaf := imagecvg.NewTruthOracle(e.ds)
	counter := &roundCounter{BatchOracle: leaf}
	a := imagecvg.NewAuditor(counter, e.p.tau, e.p.set).WithSeed(e.seed).WithParallelism(e.width).WithLockstep()
	a = a.WithBudget(imagecvg.Budget{MaxHITs: nonBindingHITs}).WithCache()
	m0 := readRuntime()
	t0 := time.Now()
	res, err := a.AuditIntersectional(e.ds.IDs(), e.ds.Schema())
	r.wall = time.Since(t0)
	r.rt = readRuntime().since(m0)
	if err != nil {
		return r, fmt.Errorf("truth audit: %w", err)
	}
	spent, _ := a.BudgetSpent()
	if err := e.checkMUPs(res, spent.Denied); err != nil {
		return r, err
	}
	r.tasks = res.Tasks
	r.fp = fingerprint{Tasks: int64(res.Tasks), HITs: int64(leaf.Tasks().Total()), Rounds: counter.rounds.Load()}
	r.held = a
	return r, nil
}

func (e *truthEnv) runTruthTraced(tr *tracer) (auditRun, map[string]float64, error) {
	var r auditRun
	leaf := core.NewTruthOracle(e.ds)
	counter := &roundCounter{BatchOracle: leaf}
	gov := core.NewBudgetedOracle(tr.shim("truth", counter, e.width), core.Budget{MaxHITs: nonBindingHITs})
	cache := core.NewCachingOracle(tr.shim("budget", gov, e.width))
	top := tr.shim("cache", cache, e.width)
	opts := core.MultipleOptions{Rng: rand.New(rand.NewSource(e.seed)), Parallelism: e.width, Lockstep: true}
	t0 := time.Now()
	res, err := core.IntersectionalCoverage(top, e.ds.IDs(), e.p.set, e.p.tau, e.ds.Schema(), opts)
	r.wall = time.Since(t0)
	if err != nil {
		return r, nil, fmt.Errorf("traced truth audit: %w", err)
	}
	if err := e.checkMUPs(res, gov.Spent().Denied); err != nil {
		return r, nil, err
	}
	r.tasks = res.Tasks
	r.fp = fingerprint{Tasks: int64(res.Tasks), HITs: int64(leaf.Tasks().Total()), Rounds: counter.rounds.Load()}
	tot, err := tr.totals()
	if err != nil {
		return r, nil, err
	}
	m := zeroLayers()
	auditLayers(m, tot, tr.rounds, r.wall)
	m["cache.hit_ratio"] = cache.Stats().HitRate()
	m["budget.refused"] = float64(gov.Spent().Denied)
	return r, m, nil
}

// auditLayers derives the span-based per-layer metrics of an audit:
// each middleware's self time per HIT entering it, and the lockstep
// scheduler's share — audit wall-clock outside the top-of-stack calls.
func auditLayers(m map[string]float64, tot map[string]*layerTotals, rounds int64, wall time.Duration) {
	perHit := func(name string) float64 {
		lt := tot[name]
		if lt == nil || lt.hits == 0 {
			return 0
		}
		return float64(lt.self) / float64(lt.hits)
	}
	m["cache.ns_per_hit"] = perHit("cache")
	m["trust.ns_per_hit"] = perHit("trust")
	m["journal.ns_per_hit"] = perHit("journal")
	m["budget.ns_per_hit"] = perHit("budget")
	m["crowd.ns_per_hit"] = perHit("crowd")
	if top := tot["cache"]; top != nil && top.hits > 0 {
		m["lockstep.rounds"] = float64(rounds)
		m["lockstep.hits_per_round"] = float64(top.hits) / float64(rounds)
		m["lockstep.ns_per_hit"] = float64(wall-top.total) / float64(top.hits)
	}
}

// zeroLayers starts a per-layer metric set with every declared metric
// at 0: a layer the workload does not run reads 0.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, s := range perLayer {
		m[s.name] = 0
	}
	return m
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// setupCPU runs one set-up and returns the process CPU seconds it
// took. Set-up is timed in CPU time because hypervisor steal stretches
// wall-clock time by a different amount on every run.
func setupCPU(setup func() error) (float64, error) {
	runtime.GC() // earlier garbage is not this set-up's cost
	r0 := readRuntime()
	if err := setup(); err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	return readRuntime().since(r0).cpu.Seconds(), nil
}

// runAudits drives an audit workload's untraced run: several set-ups,
// then whole audits until the next one would overrun the measuring
// window (at least one), each checked and fingerprinted. drop releases
// the previous set-up's inputs, so every set-up starts from the heap a
// fresh process has.
func runAudits(o *options, setups int, drop func(), setup func() error, one func() (auditRun, error), rep *report) ([]auditRun, error) {
	var setupS []float64
	for i := 0; i < setups; i++ {
		drop()
		s, err := setupCPU(setup)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
	}
	rep.metrics["setup_s"] = median(setupS)
	var runs []auditRun
	start := time.Now()
	for {
		rep.attempted++
		r, err := one()
		if err != nil {
			rep.failed++
			return runs, err
		}
		if len(runs) > 0 && r.fp != runs[0].fp {
			rep.failed++
			return runs, fmt.Errorf("fingerprint %v differs from the run's first audit %v", r.fp, runs[0].fp)
		}
		if len(runs) > 0 {
			runs[len(runs)-1].held = nil // only the last auditor stays live for heap_mb
		}
		runs = append(runs, r)
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(len(runs)) > o.seconds {
			break
		}
	}
	rep.fp = runs[0].fp
	var cpu, tps, wall []float64
	for _, r := range runs {
		cpu = append(cpu, float64(r.rt.cpu.Nanoseconds())/1e3/float64(r.tasks))
		tps = append(tps, float64(r.tasks)/r.wall.Seconds())
		wall = append(wall, ms(r.wall))
	}
	rep.metrics["heap_mb"] = liveHeapMB(runs[len(runs)-1].held)
	rep.metrics["tasks_per_s"] = median(tps)
	note := fmt.Sprintf("median of %d audits", len(runs))
	rep.extra = append(rep.extra,
		line{"cpu_us_per_task", "us", median(cpu), note},
		line{"job_p50_ms", "ms", median(wall), note})
	return runs, nil
}

// liveHeapMB is the post-GC live heap with held still reachable. The
// second cycle empties the sync.Pool caches, which hold no live data.
func liveHeapMB(held any) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(held)
	return float64(ms.HeapAlloc) / 1e6
}

func newCrowdEnv(o *options) *crowdEnv {
	return &crowdEnv{p: crowdSize(o.tiny), seed: o.seed, width: runtime.NumCPU(),
		jnlPath: filepath.Join(o.dataDir, "crowd-audit.jnl"), want: o.wantVerdicts}
}

// build is crowd-audit's set-up: the dataset, and one platform
// construction as a user pays it. Each audit then builds its own
// identically seeded platform, so every repetition does the same work.
func (e *crowdEnv) build() error {
	ds, err := crowdDataset(e.p, e.seed)
	if err != nil {
		return err
	}
	if _, err := crowd.NewPlatform(ds, e.crowdConfig()); err != nil {
		return err
	}
	e.ds, e.groups = ds, pattern.GroupsForAttribute(ds.Schema(), 0)
	return nil
}

func (e *truthEnv) build() error {
	ds, err := truthDataset(e.p, e.seed)
	if err != nil {
		return err
	}
	e.ds = ds
	return nil
}

func crowdAudit(o *options) (*report, error) {
	e := newCrowdEnv(o)
	rep := newReport()
	runs, err := runAudits(o, crowdSetups, func() { e.ds, e.groups = nil, nil }, e.build, e.runCrowd, rep)
	if err != nil {
		return rep, err
	}
	var replay []float64
	for _, r := range runs {
		replay = append(replay, float64(r.tasks)/r.resumeWall.Seconds())
	}
	rep.extra = append(rep.extra, line{"replay_tasks_per_s", "1/s", median(replay), fmt.Sprintf("median of %d resumes", len(runs))})
	return rep, nil
}

func truthAudit(o *options) (*report, error) {
	e := &truthEnv{p: truthSize(o.tiny), seed: o.seed, width: runtime.NumCPU(), want: o.wantMUPs}
	rep := newReport()
	_, err := runAudits(o, truthSetups, func() { e.ds = nil }, e.build, e.runTruth, rep)
	return rep, err
}

// tracedAudit runs one untraced and one traced repetition of an audit
// workload; the fingerprints must match, and the wall-clock difference
// is the tracing overhead.
func tracedAudit(setup func() error, plain func() (auditRun, error), traced func(*tracer) (auditRun, map[string]float64, error), o *options) (*report, error) {
	rep := newReport()
	build, err := setupCPU(setup)
	if err != nil {
		return rep, err
	}
	rep.attempted++
	u, err := plain()
	if err != nil {
		rep.failed++
		return rep, err
	}
	tr := newTracer()
	rep.attempted++
	t, m, err := traced(tr)
	if err != nil {
		rep.failed++
		return rep, err
	}
	if t.fp != u.fp {
		rep.failed++
		return rep, fmt.Errorf("traced fingerprint %v differs from untraced %v", t.fp, u.fp)
	}
	if err := tr.write(o.tracePath()); err != nil {
		return rep, err
	}
	rep.fp = u.fp
	m["dataset.build_s"] = build
	m["runtime.allocs_per_task"] = float64(u.rt.mallocs) / float64(u.tasks)
	m["runtime.gc_cpu_frac"] = u.rt.gcFrac
	m["trace.overhead_frac"] = t.wall.Seconds()/u.wall.Seconds() - 1
	rep.metrics = m
	return rep, nil
}

func crowdAuditTraced(o *options) (*report, error) {
	e := newCrowdEnv(o)
	return tracedAudit(e.build, e.runCrowd, e.runCrowdTraced, o)
}

func truthAuditTraced(o *options) (*report, error) {
	e := &truthEnv{p: truthSize(o.tiny), seed: o.seed, width: runtime.NumCPU(), want: o.wantMUPs}
	return tracedAudit(e.build, e.runTruth, e.runTruthTraced, o)
}

package imagecvg

import (
	"context"
	"errors"
	"math/rand"
	"sync"

	"imagecvg/internal/classifier"
	"imagecvg/internal/core"
	"imagecvg/internal/crowd"
	"imagecvg/internal/dataset"
	"imagecvg/internal/experiment"
	"imagecvg/internal/pattern"
	"imagecvg/internal/server"
	"imagecvg/internal/stats"
)

// Re-exported substrate types. Aliases keep the public surface small
// while letting callers hold and construct the underlying values.
type (
	// Schema describes the categorical attributes of interest.
	Schema = pattern.Schema
	// Attribute is one categorical attribute (name plus value names).
	Attribute = pattern.Attribute
	// Pattern identifies a subgroup; Wildcard slots are unspecified.
	Pattern = pattern.Pattern
	// Group is a (possibly super-) demographic group.
	Group = pattern.Group
	// MUP is a maximal uncovered pattern.
	MUP = pattern.MUP
	// Coverage is the covered/uncovered/unknown verdict enum.
	Coverage = pattern.Coverage

	// Dataset is an ordered collection of objects with hidden labels.
	Dataset = dataset.Dataset
	// ObjectID names one object of a dataset.
	ObjectID = dataset.ObjectID
	// Preset is a named dataset composition from the paper.
	Preset = dataset.Preset

	// Oracle answers point, set and reverse-set queries. Implement it
	// to bridge the auditor to a real crowdsourcing platform.
	Oracle = core.Oracle
	// Budget caps the crowd tasks an audit may commit (max HITs,
	// per-kind caps, max spend under a CostFunc); see Auditor.WithBudget.
	Budget = core.Budget
	// BudgetSpent is a snapshot of committed budget consumption.
	BudgetSpent = core.BudgetSpent
	// CostFunc prices one committed query for Budget.MaxSpend
	// accounting; SimulatedCrowd.HITCost derives one from the
	// deployment's pricing model.
	CostFunc = core.CostFunc
	// HITKind names the three crowd task types for budget pricing.
	HITKind = core.HITKind
	// GroupResult reports one group audit.
	GroupResult = core.GroupResult
	// MultipleResult reports a Multiple-Coverage audit.
	MultipleResult = core.MultipleResult
	// IntersectionalResult reports MUP discovery.
	IntersectionalResult = core.IntersectionalResult
	// ClassifierResult reports a classifier-assisted audit.
	ClassifierResult = core.ClassifierResult

	// SimulatedClassifier realizes a published confusion matrix.
	SimulatedClassifier = classifier.Simulated
	// Confusion is a binary confusion matrix with derived metrics.
	Confusion = classifier.Confusion

	// Response is one worker's raw (pre-aggregation) answer to one
	// HIT, the unit of the truth-inference estimators.
	Response = crowd.Response
	// DSResult is the Dawid–Skene estimator's output: MAP truth,
	// posteriors, worker accuracies.
	DSResult = crowd.DSResult
	// IncrementalDS folds new responses into Dawid–Skene sufficient
	// statistics and re-runs EM warm-started from the previous
	// posteriors; see SimulatedCrowd.Responses for the input stream.
	IncrementalDS = crowd.IncrementalDS
	// ResponseLog records raw assignments in platform commit order and
	// serves delta reads to incremental consumers.
	ResponseLog = crowd.ResponseLog

	// Summary describes repeated observations (mean, stddev, 95% CI).
	Summary = stats.Summary

	// AuditService is the multi-tenant audit job engine behind cvgrun
	// -serve: persistent jobs with per-job crash-safe journals, a
	// bounded worker pool, tenant budget admission, and an HTTP API
	// (Handler) with SSE progress streams. See NewAuditService.
	AuditService = server.Engine
	// AuditServiceOptions configures an AuditService (data directory,
	// worker-pool width, per-tenant budget caps).
	AuditServiceOptions = server.Options
	// AuditJobConfig is one submitted audit job: mode, dataset spec,
	// audit parameters, oracle choice and budget caps.
	AuditJobConfig = server.JobConfig
	// AuditJobStatus is a job's point-in-time snapshot: state, round
	// progress, committed spend and (when finished) the result.
	AuditJobStatus = server.JobStatus
	// AuditJobResult is a finished job's serialized verdicts, task
	// tallies and ledger spend — byte-identical to the same
	// configuration run one-shot through Auditor.
	AuditJobResult = server.JobResult
	// AuditJobState is the job lifecycle enum.
	AuditJobState = server.JobState
	// AuditDatasetSpec names a job's dataset: a JSON file or a
	// generated binary-gender dataset.
	AuditDatasetSpec = server.DatasetSpec
)

// Audit-service job states (queued → running → done/failed/cancelled;
// interrupted jobs return to queued and resume on restart).
const (
	JobQueued    = server.StateQueued
	JobRunning   = server.StateRunning
	JobDone      = server.StateDone
	JobFailed    = server.StateFailed
	JobCancelled = server.StateCancelled
)

// Audit-service job modes.
const (
	JobModeMultiple       = server.ModeMultiple
	JobModeIntersectional = server.ModeIntersectional
	JobModeClassifier     = server.ModeClassifier
)

// Audit-service errors.
var (
	// ErrJobNotFound marks an unknown job id.
	ErrJobNotFound = server.ErrNotFound
	// ErrTenantBudget marks a submission the tenant's remaining budget
	// cannot admit.
	ErrTenantBudget = server.ErrTenantBudget
	// ErrServiceClosed marks a submission to a closed service.
	ErrServiceClosed = server.ErrClosed
)

// NewAuditService opens (or creates) the service's data directory,
// recovers every persisted job — resuming interrupted ones from their
// journals with byte-identical results — and starts the worker pool.
var NewAuditService = server.NewEngine

// Wildcard is the unspecified pattern slot, written X in the paper.
const Wildcard = pattern.Wildcard

// Coverage verdicts.
const (
	Covered   = pattern.Covered
	Uncovered = pattern.Uncovered
	Unknown   = pattern.Unknown
)

// HIT kinds for CostFunc implementations.
const (
	HITPoint      = core.HITPoint
	HITSet        = core.HITSet
	HITReverseSet = core.HITReverseSet
)

// ErrBudgetExhausted is the sentinel a budget governor returns for
// queries it refuses. The audit entry points translate it into partial
// results (Exhausted flags) rather than surfacing it, so callers only
// meet it when querying a governed oracle directly.
var ErrBudgetExhausted = core.ErrBudgetExhausted

// Re-exported constructors.
var (
	// NewSchema builds a validated schema.
	NewSchema = pattern.NewSchema
	// BinarySchema builds a single binary attribute schema.
	BinarySchema = pattern.Binary
	// NewPattern builds a validated pattern over a schema.
	NewPattern = pattern.NewPattern
	// ParsePattern reads the compact "X01" form.
	ParsePattern = pattern.Parse
	// GroupOf wraps a single pattern as a group.
	GroupOf = pattern.GroupOf
	// GroupsForAttribute lists one group per value of an attribute.
	GroupsForAttribute = pattern.GroupsForAttribute
	// SubgroupGroups lists one group per fully-specified subgroup.
	SubgroupGroups = pattern.SubgroupGroups

	// NewDataset builds a dataset from label vectors.
	NewDataset = dataset.New
	// LoadDataset reads a dataset JSON file.
	LoadDataset = dataset.LoadJSON
	// GenderSchema is the paper's default single-attribute schema.
	GenderSchema = dataset.GenderSchema
	// FemaleGroup / MaleGroup name the two gender groups.
	FemaleGroup = dataset.Female
	MaleGroup   = dataset.Male

	// NewTruthOracle answers from ground truth (the paper's synthetic
	// crowd simulation); useful for testing and benchmarking.
	NewTruthOracle = core.NewTruthOracle

	// DawidSkene runs batch EM truth inference over recorded
	// responses; NewIncrementalDS is its warm-starting online form.
	DawidSkene       = crowd.DawidSkene
	NewIncrementalDS = crowd.NewIncrementalDS

	// LowerBoundTasks, UpperBoundHITs and UpperBoundTasksLog2 are the
	// theoretical task bounds of section 3.2.
	LowerBoundTasks     = core.LowerBoundTasks
	UpperBoundHITs      = core.UpperBoundHITs
	UpperBoundTasksLog2 = core.UpperBoundTasksLog2

	// NewSimulatedClassifier derives a classifier from published
	// accuracy/precision statistics.
	NewSimulatedClassifier = classifier.NewSimulated
	// EvaluateClassifier measures a prediction's confusion matrix.
	EvaluateClassifier = classifier.Evaluate
)

// Paper dataset presets.
var (
	PresetFERETTable1 = dataset.FERETTable1
	PresetFERETUnique = dataset.FERETUnique
	PresetUTKFace200  = dataset.UTKFace200
	PresetUTKFace20   = dataset.UTKFace20
)

// GenerateBinary creates a shuffled gender dataset with exactly
// minority females among n objects, seeded deterministically.
func GenerateBinary(n, minority int, seed int64) (*Dataset, error) {
	return dataset.BinaryWithMinority(n, minority, rand.New(rand.NewSource(seed)))
}

// DatasetFromCounts creates a shuffled dataset with exactly counts[i]
// objects of the i-th fully-specified subgroup, seeded
// deterministically.
func DatasetFromCounts(s *Schema, counts []int, seed int64) (*Dataset, error) {
	return dataset.FromCounts(s, counts, rand.New(rand.NewSource(seed)))
}

// RunTrials repeats an observation across a bounded worker pool — the
// parallel trial-runner behind the repository's experiment harness,
// exposed for library callers benchmarking their own audits. Trial i
// receives a child RNG seeded deterministically with seed+i, so the
// summary (mean, stddev, 95% CI in trial order) is identical at every
// parallelism level; parallelism <= 1 runs the trials sequentially.
// Trials must take all randomness from their RNG and share only
// concurrency-safe state (e.g. one oracle behind a cache); the first
// failing trial aborts the run.
func RunTrials(trials, parallelism int, seed int64, trial func(i int, rng *rand.Rand) (float64, error)) (Summary, error) {
	res, err := experiment.Run(experiment.Config{
		Name:        "RunTrials",
		Seed:        seed,
		Trials:      trials,
		Parallelism: parallelism,
	}, func(t experiment.Trial) (float64, error) {
		return trial(t.Index, t.Rng)
	})
	if err != nil {
		return Summary{}, err
	}
	return res.Summarize(func(x float64) float64 { return x }), nil
}

// Auditor runs coverage audits with fixed parameters against an
// oracle. The zero value is not usable; construct with NewAuditor.
//
// The middleware calls (WithRetry, WithCache, WithTrust, WithJournal,
// WithBudget) declare layers of one oracle stack, in any order: the
// stack is built at the first audit or stats call, always as retry →
// cache → trust → journal → budget governor → oracle, and lives for
// the auditor's lifetime. A middleware call after that build panics;
// build a new Auditor to audit under a different stack.
type Auditor struct {
	leaf        Oracle
	tau         int
	setSize     int
	seed        int64
	parallelism int
	ctx         context.Context
	stack       core.Stack

	mu     sync.Mutex
	layers *core.Layers // nil until built
}

// NewAuditor builds an auditor asking the oracle set queries of at
// most setSize objects and requiring tau objects for coverage.
func NewAuditor(o Oracle, tau, setSize int) *Auditor {
	return &Auditor{leaf: o, tau: tau, setSize: setSize, seed: 1}
}

// WithSeed fixes the seed of the auditor's internal sampling phases
// (Multiple-, Intersectional- and Classifier-Coverage).
func (a *Auditor) WithSeed(seed int64) *Auditor {
	a.seed = seed
	return a
}

// WithParallelism bounds the pool that lifts an oracle without native
// batching: every audit runs in lockstep rounds — concurrent audits
// park their queries, and each round commits to the oracle as one
// batch in canonical (query sequence, task index) order — and
// a non-batching oracle answers a round's queries across up to
// parallelism goroutines. Values <= 1 mean width 1. Round composition
// never depends on the width, so verdicts, task counts and spend are
// bit-identical at every value, even through an oracle whose answers
// depend on query order (the simulated crowd) as long as it answers
// batches in request order (SimulatedCrowd and TruthOracle do; see
// core.BatchOracle). The oracle must be safe for concurrent use when
// parallelism > 1. Under middleware, the oracle is lifted once, at the
// width set when the stack is built.
func (a *Auditor) WithParallelism(parallelism int) *Auditor {
	a.parallelism = parallelism
	return a
}

// WithLockstep returns a unchanged.
//
// Deprecated: every audit runs on the deterministic lockstep
// scheduler; see WithParallelism.
func (a *Auditor) WithLockstep() *Auditor { return a }

// WithCache adds a deduplicating query cache on top of the stack:
// identical HITs (canonicalized id-set plus group for set queries,
// object id for point queries) are paid for once across every
// audit through this auditor, and a cache hit never reaches the budget
// governor, the journal or the crowd. Transient errors are never
// cached.
func (a *Auditor) WithCache() *Auditor {
	a.unbuilt("WithCache")
	a.stack.Cache = true
	return a
}

// WithRetry puts the retry layer on top of the stack: a transiently
// failing HIT (core.ErrTransient) is re-posted up to the policy's
// attempt budget inside its round instead of aborting the audit. Over
// the bare oracle each request retries on its own; over other layers
// a retry re-posts the part of the round left unanswered, which for a
// plain oracle under them starts at its lowest failing request.
// Backoff jitter never draws from the audit's seed. The last call
// before the build wins.
func (a *Auditor) WithRetry(policy RetryPolicy) *Auditor {
	a.unbuilt("WithRetry")
	a.stack.Retry = policy
	return a
}

// WithBudget caps the committed crowd queries of ALL audits through
// this auditor with one shared budget governor — the deployment
// control for a customer's spend cap. The governor sits directly over
// the oracle, so it charges every HIT actually posted and nothing
// else. An audit that hits the cap returns a deterministic partial
// result (result Exhausted flags, unsettled groups carrying
// best-effort bounds) instead of an error; the exhaustion point,
// partial verdicts, task counts and ledger spend are byte-identical at
// every WithParallelism value. Combine MaxSpend with
// SimulatedCrowd.HITCost (or your platform's CostFunc) to denominate
// the cap in ledger dollars.
//
// The first call wins: one governor (and its accumulated spend) lives
// for the auditor's lifetime, so later WithBudget calls are no-ops and
// their argument is ignored.
func (a *Auditor) WithBudget(b Budget) *Auditor {
	a.unbuilt("WithBudget")
	if a.stack.Budget == nil {
		a.stack.Budget = &b
	}
	return a
}

// WithJournal makes audits through this auditor crash-safe: every
// committed oracle round is appended to j (one RoundRecord per round —
// use CreateJournal for the fsynced file codec), and the replay
// records of a previous run, when non-nil, answer the first rounds of
// the next audit without touching the oracle — resuming a killed job
// with verdicts, task tallies and budget spend byte-identical to an
// uninterrupted run, and without re-posting (or re-paying) a single
// committed HIT. Each record snapshots the budget governor's ledger,
// which replay restores. Replay verifies the resumed audit issues the
// exact journaled requests and fails with ErrJournalMismatch
// otherwise; it leans on the deterministic round scheduler every audit
// runs on, whose round sequence is a pure function of committed
// answers. The first call wins.
func (a *Auditor) WithJournal(j RoundJournal, replay []RoundRecord) *Auditor {
	a.unbuilt("WithJournal")
	if a.stack.Journal == nil && a.stack.Replay == nil {
		a.stack.Journal, a.stack.Replay = j, replay
	}
	return a
}

// WithTrust adds the adversarial-robustness middleware: gold-standard
// probe HITs (TrustConfig.Probes, cycled on the policy's deterministic
// schedule) are appended to committed set rounds, every worker's raw
// answers from TrustConfig.Feed are scored by a sequential likelihood
// ratio against the gold answers and the round consensus, and workers
// the policy distrusts are pushed to TrustConfig.Screen — excluded
// from future assignment draws at round boundaries only. For the
// simulated crowd, wire Feed and Screen from
// SimulatedCrowd.AnswerFeed and SimulatedCrowd.Screener.
//
// The probe schedule rides the committed round sequence, a pure
// function of committed answers — so trust scores and screening
// decisions are byte-identical at every WithParallelism value. The
// journal records (and replays) the probe-augmented rounds: a resumed
// audit re-issues the identical probes and re-reads the surviving
// feed, restoring every trust score exactly. The feed is
// process-local, not journaled — an in-process resume (same platform,
// surviving ResponseLog) restores scores byte-identically, while a
// fresh process replays verdicts and the probe schedule exactly but
// starts trust evidence empty. The first call wins. It returns an
// error for an invalid policy or probe battery.
func (a *Auditor) WithTrust(cfg TrustConfig) (*Auditor, error) {
	a.unbuilt("WithTrust")
	if a.stack.Trust == nil {
		if err := cfg.Validate(); err != nil {
			return a, err
		}
		a.stack.Trust = &cfg
	}
	return a, nil
}

// unbuilt panics when a middleware call comes after the stack was
// built: the layer could no longer join it.
func (a *Auditor) unbuilt(call string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.layers != nil {
		panic("imagecvg: Auditor." + call + " after the first audit or stats call; build a new Auditor")
	}
}

// build assembles the stack on first use and returns it.
func (a *Auditor) build() (core.Layers, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.layers == nil {
		s := a.stack
		s.Parallelism, s.Ctx = a.parallelism, a.ctx
		l, err := s.Build(a.leaf)
		if err != nil {
			return core.Layers{}, err
		}
		a.layers = &l
	}
	return *a.layers, nil
}

// TrustStats returns the trust middleware's report — per-worker
// scores, probes issued, workers excluded; ok is false when WithTrust
// was never enabled.
func (a *Auditor) TrustStats() (report TrustReport, ok bool) {
	l, err := a.build()
	if err != nil || l.Trust == nil {
		return TrustReport{}, false
	}
	return l.Trust.Report(), true
}

// WithContext threads ctx through every audit of this auditor:
// cancellation fails the next oracle round before it reaches the crowd
// (and aborts retry backoffs mid-sleep), so a cancelled job never
// half-posts a round — with WithJournal, every round either committed
// and was journaled, or never happened.
func (a *Auditor) WithContext(ctx context.Context) *Auditor {
	a.ctx = ctx
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.layers != nil {
		a.layers.SetContext(ctx)
	}
	return a
}

// JournalStats reports the journaling middleware's progress: how many
// rounds of the current run were answered from the replay records and
// the total rounds committed. ok is false when WithJournal was never
// enabled.
func (a *Auditor) JournalStats() (replayed, rounds int, ok bool) {
	l, err := a.build()
	if err != nil || l.Journal == nil {
		return 0, 0, false
	}
	return l.Journal.Replayed(), l.Journal.Rounds(), true
}

// BudgetSpent returns the shared governor's committed consumption; ok
// is false when WithBudget was never enabled.
func (a *Auditor) BudgetSpent() (spent BudgetSpent, ok bool) {
	l, err := a.build()
	if err != nil || l.Budget == nil {
		return BudgetSpent{}, false
	}
	return l.Budget.Spent(), true
}

// CacheStats returns the hit/miss tally of the query cache; ok is
// false when WithCache was never enabled.
func (a *Auditor) CacheStats() (stats CacheStats, ok bool) {
	l, err := a.build()
	if err != nil || l.Cache == nil {
		return CacheStats{}, false
	}
	return l.Cache.Stats(), true
}

// multipleOptions assembles the engine options shared by the
// multi-group audit entry points.
func (a *Auditor) multipleOptions() core.MultipleOptions {
	return core.MultipleOptions{
		Rng:         rand.New(rand.NewSource(a.seed)),
		Parallelism: a.parallelism,
		Ctx:         a.ctx,
	}
}

// runTask runs one sequential audit as a one-task lockstep run over
// the stack, under the auditor's context.
func (a *Auditor) runTask(fn func(o Oracle) error) error {
	l, err := a.build()
	if err != nil {
		return err
	}
	return core.RunTask(a.ctx, l.Top, a.parallelism, fn)
}

// AuditGroup decides whether one group is covered (Algorithm 1). Each
// query is its own round, so cancellation and retries apply per query.
func (a *Auditor) AuditGroup(ids []ObjectID, g Group) (res GroupResult, err error) {
	err = a.runTask(func(o Oracle) (err error) {
		res, err = core.GroupCoverage(o, ids, a.setSize, a.tau, g)
		return err
	})
	return res, err
}

// AuditBaseline decides coverage with the naive point-query scan
// (Algorithm 7), for cost comparison; see AuditGroup.
func (a *Auditor) AuditBaseline(ids []ObjectID, g Group) (res GroupResult, err error) {
	err = a.runTask(func(o Oracle) (err error) {
		res, err = core.BaseCoverage(o, ids, a.tau, g)
		return err
	})
	return res, err
}

// AuditGroups decides coverage for several groups with the
// super-group aggregation heuristic (Algorithm 2).
func (a *Auditor) AuditGroups(ids []ObjectID, groups []Group) (*MultipleResult, error) {
	l, err := a.build()
	if err != nil {
		return nil, err
	}
	return core.MultipleCoverage(l.Top, ids, a.setSize, a.tau, groups, a.multipleOptions())
}

// AuditAttribute audits every value of one schema attribute.
func (a *Auditor) AuditAttribute(ids []ObjectID, s *Schema, attr int) (*MultipleResult, error) {
	if s == nil || attr < 0 || attr >= s.NumAttrs() {
		return nil, errors.New("imagecvg: invalid schema attribute")
	}
	return a.AuditGroups(ids, pattern.GroupsForAttribute(s, attr))
}

// AuditIntersectional discovers the maximal uncovered patterns over
// all attributes of the schema (Algorithm 3).
func (a *Auditor) AuditIntersectional(ids []ObjectID, s *Schema) (*IntersectionalResult, error) {
	l, err := a.build()
	if err != nil {
		return nil, err
	}
	return core.IntersectionalCoverage(l.Top, ids, a.setSize, a.tau, s, a.multipleOptions())
}

// AuditWithClassifier audits one group using a pre-trained
// classifier's predicted-positive set (Algorithm 4). The audit posts
// whole rounds — the precision sample as one point-query round, the
// Label phase as bounded rounds with a deterministic early stop, and
// the Partition phase as one reverse-set round per tree level — whose
// composition never depends on the width, making the full result
// bit-identical at every WithParallelism value even through the
// order-dependent simulated crowd. Results equal the paper's
// sequential loops exactly for order-independent oracles. Under
// WithBudget the rounds narrow to the governor's remaining headroom,
// whatever layers sit above it.
func (a *Auditor) AuditWithClassifier(ids, predicted []ObjectID, g Group) (ClassifierResult, error) {
	l, err := a.build()
	if err != nil {
		return ClassifierResult{}, err
	}
	return core.ClassifierCoverage(l.Top, ids, predicted, a.setSize, a.tau, g,
		core.ClassifierOptions{
			Rng:         rand.New(rand.NewSource(a.seed)),
			Parallelism: a.parallelism,
			Governor:    l.Budget,
			Ctx:         a.ctx,
		})
}

// SimulatedCrowd is an Oracle backed by the full crowdsourcing
// platform simulator: images rendered as glyphs, imperfect workers,
// redundant assignments, majority vote, and a cost ledger.
type SimulatedCrowd struct {
	platform *crowd.Platform
	log      *crowd.ResponseLog
}

// CrowdOptions tunes the simulated deployment; the zero value uses
// the paper's setup (3 assignments, $0.10/HIT, 20 % fee, 30 workers).
type CrowdOptions struct {
	// Assignments per HIT (default 3).
	Assignments int
	// PoolSize is the number of simulated workers (default 30).
	PoolSize int
	// Qualification enables a pre-task qualification test.
	Qualification bool
	// Rating enables the reputation filter (>=95 %, >=100 HITs).
	Rating bool
	// RecordResponses keeps every raw worker assignment of every yes/no
	// HIT in platform commit order, retrievable via Responses — the
	// input the Dawid–Skene estimators (DawidSkene, IncrementalDS)
	// consume for post-hoc truth inference.
	RecordResponses bool
	// AdversaryStrategy plants adversarial workers: the named
	// WorkerStrategy ("lazy-yes", "random-spam", "colluding-liar")
	// overrides the final answers of an AdversaryRate fraction of the
	// pool, assigned as a deterministic RNG-free stripe. Honest
	// workers' answers are byte-identical to an adversary-free
	// deployment. Empty (or "honest") disables the overlay.
	AdversaryStrategy string
	// AdversaryRate is the adversarial fraction of the pool in [0, 1];
	// ignored when AdversaryStrategy is empty.
	AdversaryRate float64
}

// NewSimulatedCrowd builds a simulated crowd over the dataset.
func NewSimulatedCrowd(ds *Dataset, seed int64, opts CrowdOptions) (*SimulatedCrowd, error) {
	cfg := crowd.DefaultConfig(seed)
	if opts.Assignments > 0 {
		cfg.Assignments = opts.Assignments
	}
	if opts.PoolSize > 0 {
		cfg.Profile = crowd.DefaultProfile(opts.PoolSize)
	}
	if opts.Qualification {
		cfg.Qualification = crowd.DefaultQualification()
	}
	if opts.Rating {
		cfg.Rating = crowd.DefaultRating()
	}
	var log *crowd.ResponseLog
	if opts.RecordResponses {
		log = &crowd.ResponseLog{}
		cfg.Responses = log
	}
	if opts.AdversaryStrategy != "" && opts.AdversaryStrategy != "honest" {
		strat, err := crowd.StrategyByName(opts.AdversaryStrategy)
		if err != nil {
			return nil, err
		}
		cfg.Adversary = crowd.AdversaryConfig{Rate: opts.AdversaryRate, Strategy: strat}
	}
	p, err := crowd.NewPlatform(ds, cfg)
	if err != nil {
		return nil, err
	}
	return &SimulatedCrowd{platform: p, log: log}, nil
}

// Responses returns the recorded assignment log (nil unless the crowd
// was built with RecordResponses): one Response per worker per yes/no
// HIT in commit order, ready for DawidSkene or IncrementalDS.SyncLog.
func (c *SimulatedCrowd) Responses() *ResponseLog {
	return c.log
}

// AnswerFeed exposes the deployment's raw answer stream for the trust
// middleware (Auditor.WithTrust / TrustConfig.Feed). It is nil unless
// the crowd was built with RecordResponses — trust scoring needs the
// per-worker answers the log records.
func (c *SimulatedCrowd) AnswerFeed() AnswerFeed {
	if c.log == nil {
		return nil
	}
	return c.log
}

// Screener exposes the platform's worker-exclusion hook for the trust
// middleware (TrustConfig.Screen): distrusted workers are dropped from
// future assignment draws at round boundaries, with at least one
// eligible worker always retained.
func (c *SimulatedCrowd) Screener() WorkerScreener {
	return c.platform
}

// SetQuery implements Oracle.
func (c *SimulatedCrowd) SetQuery(ids []ObjectID, g Group) (bool, error) {
	return c.platform.SetQuery(ids, g)
}

// ReverseSetQuery implements Oracle.
func (c *SimulatedCrowd) ReverseSetQuery(ids []ObjectID, g Group) (bool, error) {
	return c.platform.ReverseSetQuery(ids, g)
}

// PointQuery implements Oracle.
func (c *SimulatedCrowd) PointQuery(id ObjectID) ([]int, error) {
	return c.platform.PointQuery(id)
}

// SetQueryBatch implements BatchOracle: the whole round posts under
// one platform lock and answers in request order, keeping
// identically-seeded parallel audits reproducible.
func (c *SimulatedCrowd) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	return c.platform.SetQueryBatch(reqs)
}

// PointQueryBatch implements BatchOracle; see SetQueryBatch.
func (c *SimulatedCrowd) PointQueryBatch(ids []ObjectID) ([][]int, error) {
	return c.platform.PointQueryBatch(ids)
}

// TranscriptTag returns the crowd's transcript version, which journals
// record so a journal answered under another version refuses to
// resume (ErrTranscriptTag).
func (c *SimulatedCrowd) TranscriptTag() string {
	return c.platform.TranscriptTag()
}

// HITCost returns the deployment's cost model — assignments times the
// pricing model's per-assignment quote plus the platform fee — for
// denominating a Budget.MaxSpend in the same dollars the ledger
// tracks.
func (c *SimulatedCrowd) HITCost() CostFunc {
	return c.platform.HITCost()
}

// Cost returns the deployment's accumulated cost.
func (c *SimulatedCrowd) Cost() crowd.LedgerSnapshot {
	return c.platform.Ledger().Snapshot()
}

// ResetCost clears the ledger between audits.
func (c *SimulatedCrowd) ResetCost() {
	c.platform.Ledger().Reset()
}

// Package server is the multi-tenant audit service: a job engine
// where every coverage audit — Multiple, Intersectional or
// Classifier — is a persistent job with a state machine (queued →
// running → done/failed/cancelled), its own crash-safe round journal
// under the engine's data directory, and a per-tenant budget gate.
// Jobs run on one bounded worker pool (core.RunBounded), each audit on
// the lockstep scheduler, so a job's verdicts, task tallies and
// ledger spend are byte-identical to the same configuration run
// one-shot through the root Auditor — at every parallelism level, and
// across a mid-job server kill and restart.
//
// Restart recovery leans on the journal contract from internal/core
// and internal/journal: a job interrupted at a round boundary resumes
// by replaying its committed rounds without touching the oracle, and
// — for the stateful simulated crowd — by re-warming a fresh
// identically-seeded platform with the journaled answered prefixes,
// which reconstructs the platform's RNG stream and ledger exactly.
//
// The HTTP surface (Engine.Handler) exposes POST /jobs, GET /jobs,
// GET /jobs/{id}, GET /jobs/{id}/stream (SSE round-by-round progress)
// and DELETE /jobs/{id}; cvgrun -serve mounts it. The API is
// unauthenticated and trusts the client-supplied tenant field —
// tenants partition budgets, not access; see Engine.Handler for the
// trust model and how to front the service for untrusting tenants.
package server

import (
	"fmt"

	"imagecvg/internal/core"
	"imagecvg/internal/pattern"
)

// Job modes: which audit algorithm a job runs.
const (
	// ModeMultiple audits every value of one schema attribute
	// (Multiple-Coverage, Algorithm 2).
	ModeMultiple = "multiple"
	// ModeIntersectional discovers the maximal uncovered patterns over
	// the whole schema (Algorithm 3).
	ModeIntersectional = "intersectional"
	// ModeClassifier audits one group with a simulated classifier's
	// predicted-positive set (Algorithm 4).
	ModeClassifier = "classifier"
)

// JobState is a job's position in the lifecycle state machine.
type JobState string

// Job lifecycle states. A job interrupted by a server kill (or
// engine shutdown) returns to StateQueued with its journal on disk,
// and resumes on the next engine start.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state ends the lifecycle.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// DatasetSpec names the dataset a job audits: a generated
// binary-gender dataset with exactly Minority females among N objects,
// seeded deterministically — the same construction as the root
// GenerateBinary. A job never names a file: the service opens no
// client-chosen path, and every dataset stays inside maxDatasetN.
type DatasetSpec struct {
	N        int   `json:"n,omitempty"`
	Minority int   `json:"minority,omitempty"`
	Seed     int64 `json:"seed,omitempty"`
}

// JobConfig is a submitted audit: everything the engine needs to run
// it — and, because every field is serialized into the job's meta
// file, everything a restarted engine needs to resume it with
// byte-identical results.
type JobConfig struct {
	// Tenant names the submitting tenant for budget accounting; empty
	// is a valid (shared) tenant.
	Tenant string `json:"tenant,omitempty"`
	// Mode selects the audit algorithm; default ModeMultiple.
	Mode string `json:"mode,omitempty"`
	// Dataset is the audited dataset.
	Dataset DatasetSpec `json:"dataset"`
	// Tau is the coverage threshold (default 50); SetSize caps set-query
	// size (default 50).
	Tau     int `json:"tau,omitempty"`
	SetSize int `json:"set_size,omitempty"`
	// Attr selects the audited schema attribute for ModeMultiple and
	// ModeClassifier; Value selects the audited group's value index for
	// ModeClassifier (default: attribute 0, value 1 — the minority
	// group of the generated gender datasets).
	Attr  int `json:"attr,omitempty"`
	Value int `json:"value,omitempty"`
	// Seed drives the audit's sampling phases (and, for Oracle
	// "crowd", the platform's worker draws).
	Seed int64 `json:"seed"`
	// Parallelism is the audit engine width; results are byte-identical
	// at every value because every audit runs in lockstep rounds.
	Parallelism int `json:"parallelism,omitempty"`
	// Oracle selects the answer source: "truth" (default, ground-truth
	// labels) or "crowd" (the full simulated crowdsourcing platform).
	Oracle string `json:"oracle,omitempty"`
	// Assignments and PoolSize tune the crowd deployment (defaults: 3
	// assignments, 30 workers); ignored for Oracle "truth".
	Assignments int `json:"assignments,omitempty"`
	PoolSize    int `json:"pool_size,omitempty"`
	// MaxHITs and MaxSpend cap this job's committed crowd tasks; the
	// engine clamps them to the tenant's remaining headroom at submit
	// and persists the effective caps, so a resumed job runs under the
	// same budget.
	MaxHITs  int     `json:"max_hits,omitempty"`
	MaxSpend float64 `json:"max_spend,omitempty"`
	// ClassifierTP and ClassifierFP size the simulated classifier's
	// predicted-positive set for ModeClassifier.
	ClassifierTP int `json:"classifier_tp,omitempty"`
	ClassifierFP int `json:"classifier_fp,omitempty"`
	// HITDelayMicros sleeps each HIT of a truth-oracle job, modeling
	// crowd round-trip latency (useful for lifecycle tests and load
	// shaping); ignored for Oracle "crowd", whose answers are
	// order-dependent and must not be lifted across a delay pool.
	HITDelayMicros int64 `json:"hit_delay_micros,omitempty"`
}

// Admission bounds: the largest sizes a submitted job may ask for, so a
// careless or hostile client cannot make the service generate a huge
// dataset, spawn an unbounded pool, simulate an unbounded crowd or
// park a worker on one HIT. Each is far above what an audit needs.
const (
	maxDatasetN       = 1_000_000 // generated dataset objects
	maxParallelism    = 256       // engine pool width
	maxAssignments    = 25        // worker answers per crowd HIT
	maxPoolSize       = 10_000    // simulated crowd workers
	maxSetSize        = 10_000    // objects per set query
	maxHITDelayMicros = 1_000_000 // one second per truth-oracle HIT
)

// badConfig builds a validation error wrapping ErrInvalidConfig, so
// the HTTP layer maps it to 400 Bad Request.
func badConfig(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidConfig, fmt.Sprintf(format, args...))
}

// normalize applies defaults and validates the configuration.
func (c *JobConfig) normalize() error {
	if c.Mode == "" {
		c.Mode = ModeMultiple
	}
	switch c.Mode {
	case ModeMultiple, ModeIntersectional, ModeClassifier:
	default:
		return badConfig("unknown mode %q", c.Mode)
	}
	if c.Dataset.N <= 0 || c.Dataset.N > maxDatasetN {
		return badConfig("dataset n must be in [1, %d], got %d", maxDatasetN, c.Dataset.N)
	}
	if c.Dataset.Minority < 0 || c.Dataset.Minority > c.Dataset.N {
		return badConfig("dataset minority %d outside [0, %d]", c.Dataset.Minority, c.Dataset.N)
	}
	if c.Tau == 0 {
		c.Tau = 50
	}
	if c.Tau < 0 {
		return badConfig("tau must be positive, got %d", c.Tau)
	}
	if c.SetSize == 0 {
		c.SetSize = 50
	}
	if c.SetSize < 0 || c.SetSize > maxSetSize {
		return badConfig("set size must be in [1, %d], got %d", maxSetSize, c.SetSize)
	}
	if c.Attr < 0 || c.Value < 0 {
		return badConfig("attr/value must be non-negative")
	}
	if c.Mode == ModeClassifier && c.Attr == 0 && c.Value == 0 {
		c.Value = 1 // minority group of the generated gender datasets
	}
	if c.Parallelism < 0 || c.Parallelism > maxParallelism {
		return badConfig("parallelism must be in [0, %d], got %d", maxParallelism, c.Parallelism)
	}
	if c.Oracle == "" {
		c.Oracle = "truth"
	}
	if c.Oracle != "truth" && c.Oracle != "crowd" {
		return badConfig("unknown oracle %q", c.Oracle)
	}
	if c.Assignments < 0 || c.Assignments > maxAssignments {
		return badConfig("assignments must be in [0, %d], got %d", maxAssignments, c.Assignments)
	}
	if c.PoolSize < 0 || c.PoolSize > maxPoolSize {
		return badConfig("pool size must be in [0, %d], got %d", maxPoolSize, c.PoolSize)
	}
	if c.MaxHITs < 0 || c.MaxSpend < 0 {
		return badConfig("budget caps must be non-negative")
	}
	if c.ClassifierTP < 0 || c.ClassifierFP < 0 {
		return badConfig("classifier tp/fp must be non-negative")
	}
	if c.HITDelayMicros < 0 || c.HITDelayMicros > maxHITDelayMicros {
		return badConfig("hit delay must be in [0, %d] microseconds, got %d", maxHITDelayMicros, c.HITDelayMicros)
	}
	return nil
}

// BudgetCaps are a job's effective budget, resolved at submit time
// (job caps clamped to the tenant's remaining headroom) and persisted
// so a resumed job runs under the identical budget.
type BudgetCaps struct {
	MaxHITs  int     `json:"max_hits,omitempty"`
	MaxSpend float64 `json:"max_spend,omitempty"`
}

// budget realizes the caps as a core budget under the oracle's cost
// model.
func (c BudgetCaps) budget(cost core.CostFunc) core.Budget {
	return core.Budget{MaxHITs: c.MaxHITs, MaxSpend: c.MaxSpend, Cost: cost}
}

// GroupVerdict is one group's serialized audit outcome.
type GroupVerdict struct {
	Group   string `json:"group"`
	Covered bool   `json:"covered"`
	Settled bool   `json:"settled"`
	CountLo int    `json:"count_lo"`
	CountHi int    `json:"count_hi"`
	Exact   bool   `json:"exact"`
}

// MUPVerdict is one maximal uncovered pattern of an intersectional
// job.
type MUPVerdict struct {
	Pattern string `json:"pattern"`
	Count   int    `json:"count"`
}

// ClassifierVerdict is a classifier job's outcome.
type ClassifierVerdict struct {
	Group         string  `json:"group"`
	Covered       bool    `json:"covered"`
	Count         int     `json:"count"`
	Exact         bool    `json:"exact"`
	Strategy      string  `json:"strategy"`
	EstFPRate     float64 `json:"est_fp_rate"`
	CleanupTasks  int     `json:"cleanup_tasks"`
	ResidualTasks int     `json:"residual_tasks"`
}

// JobResult is a finished job's serialized outcome: verdicts, task
// tallies and ledger spend. The conformance contract is that this
// value is byte-identical (as JSON) between a serve-mode job and the
// same configuration run one-shot through the root Auditor.
type JobResult struct {
	Verdicts        []GroupVerdict     `json:"verdicts,omitempty"`
	MUPs            []MUPVerdict       `json:"mups,omitempty"`
	Classifier      *ClassifierVerdict `json:"classifier,omitempty"`
	Exhausted       bool               `json:"exhausted,omitempty"`
	SampleTasks     int                `json:"sample_tasks"`
	AuditTasks      int                `json:"audit_tasks"`
	ResolutionTasks int                `json:"resolution_tasks,omitempty"`
	Tasks           int                `json:"tasks"`
	Spent           core.BudgetSpent   `json:"spent"`
}

// ResultFromMultiple serializes a Multiple-Coverage outcome.
func ResultFromMultiple(res *core.MultipleResult, spent core.BudgetSpent) *JobResult {
	out := &JobResult{
		Exhausted:   res.Exhausted,
		SampleTasks: res.SampleTasks,
		AuditTasks:  res.AuditTasks,
		Tasks:       res.Tasks,
		Spent:       spent,
	}
	for _, r := range res.Results {
		out.Verdicts = append(out.Verdicts, GroupVerdict{
			Group:   r.Group.Name,
			Covered: r.Covered,
			Settled: r.Settled,
			CountLo: r.CountLo,
			CountHi: r.CountHi,
			Exact:   r.Exact,
		})
	}
	return out
}

// ResultFromIntersectional serializes an Intersectional-Coverage
// outcome: the MUP list (patterns formatted against the schema) plus
// the underlying leaf audit's verdicts.
func ResultFromIntersectional(res *core.IntersectionalResult, s *pattern.Schema, spent core.BudgetSpent) *JobResult {
	out := ResultFromMultiple(res.Multiple, spent)
	out.Exhausted = res.Exhausted
	out.ResolutionTasks = res.ResolutionTasks
	out.Tasks = res.Tasks
	for _, m := range res.MUPs {
		out.MUPs = append(out.MUPs, MUPVerdict{Pattern: m.Pattern.Format(s), Count: m.Count})
	}
	return out
}

// ResultFromClassifier serializes a classifier-assisted outcome.
func ResultFromClassifier(res core.ClassifierResult, spent core.BudgetSpent) *JobResult {
	return &JobResult{
		Classifier: &ClassifierVerdict{
			Group:         res.Group.Name,
			Covered:       res.Covered,
			Count:         res.Count,
			Exact:         res.Exact,
			Strategy:      string(res.Strategy),
			EstFPRate:     res.EstFPRate,
			CleanupTasks:  res.CleanupTasks,
			ResidualTasks: res.ResidualTasks,
		},
		Exhausted:   res.Exhausted,
		SampleTasks: res.SampleTasks,
		Tasks:       res.Tasks,
		Spent:       spent,
	}
}

// JobStatus is a point-in-time snapshot of one job, the GET /jobs/{id}
// payload. Rounds and Spent advance per committed round while the job
// runs — the "partial verdicts" view a dashboard polls.
type JobStatus struct {
	ID       string           `json:"id"`
	Tenant   string           `json:"tenant,omitempty"`
	Mode     string           `json:"mode"`
	State    JobState         `json:"state"`
	Budget   BudgetCaps       `json:"budget"`
	Rounds   int              `json:"rounds"`
	Replayed int              `json:"replayed,omitempty"`
	Spent    core.BudgetSpent `json:"spent"`
	Result   *JobResult       `json:"result,omitempty"`
	Error    string           `json:"error,omitempty"`
}

// Event is one SSE progress message: a "snapshot" of the job status
// when a stream attaches, a "round" per committed journal round, and
// a "state" per lifecycle transition. Round events are advisory — a
// slow consumer may drop some — but the terminal state event always
// precedes the stream's end-of-channel.
type Event struct {
	Type   string            `json:"type"`
	Status *JobStatus        `json:"status,omitempty"`
	Round  int               `json:"round,omitempty"`
	Spent  *core.BudgetSpent `json:"spent,omitempty"`
	State  JobState          `json:"state,omitempty"`
	Error  string            `json:"error,omitempty"`
}

// jobMeta is the persisted form of one job under the data directory:
// <id>.job.json beside the round journal <id>.jnl. The meta is only
// rewritten at submit and at terminal transitions, so a job that was
// running when the process died is found non-terminal on restart and
// resumed from its journal. Transcript is the crowd transcript tag
// (crowd.TranscriptTag) a crowd-backed job runs under, empty for a
// truth-oracle job; a crowd job whose meta names another tag, or none,
// fails instead of resuming.
type jobMeta struct {
	ID         string     `json:"id"`
	Config     JobConfig  `json:"config"`
	Transcript string     `json:"transcript,omitempty"`
	Budget     BudgetCaps `json:"budget"`
	State      JobState   `json:"state"`
	Error      string     `json:"error,omitempty"`
	Result     *JobResult `json:"result,omitempty"`
	Rounds     int        `json:"rounds,omitempty"`
	Replayed   int        `json:"replayed,omitempty"`
}

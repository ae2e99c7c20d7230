package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"imagecvg/internal/core"
	"imagecvg/internal/crowd"
	"imagecvg/internal/dataset"
	"imagecvg/internal/journal"
	"imagecvg/internal/pattern"
)

// runAudit executes (or resumes) one job's audit. The oracle stack is
// the root Auditor's, built by the same core.Stack: platform/truth →
// budget governor → journaling middleware, on the lockstep scheduler
// every audit runs on, with the governor handed to the classifier for
// round narrowing — which is what makes a job's verdicts, task tallies
// and spend byte-identical to the one-shot run of the same
// configuration, at every parallelism level and across a kill/restart.
func (e *Engine) runAudit(ctx context.Context, j *job) (res *JobResult, err error) {
	cfg := j.cfg
	// The same construction as the root GenerateBinary.
	ds, err := dataset.BinaryWithMinority(cfg.Dataset.N, cfg.Dataset.Minority,
		rand.New(rand.NewSource(cfg.Dataset.Seed)))
	if err != nil {
		return nil, err
	}
	schema := ds.Schema()
	if cfg.Attr >= schema.NumAttrs() {
		return nil, fmt.Errorf("server: attr %d outside schema (%d attributes)", cfg.Attr, schema.NumAttrs())
	}

	jnlPath := filepath.Join(e.opts.DataDir, j.id+".jnl")
	var (
		jnl    *journal.Journal
		replay []core.RoundRecord
	)
	if j.resume {
		jnl, replay, err = journal.Open(jnlPath)
	} else {
		jnl, err = journal.Create(jnlPath)
	}
	if err != nil {
		return nil, err
	}
	defer func() {
		// A lost final fsynced frame is silent data loss: surface the
		// close error when the audit itself succeeded.
		if cerr := jnl.Close(); cerr != nil && err == nil {
			res, err = nil, cerr
		}
	}()

	var (
		oracle core.Oracle
		costFn core.CostFunc
		warm   *crowd.Platform // re-warmed once Build has checked the journal's tag
	)
	switch cfg.Oracle {
	case "crowd":
		if j.transcript != crowd.TranscriptTag {
			return nil, fmt.Errorf("%w: job %q, crowd %q", core.ErrTranscriptTag, j.transcript, crowd.TranscriptTag)
		}
		p, perr := newPlatform(ds, cfg)
		if perr != nil {
			return nil, perr
		}
		oracle, costFn, warm = p, p.HITCost(), p
	default: // "truth"
		var o core.Oracle = core.NewTruthOracle(ds)
		if cfg.HITDelayMicros > 0 {
			o = core.DelayOracle{Inner: o, Delay: time.Duration(cfg.HITDelayMicros) * time.Microsecond}
		}
		oracle = o
	}

	stack := core.Stack{
		Journal:     &notifyJournal{eng: e, job: j, inner: jnl},
		Replay:      replay,
		Parallelism: cfg.Parallelism,
		Ctx:         ctx,
	}
	if b := j.caps.budget(costFn); b.Active() {
		stack.Budget = &b
	}
	layers, err := stack.Build(oracle)
	if err != nil {
		return nil, err
	}
	if warm != nil {
		// The platform is stateful (worker draws advance an RNG per
		// HIT) but a pure function of (seed, request sequence), so
		// re-posting the journaled answered prefixes reconstructs its
		// state — RNG stream and cost ledger — exactly. Build has
		// already refused a journal recorded under another transcript
		// tag. Replay then answers those rounds from the journal
		// without re-charging, and live rounds continue byte-identical
		// to an uninterrupted run.
		if werr := warmPlatform(warm, replay); werr != nil {
			return nil, werr
		}
	}
	jo, gov := layers.Journal, layers.Budget
	j.mu.Lock()
	j.rounds, j.replayed = len(replay), 0
	j.mu.Unlock()
	defer func() {
		j.mu.Lock()
		j.rounds, j.replayed = jo.Rounds(), jo.Replayed()
		if gov != nil {
			j.spent = gov.Spent()
		}
		j.mu.Unlock()
	}()

	opts := core.MultipleOptions{
		Rng:         rand.New(rand.NewSource(cfg.Seed)),
		Parallelism: cfg.Parallelism,
		Ctx:         ctx,
	}
	spent := func() core.BudgetSpent {
		if gov == nil {
			return core.BudgetSpent{}
		}
		return gov.Spent()
	}
	switch cfg.Mode {
	case ModeIntersectional:
		ir, aerr := core.IntersectionalCoverage(jo, ds.IDs(), cfg.SetSize, cfg.Tau, schema, opts)
		if aerr != nil {
			return nil, aerr
		}
		return ResultFromIntersectional(ir, schema, spent()), nil
	case ModeClassifier:
		groups := pattern.GroupsForAttribute(schema, cfg.Attr)
		if cfg.Value >= len(groups) {
			return nil, fmt.Errorf("server: value %d outside attribute %d (%d values)", cfg.Value, cfg.Attr, len(groups))
		}
		g := groups[cfg.Value]
		predicted := ds.PredictedSet(g, cfg.ClassifierTP, cfg.ClassifierFP)
		cr, aerr := core.ClassifierCoverage(jo, ds.IDs(), predicted, cfg.SetSize, cfg.Tau, g,
			core.ClassifierOptions{
				Rng:         rand.New(rand.NewSource(cfg.Seed)),
				Parallelism: cfg.Parallelism,
				Governor:    gov,
				Ctx:         ctx,
			})
		if aerr != nil {
			return nil, aerr
		}
		return ResultFromClassifier(cr, spent()), nil
	default: // ModeMultiple
		mr, aerr := core.MultipleCoverage(jo, ds.IDs(), cfg.SetSize, cfg.Tau,
			pattern.GroupsForAttribute(schema, cfg.Attr), opts)
		if aerr != nil {
			return nil, aerr
		}
		return ResultFromMultiple(mr, spent()), nil
	}
}

// newPlatform builds the simulated crowd for a job, mirroring the
// root NewSimulatedCrowd so crowd-backed serve jobs and one-shot
// audits share the exact deployment.
func newPlatform(ds *dataset.Dataset, cfg JobConfig) (*crowd.Platform, error) {
	c := crowd.DefaultConfig(cfg.Seed)
	if cfg.Assignments > 0 {
		c.Assignments = cfg.Assignments
	}
	if cfg.PoolSize > 0 {
		c.Profile = crowd.DefaultProfile(cfg.PoolSize)
	}
	return crowd.NewPlatform(ds, c)
}

// warmPlatform re-posts each journaled round's answered prefix to a
// fresh identically-seeded platform and verifies the answers match
// the journal — the resume path for the order-dependent crowd oracle.
// A mismatch means the job's configuration no longer reproduces the
// journal (changed dataset, seed or deployment) and fails loudly
// rather than fabricating a diverged resume.
func warmPlatform(p *crowd.Platform, replay []core.RoundRecord) error {
	for _, rec := range replay {
		if rec.IsPointRound() {
			n := len(rec.PointAnswers)
			if n == 0 {
				continue
			}
			got, err := p.PointQueryBatch(rec.Points[:n])
			if err != nil {
				return fmt.Errorf("server: warm round %d: %w", rec.Round, err)
			}
			for i := range got {
				if !equalInts(got[i], rec.PointAnswers[i]) {
					return fmt.Errorf("%w: warmed platform diverged from journal at round %d point %d",
						core.ErrJournalMismatch, rec.Round, i)
				}
			}
			continue
		}
		n := len(rec.SetAnswers)
		if n == 0 {
			continue
		}
		got, err := p.SetQueryBatch(rec.Sets[:n])
		if err != nil {
			return fmt.Errorf("server: warm round %d: %w", rec.Round, err)
		}
		for i := range got {
			if got[i] != rec.SetAnswers[i] {
				return fmt.Errorf("%w: warmed platform diverged from journal at round %d set %d",
					core.ErrJournalMismatch, rec.Round, i)
			}
		}
	}
	return nil
}

// equalInts compares two label vectors.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// notifyJournal wraps the file journal as the engine's RoundJournal:
// after each durable append it advances the job's live status and
// fans a round event out to stream subscribers. Append runs under the
// journaling middleware's round lock, so the live counter needs no
// extra synchronization.
type notifyJournal struct {
	eng   *Engine
	job   *job
	inner *journal.Journal
	live  int
}

// Append implements core.RoundJournal.
func (n *notifyJournal) Append(rec core.RoundRecord) error {
	if err := n.inner.Append(rec); err != nil {
		return err
	}
	n.live++
	j := n.job
	j.mu.Lock()
	j.rounds = rec.Round + 1
	j.spent = rec.Spent
	cancel := j.cancel
	j.mu.Unlock()
	spent := rec.Spent
	n.eng.publish(j, Event{Type: "round", Round: rec.Round, Spent: &spent})
	if k := n.eng.opts.CrashAfterRounds; k > 0 && n.live >= k && cancel != nil {
		// Fault injection: the next round fails its context check
		// before reaching the oracle — exactly a kill at a round
		// boundary.
		cancel()
	}
	return nil
}

// marshalMeta / unmarshalStrict are the meta file codec.
func marshalMeta(meta jobMeta) ([]byte, error) {
	return json.MarshalIndent(meta, "", "  ")
}

// unmarshalStrict decodes JSON rejecting unknown fields and trailing
// data, so a misspelled or foreign job meta file fails recovery
// loudly instead of being silently half-read.
func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

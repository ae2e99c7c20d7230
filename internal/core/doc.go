// Package core implements the paper's contribution: crowd-efficient
// coverage identification for image datasets. It contains
//
//   - Group-Coverage (Algorithm 1): the divide-and-conquer group-testing
//     procedure deciding whether one group reaches the coverage
//     threshold tau with Theta(N/n + tau log n) set queries;
//   - Base-Coverage (Algorithm 7): the point-query baseline;
//   - Multiple-Coverage (Algorithm 2) with LabelSamplesBatch and
//     Aggregate (Algorithm 6): the super-group heuristic for many
//     groups;
//   - Intersectional-Coverage (Algorithm 3): MUP discovery over the
//     pattern graph of several sensitive attributes;
//   - Classifier-Coverage (Algorithm 4) with Partition and Label
//     (Algorithm 5): exploiting a pre-trained classifier's predictions;
//   - the theoretical task bounds of section 3.2.
//
// Algorithms interact with the crowd only through the Oracle
// interface, implemented by the crowd-platform simulator, by the
// perfect TruthOracle used in the paper's synthetic experiments, and
// by test doubles.
//
// The algorithms run on one audit engine, which posts whole rounds of
// HITs instead of one query at a time:
//
//   - BatchOracle (batch.go) extends Oracle with whole-round
//     execution, the way HIT groups are actually posted; AsBatchOracle
//     lifts plain oracles through a bounded worker pool of
//     Parallelism goroutines, while TruthOracle and the crowd platform
//     implement it natively.
//   - Stack (stack.go) declares an audit's middleware — retry, cache,
//     trust, journal, budget governor — and its one Build assembles
//     them in the only legal order, retry → cache → trust → journal →
//     governor → leaf, lifting a non-batching leaf once at the bottom.
//     Build is the only place an oracle is wrapped: no audit algorithm
//     wraps the oracle it is given. Layers talk to each other only
//     through batches; a middleware's single queries are one-element
//     rounds.
//   - The lockstep scheduler (lockstep.go) runs Multiple- and
//     Intersectional-Coverage: the sample posts as one point-query
//     round (parallel.go), then the super-group audits, the
//     covered-penalty re-audits and the resolution re-audits run as
//     concurrent tasks. Each Group-Coverage task parks a window per
//     round: the FIFO prefix the paper's loop is certain to pop next
//     (at most tau - cnt entries, stopping at the first right child
//     whose left sibling is still unanswered), committed in queue
//     order. A round posts the first w entries of every window, w the
//     shortest, as one BatchOracle batch in canonical (query sequence,
//     task index) order, the task index encoding (super-group,
//     member); the unposted tails go back to their tasks unpaid.
//   - Classifier-Coverage (classifiercoverage.go) posts the precision
//     sample as one point-query round, the Label phase as bounded
//     rounds of max(1, tau - verified) point queries whose answers
//     commit in predicted-set order with a deterministic early stop
//     (stop at the first index where verified >= tau, discard later
//     in-flight answers), and the Partition phase as rounds of the
//     FIFO queue's front, clipped to the nodes whose cumulative size
//     reaches the count still needed and to the governor's headroom,
//     with the paper's sibling inference applied at commit time.
//   - CachingOracle (cache.go) deduplicates identical queries: the
//     same kind, id multiset and member patterns, found by an
//     order-blind 64-bit hash and confirmed by a full compare; errors
//     are never cached. It sits above every layer but retry, so a hit
//     reaches no other layer, and it runs each round under its lock,
//     the way trust, the journal and the crowd platform do: concurrent
//     callers take turns per round, and duplicates inside a round
//     collapse onto one HIT.
//   - RetryPolicy (retry.go) re-posts transiently failing HITs with
//     jittered backoff. The retry wrapper tops the Stack, below the
//     scheduler, so a transient failure is absorbed inside its round:
//     over a bare plain leaf each request retries on its own, and over
//     a batching stack a retry re-posts only the unanswered suffix of
//     the round and splices the answers, so a partial prefix a budget
//     governor already committed — and paid — is never charged twice.
//   - GroupCoverageRounds (rounds.go) issues each tree level of a
//     single Group-Coverage audit as one SetQueryBatch round; it is a
//     different algorithm (1+ceil(log2 n) rounds, extra HITs), not the
//     windowed task above.
//
// Round composition is a pure function of committed answers — never of
// Parallelism or of goroutine scheduling. Every live task posts one
// query per query sequence number, so a round of width w is exactly w
// one-query rounds laid end to end: the oracle sees the query stream
// of the one-query-per-round schedule (the same canonical order,
// (query sequence, task index)), and a budget governor's prefix
// admission stops at the same point of it. That is the determinism
// contract:
//
//   - order-independent oracles (TruthOracle, stateless crowd bridges,
//     anything whose answer is a function of the request alone)
//     reproduce the paper's sequential algorithms exactly — verdicts,
//     task counts and result bytes — at every Parallelism;
//   - order-dependent oracles (the crowd Platform, whose worker draws
//     advance an RNG per HIT; any stateful simulator or aggregator)
//     produce bit-identical verdicts, task counts and spend at every
//     Parallelism, provided they implement BatchOracle natively with
//     batches executing in request order — the property the canonical
//     round commit leans on.
//
// An order-dependent oracle's answers to a request sequence are its
// transcript, and the transcript is versioned: the oracle names its
// version through TranscriptTagger (the crowd Platform returns
// crowd.TranscriptTag, currently "c3"). Stack.Build records the tag on
// a journal's round 0, which the file journal keeps in its header, and
// the audit service records it in a crowd job's meta. A journal or job
// recorded under another tag, or under none (everything written before
// the tag), fails resume and service re-warm with ErrTranscriptTag
// instead of replaying answers the oracle no longer gives. Any change
// that moves the crowd transcript bumps the tag, regenerates the
// goldens it moves, and re-pins the transcript digest of
// TestTranscriptTagGuard (internal/crowd) if the digest moved. A change
// of round layout moves it too: the journal records whole rounds, so
// "c3" marks the windowed layout, whose rounds a "c2" journal (one
// query per task per round) no longer matches. Order-independent
// oracles have no tag, so their journals and job metas keep the
// untagged header; a truth journal of the older layout fails resume
// on its first round with ErrJournalMismatch instead.
//
// One asymmetry remains by design: task tallies count only committed
// queries (matching the paper's loops exactly), while speculative
// in-flight answers a deterministic early stop discards were still
// paid HITs — the ledger, not the task count, carries that over-issue.
//
// Budget governance (budget.go) caps that spend end to end: a Budget
// (max HITs, per-kind caps, max spend under a CostFunc) is enforced by
// the BudgetedOracle middleware, which charges committed queries one at
// a time in canonical order and admits only the affordable prefix of a
// batch — the one middleware exercising the partial-prefix clause of
// the BatchOracle contract, which the lockstep commit path delivers to
// its tasks instead of discarding paid answers. Every audit algorithm
// translates the governor's ErrBudgetExhausted into a deterministic
// partial result (Exhausted flags, per-group Settled markers,
// best-effort bounds from committed answers; Intersectional keeps
// Unknown verdicts) — never a panic, an error, or a hung round. The
// classifier engine additionally narrows its speculative rounds to the
// remaining headroom of the governor handle Build returns
// (Layers.Budget, passed as ClassifierOptions.Governor), whatever
// layers sit above it: Label rounds post min(tau - verified, headroom)
// point queries, and the Partition frontier is clipped to the queue
// prefix that could still reach the early stop. The exhaustion point,
// partial verdicts, committed task counts and ledger spend are
// byte-identical at every Parallelism value.
//
// # Checkpoint, resume, and cancellation
//
// Because round composition is a pure function of committed answers — never of scheduling or Parallelism — a
// serialized log of the committed rounds is a complete checkpoint of
// an audit. The JournalingOracle middleware (journal.go) realizes
// that: it appends one
// RoundRecord per committed batch round (the requests, the positional
// answers, how the round ended, and a snapshot of the budget
// governor's ledger) to a RoundJournal, and in replay mode it answers
// the first K rounds from a previous run's records without touching
// the inner oracle at all, switching live when the journal runs dry.
// Replay verifies that the resumed run issues byte-identical requests
// (ErrJournalMismatch otherwise — a journal is only valid for the
// exact audit configuration that wrote it) and restores the governor's
// spend from each record, which yields the accounting rule the whole
// subsystem is built for: a paid HIT is never re-charged. Replayed
// rounds reach neither the crowd nor the budget; an interrupted audit
// resumed from its journal ends with verdicts, task tallies and ledger
// spend byte-identical to a run that was never interrupted (the
// kill/resume conformance matrix in internal/crowd proves this at
// P in {1, 2, 4, 16} for all three audit algorithms, budgeted and
// unbudgeted). In the Stack the cache above the journal replays its
// misses deterministically and re-fills from the recorded answers, and
// the governor below it is snapshot/restored per round.
//
// Cancellation rides the same round boundaries: MultipleOptions.Ctx /
// ClassifierOptions.Ctx thread a context.Context through the engine,
// and a cancelled context fails the next round before it reaches the
// oracle — checked in the lockstep commit path (which single
// Group-Coverage and Base-Coverage audits also run on, as one-task
// lockstep runs via RunTask) and before each classifier round; the
// Stack's journal and retry layers check Stack.Ctx, the retry backoff
// selecting on it instead of sleeping through it. A killed job
// therefore never half-posts a round: every round either committed
// (and was journaled) or never touched the crowd, which is what makes
// kill-at-round-K exactly resumable.
//
// # Audit service
//
// The serve mode (internal/server, surfaced as cvgrun -serve) runs
// many such journaled audits as persistent jobs: each job owns one
// RoundJournal file in a data directory, its engine threads a per-job
// context into the options, and a worker pool built on RunBounded
// drains the queue. The properties this package guarantees are
// exactly what make that service correct — commits-or-never
// cancellation means an interrupted job's journal is a complete
// checkpoint; replay verification means a resumed job either
// reproduces the original audit byte-for-byte or fails loudly with
// ErrJournalMismatch; and ledger restoration means a tenant's budget
// accounting survives restarts without double-charging a single HIT.
// For the stateful crowd platform the service re-warms a fresh,
// identically-seeded platform by re-posting the journal's answered
// prefixes before going live, reconstructing the platform's RNG
// stream so post-resume rounds draw the same workers they would have
// drawn uninterrupted.
//
// # Trust and adversarial workers
//
// The trust middleware (trust.go) defends an audit against workers who
// answer strategically rather than noisily — the crowd simulator's
// WorkerStrategy overlays (lazy-yes, random-spam, colluding-liar) model
// exactly that. A TrustOracle sits above the journal in the Stack and
// does three things at round boundaries only:
//
//   - it appends one gold-standard probe HIT (a singleton set query
//     whose true answer is known from ground truth, built by
//     GoldProbes) per ProbeEvery committed set HITs, after the
//     requests of the set round that passes each mark, cycling a fixed
//     battery on a schedule that is a pure function of the committed
//     set-HIT count — never of the pool width, the round width or the
//     feed — so probe density per HIT holds however wide rounds get;
//   - it consumes the AnswerFeed's delta after each committed round and
//     scores every worker's raw answers with a sequential likelihood
//     ratio (SPRT): probe answers score against the gold truth,
//     ordinary answers against the round's aggregated consensus,
//     discounted by ContradictionWeight because the consensus itself
//     corrupts under heavy collusion — gold probes are the only
//     evidence that cannot;
//   - it pushes workers whose score crosses DistrustBelow (a one-way
//     ratchet, after MinObservations) to the WorkerScreener, which
//     drops them from future assignment draws while always retaining at
//     least one eligible worker.
//
// The middleware inherits every determinism guarantee it sits on:
// the probe schedule, trust scores and screening decisions are
// byte-identical at every Parallelism (the
// robustness-frontier golden and the adversarial conformance matrix at
// P in {1, 2, 4, 16} pin this), and because trust sits above the
// journal, probe-augmented rounds are journaled — a resumed audit
// re-issues the identical probes, re-reads the surviving feed, and
// restores every trust score exactly (the feed is process-local and
// not journaled, so exact score restoration holds for in-process
// resume; a fresh process replays verdicts and the probe schedule
// exactly but accumulates trust evidence only from live rounds). A
// budget governor below may deny some or all of the trailing probes
// alone; the middleware swallows that denial when every caller request
// was answered, so probing degrades before the audit does. Feed starvation (no recorded answers) degrades scoring,
// never determinism.
//
// # Performance
//
// The audit inner loop — park a query, commit a round, draw workers,
// perceive a glyph, aggregate — is allocation-free at steady state.
// The profiling workflow that keeps it that way:
//
//	bash perfbench/run.sh --workload crowd-audit --seed 1 --seconds 5 --trace 1
//	    # tasks/s, runtime.allocs_per_task and ns/HIT per stack layer
//	go test -run '^$' -bench Perceive -benchmem -cpuprofile cpu.pprof ./internal/imagegen
//	go tool pprof cpu.pprof
//
// Rounds are the unit of fixed cost — a scheduler hand-off, a
// journal record and its fsync, a trust feed read — so the engine
// makes them wide: Group-Coverage tasks post their certain FIFO prefix
// per round instead of one query, which on the crowd-audit benchmark
// shape (perfbench) takes Multiple-Coverage from about 4,600 rounds of
// 2.4 HITs to 360 rounds of 30, with the same HITs.
//
// What is pooled, and where: the lockstep scheduler (lockstep.go)
// ping-pongs the parked-round slice through a spare backing array,
// reuses the set-task list, the SetRequest round and the point-id
// round across commits, and recycles one parking slot and answer
// buffer per task (safe because a parked task blocks until its round
// delivers, so at most one window per task is ever in flight);
// Group-Coverage reuses its window's request slice across rounds, and
// the trust layer its probe-augmented round. The caching oracle
// (cache.go) finds a query through a pointer-free map from its 64-bit
// hash to a table slot, stores keys in one byte arena and answers in
// flat slices, and reuses its per-round slot and miss scratch, so a
// set round allocates only its answer slice and amortized table
// growth; the scratch is safe to reuse because a round holds the
// cache lock until its answers are assembled. The crowd platform
// reuses its worker-draw permutation, answer, glyph and label buffers
// under the platform lock, and renders glyphs lazily on first
// reference.
//
// The crowd's glyph decode (internal/imagegen) reads only the pixels
// on which some two templates differ. NewRenderer records that mask
// once and packs every template over it; nearest sums integer squared
// differences over the mask, keeping ties on the lowest index, and
// perception draws one NormFloat64 per masked pixel, in mask order,
// and perturbs only those. The decode stays exact: every unmasked pixel
// adds the same term to every template's distance, and a float64 sum
// of at most 256·255² integers has no rounding, so the integer argmin
// is the old float L2 argmin, ties included. FuzzNearest diffs it
// against that full float scan. For the same reason noise on an
// unmasked pixel could never move a perceived label, so drawing only
// on the mask gives every label the distribution that noise on every
// pixel would.
//
// The invariant all of it preserves: RNG consumption per committed HIT
// is byte-for-byte what the crowd transcript under the current
// transcript tag draws — the scratch worker draw replays rand.Perm's
// exact loop, perception reuses buffers but never reorders NormFloat64
// calls, and slip corruption keeps its conditional second Intn. Any
// change to a draw sequence changes every golden artifact downstream;
// the golden suite and the lockstep conformance matrix pin this, and
// such a change ships as its own golden-regeneration change that bumps
// the transcript tag (see the determinism contract). The complementary
// ownership rule: scratch slices handed to aggregators or the response
// log are read-only for the duration of the call, and anything a
// caller may retain (aggregated labels, batch answer slices) is
// freshly allocated.
//
// # Static enforcement of the determinism contract
//
// Everything above — canonical commit order, seeded child RNGs,
// frozen per-HIT draw transcripts, kill/resume byte-identity — is a
// contract ordinary Go code can silently violate with one innocuous
// line. The cvglint tool (cmd/cvglint, analyzers in internal/lint)
// checks the four violations that have actually threatened it,
// mechanically, on every build:
//
//   - maprange: a range over a map in a canonical-commit package
//     (internal/core, internal/server, internal/journal,
//     internal/crowd) iterates in a different order every run. Collect
//     the keys and sort them before acting, or — when the loop body is
//     provably commutative — annotate it.
//   - wallclock: time.Now / time.Since / time.Until in a commit,
//     audit, or replay path makes round composition a function of the
//     wall clock, which breaks resume identity. Timing must derive
//     from committed state; the HTTP/SSE layer
//     (internal/server/http.go) and test files are exempt.
//   - globalrand: package-level math/rand draws consume the shared
//     global Source, and time-seeded sources produce a different draw
//     transcript every run. All randomness must flow from seeded child
//     RNGs split from the experiment seed.
//   - sentinelerr: == or != (or a switch case) against an exported
//     sentinel error (ErrBudgetExhausted, ErrJournalCorrupt,
//     ErrJournalMismatch, ErrTransient, ErrTenantBudget,
//     ErrInvalidConfig, …) breaks as soon as middleware wraps the
//     error; errors.Is is required.
//
// A justified finding is suppressed with a //lint:<rule> directive
// (rules: ordered, wallclock, rand, sentinel) on the flagged line or
// the line above, followed by a one-line justification — a bare
// directive with no justification is itself a diagnostic. Run it
// standalone as `cvglint ./...` or through the build cache as
// `go vet -vettool=$(pwd)/bin/cvglint ./...`; CI does both the vet
// form and the analyzers' own corpus tests on every change.
package core

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"imagecvg"
	"imagecvg/internal/server"
)

// tenantCap is the per-tenant HIT cap: far above what any run spends,
// so admission does its full bookkeeping (reservations included) but
// never refuses.
const tenantCap = 1 << 40

// jobMix shapes the generated service jobs: small truth-oracle audits
// of generated binary datasets whose minority sits around tau.
type jobMix struct {
	tenants         int
	n, tau, set     int
	spread          int // minority drawn from tau-spread .. tau+spread
	delayMicros     int64
	parallelism     int
	classifierShare float64
	maxHITs         int
}

// serveRate is the fixed offered load of the serve workload, in jobs
// per second: about half the drain rate of this job mix measured on a
// 2-vCPU machine with an ext4 data directory. It is fixed, never
// derived per run, because timer wake-up latency sets the idle
// latency and a derived rate would move with it.
const serveRate = 50.0

func serveMix() jobMix {
	return jobMix{tenants: 4, n: 150, tau: 4, set: 10, spread: 2,
		delayMicros: 300, parallelism: 4, classifierShare: 0.2, maxHITs: 5000}
}

func burstMix() jobMix {
	return jobMix{tenants: 4, n: 100, tau: 3, set: 10, spread: 1,
		parallelism: 1, classifierShare: 0.2, maxHITs: 5000}
}

// minBursts is the fewest bursts a serve-burst run makes; each burst
// starts its own service, so this is also its set-up count.
const minBursts = 5

// burstFleet is how many jobs one serve-burst burst submits.
func burstFleet(tiny bool) int {
	if tiny {
		return 40
	}
	return 1000
}

// serviceSetups is how many times serve starts the service; starting
// one is cheap, so many starts steady the median.
const serviceSetups = 25

// servePasses is how many times serve runs its schedule, each pass on a
// fresh service; every pass must reproduce the first one's fingerprint.
const servePasses = 2

// sampleEvery: about one job in sampleEvery is also run one-shot
// through the Auditor and must match the service's result exactly.
const sampleEvery = 20

// genJob draws one job of the mix.
func (m jobMix) genJob(rng *rand.Rand) (cfg server.JobConfig, sampled bool) {
	minority := m.tau - m.spread + rng.Intn(2*m.spread+1)
	cfg = server.JobConfig{
		Tenant:         fmt.Sprintf("tenant-%d", rng.Intn(m.tenants)),
		Mode:           server.ModeMultiple,
		Dataset:        server.DatasetSpec{N: m.n, Minority: minority, Seed: rng.Int63n(1 << 31)},
		Tau:            m.tau,
		SetSize:        m.set,
		Seed:           rng.Int63n(1 << 31),
		Parallelism:    m.parallelism,
		HITDelayMicros: m.delayMicros,
		MaxHITs:        m.maxHITs,
	}
	if rng.Float64() < m.classifierShare {
		cfg.Mode = server.ModeClassifier
		cfg.Value = 1 // the minority group
		cfg.ClassifierTP = 1 + minority*3/4
		cfg.ClassifierFP = 1 + rng.Intn(m.set)
	}
	return cfg, rng.Intn(sampleEvery) == 0
}

// service is the audit engine behind its HTTP handler on a loopback
// listener, with a client limited to one connection per CPU.
type service struct {
	eng    *server.Engine
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
	dir    string
	// goroutines is the process's goroutine count before the service
	// started; stop waits for the count to fall back to it, since a
	// goroutine on its way out still holds what it used.
	goroutines int
}

func startService(dir string) (*service, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	goroutines := runtime.NumGoroutine()
	eng, err := server.NewEngine(server.Options{DataDir: dir, TenantMaxHITs: tenantCap})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	s := &service{
		eng:    eng,
		srv:    &http.Server{Handler: eng.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
		}},
		dir:        dir,
		goroutines: goroutines,
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	// The service counts as started once it answers a request.
	resp, err := s.client.Get(s.base + "/jobs")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /jobs: %s", resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stopMeasured stops the service and returns the live heap its engine
// and terminal fleet hold: the post-GC heap with the stopped service
// reachable, less the heap once it is dropped, so neither the client's
// own per-job records nor open connections count.
func stopMeasured(s **service) float64 {
	(*s).stop()
	held := liveHeapMB(*s)
	*s = nil
	return held - liveHeapMB(nil)
}

// stop closes the engine, then the listener, and waits until every
// goroutine the service started has ended.
func (s *service) stop() {
	s.eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.served
	s.client.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > s.goroutines && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

func (s *service) submit(cfg server.JobConfig) (string, error) {
	body, err := json.Marshal(cfg)
	if err != nil {
		return "", err
	}
	resp, err := s.client.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("POST /jobs: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	var st server.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

func (s *service) get(id string) (server.JobStatus, error) {
	var st server.JobStatus
	resp, err := s.client.Get(s.base + "/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /jobs/%s: %s", id, resp.Status)
	}
	err = json.Unmarshal(data, &st)
	return st, err
}

// jobTrack is one job's timeline as the client observes it.
type jobTrack struct {
	cfg     server.JobConfig
	sampled bool
	id      string

	due, sent, acked, running, done, getStart, getEnd time.Time

	status server.JobStatus
	err    error
}

// fleetGrace bounds how long a fleet may take to finish after its last
// job was due; a stuck job fails the run instead of hanging it.
const fleetGrace = 60 * time.Second

// fleetRun drives jobs through a service and observes each one:
// POST /jobs at its due time, Engine.Subscribe for the running and
// terminal events, then GET /jobs/{id} for the result. Sends take
// priority over result fetches on the shared clients.
type fleetRun struct {
	svc     *service
	jobs    []*jobTrack
	clients int
	// openLoop marks a scheduled fleet, whose send lateness is recorded.
	openLoop bool
	tr       *tracer // nil when untraced
}

func (f *fleetRun) run() error {
	sendQ := make(chan int, len(f.jobs)) // sized to the fleet: the dispatcher never blocks
	getQ := make(chan int, len(f.jobs))
	var fetched sync.WaitGroup
	fetched.Add(len(f.jobs))
	stop := make(chan struct{})

	go func() {
		for i, j := range f.jobs {
			if d := time.Until(j.due); d > 0 {
				time.Sleep(d)
			}
			sendQ <- i
		}
	}()
	var clients sync.WaitGroup
	for c := 0; c < f.clients; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for {
				select {
				case i := <-sendQ:
					f.send(i, getQ, &fetched)
					continue
				default:
				}
				select {
				case i := <-sendQ:
					f.send(i, getQ, &fetched)
				case i := <-getQ:
					f.fetch(i)
					fetched.Done()
				case <-stop:
					return
				}
			}
		}()
	}
	finished := make(chan struct{})
	go func() {
		fetched.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-time.After(time.Until(f.jobs[len(f.jobs)-1].due) + fleetGrace):
		err = fmt.Errorf("jobs still unfinished %v after the last was due", fleetGrace)
	}
	close(stop)
	if err == nil {
		clients.Wait()
	}
	return err
}

func (f *fleetRun) send(i int, getQ chan<- int, fetched *sync.WaitGroup) {
	j := f.jobs[i]
	j.sent = time.Now()
	j.id, j.err = f.svc.submit(j.cfg)
	j.acked = time.Now()
	if j.err != nil {
		fetched.Done()
		return
	}
	events, unsub, err := f.svc.eng.Subscribe(j.id)
	if err != nil {
		j.err = err
		fetched.Done()
		return
	}
	// A job a worker picked up before the subscription attached shows
	// as running (or finished) here; its queue time is then bounded by
	// this observation.
	if st, err := f.svc.eng.Status(j.id); err == nil && st.State != server.StateQueued {
		j.running = time.Now()
	}
	go func() {
		for ev := range events {
			if ev.Type == "state" && ev.State == server.StateRunning && j.running.IsZero() {
				j.running = time.Now()
			}
		}
		j.done = time.Now()
		if j.running.IsZero() {
			j.running = j.done
		}
		unsub()
		getQ <- i
	}()
}

func (f *fleetRun) fetch(i int) {
	j := f.jobs[i]
	j.getStart = time.Now()
	j.status, j.err = f.svc.get(j.id)
	j.getEnd = time.Now()
	if f.tr != nil {
		root := f.tr.add("job", int64(i), -1, j.due, j.done)
		if f.openLoop {
			f.tr.add("loadgen.late", int64(i), root, j.due, j.sent)
		}
		f.tr.add("http.submit", int64(i), root, j.sent, j.acked)
		f.tr.add("server.queue", int64(i), root, j.acked, j.running)
		f.tr.add("server.run", int64(i), root, j.running, j.done)
		f.tr.add("http.get", int64(i), -1, j.getStart, j.getEnd)
	}
}

// fleetOutcome summarizes a finished fleet.
type fleetOutcome struct {
	jobs, failed int
	latencies    []float64 // ms, scheduled send to done; +Inf for a failed job
	tasks        int64
	window       time.Duration // first due to last done
	rt           runtimeDelta  // over the fleet run, checks excluded
	fp           fingerprint
}

// finish checks every job and summarizes the fleet: each must end
// done with the ground-truth verdict, and the sampled ones must match
// the one-shot Auditor byte for byte.
func (f *fleetRun) finish(rep *report, rt runtimeDelta) (fleetOutcome, error) {
	out := fleetOutcome{rt: rt}
	var errs []error
	first := f.jobs[0].due
	var last time.Time
	for _, j := range f.jobs {
		out.jobs++
		err := j.err
		if err == nil {
			err = checkJob(j)
		}
		if err != nil {
			out.failed++
			out.latencies = append(out.latencies, math.Inf(1))
			errs = append(errs, fmt.Errorf("job %d (%s): %w", out.jobs-1, j.id, err))
			continue
		}
		out.latencies = append(out.latencies, ms(j.done.Sub(j.due)))
		if j.done.After(last) {
			last = j.done
		}
		res := j.status.Result
		out.tasks += int64(res.Tasks)
		out.fp.Tasks += int64(res.Tasks)
		out.fp.HITs += int64(res.Spent.HITs())
		out.fp.Rounds += int64(j.status.Rounds)
		size, err := fileSize(filepath.Join(f.svc.dir, j.id+".jnl"))
		if err != nil {
			errs = append(errs, err)
		}
		out.fp.JournalBytes += size
	}
	out.window = last.Sub(first)
	rep.attempted += out.jobs
	rep.failed += out.failed
	if len(errs) > 3 {
		errs = append(errs[:3], fmt.Errorf("and %d more", len(errs)-3))
	}
	return out, errors.Join(errs...)
}

// checkJob is the per-job correctness gate.
func checkJob(j *jobTrack) error {
	st := j.status
	if st.State != server.StateDone || st.Result == nil {
		return fmt.Errorf("ended %s: %s", st.State, st.Error)
	}
	res := st.Result
	if res.Exhausted || res.Spent.Denied != 0 {
		return fmt.Errorf("non-binding budget refused %d queries", res.Spent.Denied)
	}
	minorityCovered := j.cfg.Dataset.Minority >= j.cfg.Tau
	switch j.cfg.Mode {
	case server.ModeClassifier:
		if c := res.Classifier; c == nil || c.Covered != minorityCovered {
			return fmt.Errorf("classifier verdict %+v, ground truth covered=%v", c, minorityCovered)
		}
	default:
		want := []bool{j.cfg.Dataset.N-j.cfg.Dataset.Minority >= j.cfg.Tau, minorityCovered}
		if len(res.Verdicts) != len(want) {
			return fmt.Errorf("%d verdicts, want %d", len(res.Verdicts), len(want))
		}
		for i, v := range res.Verdicts {
			if !v.Settled || v.Covered != want[i] {
				return fmt.Errorf("group %s: covered=%v settled=%v, ground truth covered=%v", v.Group, v.Covered, v.Settled, want[i])
			}
		}
	}
	if !j.sampled {
		return nil
	}
	want, err := oneShot(j.cfg, st.Budget)
	if err != nil {
		return err
	}
	got, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("result %s differs from one-shot Auditor %s", got, want)
	}
	return nil
}

// oneShot runs a job's configuration through the root Auditor and
// serializes it the way the service does.
func oneShot(cfg server.JobConfig, caps server.BudgetCaps) ([]byte, error) {
	ds, err := imagecvg.GenerateBinary(cfg.Dataset.N, cfg.Dataset.Minority, cfg.Dataset.Seed)
	if err != nil {
		return nil, err
	}
	a := imagecvg.NewAuditor(imagecvg.NewTruthOracle(ds), cfg.Tau, cfg.SetSize).
		WithSeed(cfg.Seed).WithParallelism(cfg.Parallelism).WithLockstep().
		WithBudget(imagecvg.Budget{MaxHITs: caps.MaxHITs, MaxSpend: caps.MaxSpend})
	var res *server.JobResult
	switch cfg.Mode {
	case server.ModeClassifier:
		g := imagecvg.GroupsForAttribute(ds.Schema(), cfg.Attr)[cfg.Value]
		cr, err := a.AuditWithClassifier(ds.IDs(), ds.PredictedSet(g, cfg.ClassifierTP, cfg.ClassifierFP), g)
		if err != nil {
			return nil, err
		}
		spent, _ := a.BudgetSpent()
		res = server.ResultFromClassifier(cr, spent)
	default:
		mr, err := a.AuditAttribute(ds.IDs(), ds.Schema(), cfg.Attr)
		if err != nil {
			return nil, err
		}
		spent, _ := a.BudgetSpent()
		res = server.ResultFromMultiple(mr, spent)
	}
	return json.Marshal(res)
}

// schedule draws the open-loop arrival times: rate x window jobs with
// exponential gaps, scaled so the last arrives at the window's end.
// The job count and the span are fixed rather than cut at the window,
// so every seed offers exactly the rate and the same number of jobs,
// and the tail percentiles always have their samples.
func schedule(seed int64, rate float64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	gaps := make([]float64, max(1, int(math.Round(rate*window.Seconds()))))
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	out := make([]time.Duration, len(gaps))
	t := 0.0
	for i, g := range gaps {
		t += g
		out[i] = time.Duration(t / total * float64(window))
	}
	return out
}

// openLoopPass runs the serve schedule once against svc: seeded
// arrivals over one pass's share of the run and seeded configurations,
// both from --seed only.
func openLoopPass(o *options, svc *service, tr *tracer, rep *report) (fleetOutcome, []*jobTrack, error) {
	arrivals := schedule(o.seed, serveRate, o.seconds/servePasses)
	rng := rand.New(rand.NewSource(o.seed + 1))
	mix := serveMix()
	start := time.Now().Add(20 * time.Millisecond)
	jobs := make([]*jobTrack, len(arrivals))
	for i := range jobs {
		cfg, sampled := mix.genJob(rng)
		jobs[i] = &jobTrack{cfg: cfg, sampled: sampled, due: start.Add(arrivals[i])}
	}
	f := &fleetRun{svc: svc, jobs: jobs, clients: runtime.NumCPU(), openLoop: true, tr: tr}
	r0 := readRuntime()
	if err := f.run(); err != nil {
		return fleetOutcome{}, jobs, err
	}
	out, err := f.finish(rep, readRuntime().since(r0))
	return out, jobs, err
}

// serviceSetup starts the service several times and keeps the last
// one; the median start CPU time is setup_s.
func serviceSetup(o *options) (*service, float64, error) {
	var setupS []float64
	var svc *service
	for i := 0; i < serviceSetups; i++ {
		if svc != nil {
			svc.stop()
			os.RemoveAll(svc.dir)
		}
		s, err := setupCPU(func() (err error) {
			svc, err = startService(filepath.Join(o.dataDir, fmt.Sprintf("engine-%d", i)))
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		setupS = append(setupS, s)
	}
	return svc, median(setupS), nil
}

// serveOpenLoop runs the schedule servePasses times, the first pass on
// the service the set-up started and each later one on a fresh
// service; figures pool the passes.
func serveOpenLoop(o *options) (*report, error) {
	rep := newReport()
	svc, setup, err := serviceSetup(o)
	if err != nil {
		return rep, err
	}
	rep.metrics["setup_s"] = setup
	var latencies, late []float64
	var tasks, done int64
	var window, cpu time.Duration
	for p := 0; p < servePasses; p++ {
		if p > 0 {
			if svc, err = startService(filepath.Join(o.dataDir, fmt.Sprintf("pass-%d", p))); err != nil {
				return rep, fmt.Errorf("setup: %w", err)
			}
		}
		out, jobs, err := openLoopPass(o, svc, nil, rep)
		rep.metrics["heap_mb"] = stopMeasured(&svc)
		if p == 0 {
			rep.fp = out.fp
		}
		if err != nil {
			return rep, err
		}
		if out.fp != rep.fp {
			return rep, fmt.Errorf("pass %d fingerprint %v differs from the first pass %v", p, out.fp, rep.fp)
		}
		latencies = append(latencies, out.latencies...)
		for _, j := range jobs {
			late = append(late, ms(j.sent.Sub(j.due)))
		}
		tasks += out.tasks
		done += int64(out.jobs - out.failed)
		window += out.window
		cpu += out.rt.cpu
	}
	rep.metrics["tasks_per_s"] = float64(tasks) / window.Seconds()
	p99, label := tail(latencies)
	lateTail, lateLabel := tail(late)
	rep.extra = append(rep.extra,
		line{"cpu_us_per_task", "us", float64(cpu.Nanoseconds()) / 1e3 / float64(tasks), ""},
		line{"job_p50_ms", "ms", median(latencies), fmt.Sprintf("of %d jobs", len(latencies))},
		line{"job_p99_ms", "ms", p99, label},
		line{"jobs_per_s", "1/s", float64(done) / window.Seconds(), fmt.Sprintf("offered %g/s", serveRate)},
		line{"loadgen.late_p99_ms", "ms", lateTail, lateLabel},
	)
	return rep, nil
}

// burstPass submits one fleet back to back from a single client, then
// waits for every job and fetches every result.
func burstPass(o *options, svc *service, tr *tracer, rep *report) (fleetOutcome, []*jobTrack, error) {
	rng := rand.New(rand.NewSource(o.seed + 1))
	mix := burstMix()
	jobs := make([]*jobTrack, burstFleet(o.tiny))
	start := time.Now()
	for i := range jobs {
		cfg, sampled := mix.genJob(rng)
		jobs[i] = &jobTrack{cfg: cfg, sampled: sampled, due: start}
	}
	// Due times are all "now": one client sends as fast as the service
	// acknowledges.
	f := &fleetRun{svc: svc, jobs: jobs, clients: 1, tr: tr}
	r0 := readRuntime()
	if err := f.run(); err != nil {
		return fleetOutcome{}, jobs, err
	}
	out, err := f.finish(rep, readRuntime().since(r0))
	return out, jobs, err
}

func serveBurst(o *options) (*report, error) {
	rep := newReport()
	var setupS, cpu, tps, p50s, jps, heap []float64
	start := time.Now()
	for b := 0; ; b++ {
		var svc *service
		s, err := setupCPU(func() (err error) {
			svc, err = startService(filepath.Join(o.dataDir, fmt.Sprintf("burst-%d", b)))
			return err
		})
		if err != nil {
			return rep, err
		}
		setupS = append(setupS, s)
		out, _, err := burstPass(o, svc, nil, rep)
		dir := svc.dir
		heap = append(heap, stopMeasured(&svc))
		os.RemoveAll(dir)
		if err != nil {
			rep.fp = out.fp
			return rep, err
		}
		if b == 0 {
			rep.fp = out.fp
		} else if out.fp != rep.fp {
			return rep, fmt.Errorf("burst %d fingerprint %v differs from the first burst %v", b, out.fp, rep.fp)
		}
		cpu = append(cpu, float64(out.rt.cpu.Nanoseconds())/1e3/float64(out.tasks))
		tps = append(tps, float64(out.tasks)/out.window.Seconds())
		p50s = append(p50s, median(out.latencies))
		jps = append(jps, float64(out.jobs)/out.window.Seconds())
		elapsed := time.Since(start)
		if len(setupS) >= minBursts && elapsed+elapsed/time.Duration(b+1) > o.seconds {
			break
		}
	}
	rep.metrics["setup_s"] = median(setupS)
	rep.metrics["heap_mb"] = median(heap)
	rep.metrics["tasks_per_s"] = median(tps)
	note := fmt.Sprintf("median of %d bursts of %d jobs", len(jps), burstFleet(o.tiny))
	rep.extra = append(rep.extra,
		line{"cpu_us_per_task", "us", median(cpu), note},
		line{"job_p50_ms", "ms", median(p50s), note},
		line{"jobs_per_s", "1/s", median(jps), note})
	return rep, nil
}

// serviceLayers derives the per-layer metrics of a traced service pass.
func serviceLayers(m map[string]float64, tr *tracer, jobs []*jobTrack) error {
	tot, err := tr.totals()
	if err != nil {
		return err
	}
	// A span the pass did not record (send lateness of a burst) leaves
	// its metric at 0.
	set := func(metric, span string, stat func([]float64) float64) {
		if lt := tot[span]; lt != nil {
			m[metric] = stat(lt.durs)
		}
	}
	p99 := func(xs []float64) float64 { v, _ := tail(xs); return v }
	set("server.queue_p50_ms", "server.queue", median)
	set("server.queue_p99_ms", "server.queue", p99)
	set("server.run_p50_ms", "server.run", median)
	set("http.submit_p50_ms", "http.submit", median)
	set("http.submit_p99_ms", "http.submit", p99)
	set("http.get_p50_ms", "http.get", median)
	set("loadgen.late_p99_ms", "loadgen.late", p99)
	var rounds, hits, denied int64
	for _, j := range jobs {
		if j.status.Result == nil {
			continue
		}
		rounds += int64(j.status.Rounds)
		hits += int64(j.status.Result.Spent.HITs())
		denied += int64(j.status.Result.Spent.Denied)
	}
	m["lockstep.rounds"] = float64(rounds)
	if rounds > 0 {
		m["lockstep.hits_per_round"] = float64(hits) / float64(rounds)
	}
	m["budget.refused"] = float64(denied)
	return nil
}

// tracedService runs a service workload once untraced and once traced,
// each on a fresh service; the fingerprints must match, and the change
// in median job latency is the tracing overhead.
func tracedService(o *options, pass func(*service, *tracer, *report) (fleetOutcome, []*jobTrack, error)) (*report, error) {
	rep := newReport()
	var outs [2]fleetOutcome
	var traced []*jobTrack
	tr := newTracer()
	for i, t := range []*tracer{nil, tr} {
		svc, err := startService(filepath.Join(o.dataDir, fmt.Sprintf("engine-%d", i)))
		if err != nil {
			return rep, fmt.Errorf("setup: %w", err)
		}
		out, jobs, err := pass(svc, t, rep)
		svc.stop()
		if err != nil {
			rep.fp = out.fp
			return rep, err
		}
		outs[i], traced = out, jobs
	}
	if outs[0].fp != outs[1].fp {
		return rep, fmt.Errorf("traced fingerprint %v differs from untraced %v", outs[1].fp, outs[0].fp)
	}
	rep.fp = outs[0].fp
	m := zeroLayers()
	if err := serviceLayers(m, tr, traced); err != nil {
		return rep, err
	}
	if err := tr.write(o.tracePath()); err != nil {
		return rep, err
	}
	m["runtime.allocs_per_task"] = float64(outs[0].rt.mallocs) / float64(outs[0].tasks)
	m["runtime.gc_cpu_frac"] = outs[0].rt.gcFrac
	m["trace.overhead_frac"] = median(outs[1].latencies)/median(outs[0].latencies) - 1
	rep.metrics = m
	return rep, nil
}

func serveOpenLoopTraced(o *options) (*report, error) {
	return tracedService(o, func(svc *service, tr *tracer, rep *report) (fleetOutcome, []*jobTrack, error) {
		return openLoopPass(o, svc, tr, rep)
	})
}

func serveBurstTraced(o *options) (*report, error) {
	return tracedService(o, func(svc *service, tr *tracer, rep *report) (fleetOutcome, []*jobTrack, error) {
		return burstPass(o, svc, tr, rep)
	})
}

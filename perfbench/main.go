// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time, checks every output against ground truth,
// and prints each metric by name with its unit; the last line of
// standard output is one JSON result object.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - crowd-audit: the cvgrun -crowd -journal -trust -cache -max-hits
//     stack on one Multiple-Coverage audit, then a resume from its
//     journal;
//   - truth-audit: one Intersectional-Coverage audit on a ground-truth
//     oracle behind the cache and governor;
//   - serve: an open loop of small latency-bound jobs against the
//     audit service over loopback HTTP;
//   - serve-burst: fleets of tiny jobs submitted back to back, the
//     service's drain rate.
//
// With --trace 0 the result carries the end-to-end metrics (see
// endToEnd); with --trace 1 a separate run rebuilds each layer
// boundary with a timing shim and reports the per-layer metrics (see
// perLayer) and the tracing overhead. Inputs derive from --seed only,
// and each run prints a fingerprint of the exact work done (tasks,
// HITs, probe HITs, rounds, journal bytes) that a repeat run of the
// same seed, traced or not, must reproduce.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"imagecvg/internal/pattern"
)

type workload struct {
	name   string
	run    func(*options) (*report, error)
	traced func(*options) (*report, error)
}

var workloads = []workload{
	{"crowd-audit", crowdAudit, crowdAuditTraced},
	{"truth-audit", truthAudit, truthAuditTraced},
	{"serve", serveOpenLoop, serveOpenLoopTraced},
	{"serve-burst", serveBurst, serveBurstTraced},
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// tiny shrinks every input, for the benchmark's own tests.
	tiny bool
	// dataDir holds the run's journals and job files; traceDir the
	// written-out spans.
	dataDir, traceDir string
	// Expected results that replace ground truth, for the tests that
	// prove the correctness gates fire.
	wantVerdicts []verdict
	wantMUPs     []pattern.MUP
}

func (o *options) tracePath() string {
	return filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.csv", o.workload, o.seed))
}

// line is a metric printed as text only: end-to-end figures that exist
// on some workloads and not others, and counts that explain a run.
type line struct {
	name, unit string
	value      float64
	note       string
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	extra             []line
	fp                fingerprint
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// record is the self-describing form of a run, printed before the
// result line: every figure, the fingerprint, and the stamp.
type record struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Stamp       stamp              `json:"stamp"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Metrics     map[string]float64 `json:"metrics"`
	Error       string             `json:"error,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measuring time of one run")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	tiny := fs.Bool("tiny", false, "shrink every input (self-test scale)")
	dataDir := fs.String("data-dir", filepath.Join(".bench_build", "perfbench-data"), "directory for journals and job files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	code := 0
	for _, w := range todo {
		o := &options{
			workload: w.name,
			seed:     *seed,
			seconds:  time.Duration(*seconds * float64(time.Second)),
			trace:    *trace == 1,
			tiny:     *tiny,
			dataDir:  filepath.Join(*dataDir, fmt.Sprintf("%s-%d", w.name, os.Getpid())),
			traceDir: filepath.Join(filepath.Dir(*dataDir), "perfbench-trace"),
		}
		if c := runOne(w, o, stdout, stderr); c != 0 {
			code = c
		}
	}
	return code
}

// runOne runs a workload in a fresh data directory and prints its
// report; any failed correctness gate makes the exit code nonzero.
func runOne(w workload, o *options, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(o.dataDir)
	st := newStamp(o.dataDir)
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds.Seconds(), o.trace)

	fn := w.run
	specs := endToEnd
	if o.trace {
		fn, specs = w.traced, perLayer
	}
	rep, err := fn(o)
	if rep == nil {
		rep = newReport()
	}
	if err == nil {
		err = validate(rep, specs, !o.trace)
	}

	rec := record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: o.trace,
		Stamp: st, Fingerprint: rep.fp, Metrics: map[string]float64{}}
	res := result{Correct: err == nil, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	fmt.Fprintf(stdout, "fingerprint: %s\n", rep.fp)
	for _, s := range specs {
		v, ok := rep.metrics[s.name]
		if !ok {
			continue
		}
		fmt.Fprintf(stdout, "metric %-26s %14.6g %s\n", s.name, v, s.unit)
		rec.Metrics[s.name] = v
		res.Metrics[s.name] = jsonMetric{Value: v, Unit: s.unit}
	}
	if rep.attempted > 0 {
		rep.extra = append(rep.extra, line{"fail_frac", "ratio", float64(rep.failed) / float64(rep.attempted), ""})
	}
	sort.SliceStable(rep.extra, func(i, j int) bool { return rep.extra[i].name < rep.extra[j].name })
	for _, l := range rep.extra {
		fmt.Fprintf(stdout, "metric %-26s %14.6g %s", l.name, l.value, l.unit)
		if l.note != "" {
			fmt.Fprintf(stdout, " (%s)", l.note)
		}
		fmt.Fprintln(stdout)
		rec.Metrics[l.name] = l.value
	}
	if err != nil {
		rec.Error = err.Error()
		fmt.Fprintf(stderr, "perfbench: %s: FAILED: %v\n", o.workload, err)
	}
	recJSON, _ := json.Marshal(rec)
	fmt.Fprintf(stdout, "record: %s\n", recJSON)
	resJSON, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(resJSON))
	if err != nil {
		return 1
	}
	return 0
}

// validate checks that a run reported every declared metric as a
// finite number, and every end-to-end metric as a positive one.
func validate(rep *report, specs []spec, positive bool) error {
	var errs []error
	for _, s := range specs {
		v, ok := rep.metrics[s.name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s not measured", s.name))
		case math.IsNaN(v) || math.IsInf(v, 0):
			errs = append(errs, fmt.Errorf("metric %s is %v", s.name, v))
		case positive && v <= 0:
			errs = append(errs, fmt.Errorf("metric %s is %v, want > 0", s.name, v))
		}
	}
	if rep.failed > 0 {
		errs = append(errs, fmt.Errorf("%d of %d operations failed", rep.failed, rep.attempted))
	}
	return errors.Join(errs...)
}

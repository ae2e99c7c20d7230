package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"imagecvg/internal/pattern"
	"imagecvg/internal/server"
)

// runTiny runs one workload at self-test scale and returns its stdout,
// failing the test on a nonzero exit.
func runTiny(t *testing.T, workload, trace string) string {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace,
		"--tiny", "--data-dir", t.TempDir() + "/data"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s trace=%s exited %d:\n%s%s", workload, trace, code, out.String(), errOut.String())
	}
	return out.String()
}

func lastResult(t *testing.T, stdout string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	return res
}

// checkMetrics asserts the run printed each metric with its unit, as a
// text line and in the result object.
func checkMetrics(t *testing.T, stdout string, specs []spec) {
	t.Helper()
	res := lastResult(t, stdout)
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
	if len(res.Metrics) != len(specs) {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := res.Metrics[s.name]
		if !ok || m.Unit != s.unit {
			t.Errorf("metric %s: got %+v, want unit %s", s.name, m, s.unit)
		}
		re := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(s.name) + ` +\S+ ` + regexp.QuoteMeta(s.unit) + `$`)
		if !re.MatchString(stdout) {
			t.Errorf("no text line for metric %s [%s]", s.name, s.unit)
		}
	}
}

func fingerprintLine(t *testing.T, stdout string) string {
	t.Helper()
	m := regexp.MustCompile(`(?m)^fingerprint: .*$`).FindString(stdout)
	if m == "" {
		t.Fatal("no fingerprint line")
	}
	return m
}

// TestWorkloads runs every workload at tiny scale, untraced and
// traced: each prints every declared metric with its unit, passes its
// correctness gates, and the fingerprint repeats across a repeat run
// and the traced run.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := runTiny(t, w.name, "0")
			checkMetrics(t, plain, endToEnd)
			traced := runTiny(t, w.name, "1")
			checkMetrics(t, traced, perLayer)
			again := runTiny(t, w.name, "0")
			fp := fingerprintLine(t, plain)
			if got := fingerprintLine(t, again); got != fp {
				t.Errorf("repeat run %s, first run %s", got, fp)
			}
			if got := fingerprintLine(t, traced); got != fp {
				t.Errorf("traced run %s, untraced %s", got, fp)
			}
		})
	}
}

func tinyOptions(t *testing.T, workload string) *options {
	return &options{workload: workload, seed: 3, seconds: time.Millisecond, tiny: true,
		dataDir: t.TempDir(), traceDir: t.TempDir()}
}

// TestGatesCatchWrongResults feeds each correctness gate a deliberately
// wrong expectation and requires the run to fail.
func TestGatesCatchWrongResults(t *testing.T) {
	o := tinyOptions(t, "crowd-audit")
	o.wantVerdicts = []verdict{{group: "group=v0", covered: false, settled: true}}
	if _, err := crowdAudit(o); err == nil || !strings.Contains(err.Error(), "differ from expected") {
		t.Errorf("crowd-audit with a wrong expected verdict: err = %v", err)
	}

	o = tinyOptions(t, "truth-audit")
	o.wantMUPs = []pattern.MUP{} // the planted patterns are uncovered, so expecting none is wrong
	if _, err := truthAudit(o); err == nil || !strings.Contains(err.Error(), "audit found") {
		t.Errorf("truth-audit with wrong expected MUPs: err = %v", err)
	}

	cfg := server.JobConfig{Mode: server.ModeMultiple, Tau: 5, Dataset: server.DatasetSpec{N: 100, Minority: 3}}
	wrong := &jobTrack{cfg: cfg, status: server.JobStatus{State: server.StateDone, Result: &server.JobResult{
		Verdicts: []server.GroupVerdict{{Group: "male", Covered: true, Settled: true}, {Group: "female", Covered: true, Settled: true}},
	}}}
	if err := checkJob(wrong); err == nil {
		t.Error("service job with a wrong verdict passed the gate")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i := range b.Workloads {
		if i < len(workloads) && b.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, b.Workloads[i].Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if i < len(endToEnd) && (spec{m.Name, m.Unit, m.Better}) != endToEnd[i] {
			t.Errorf("end_to_end %d: %+v vs %+v", i, m, endToEnd[i])
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if i < len(perLayer) && (spec{m.Name, m.Unit, m.Better}) != perLayer[i] {
			t.Errorf("per_layer %d: %+v vs %+v", i, m, perLayer[i])
		}
	}
}

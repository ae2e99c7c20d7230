package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"table1", "table2", "figure7a", "noise-sweep", "sweep"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "figure7e", "-seed", "7", "-trials", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "effective 1") {
		t.Errorf("output missing Table 3 settings:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "Figure 7e") {
		t.Errorf("output missing artifact name")
	}
	if !strings.Contains(out.String(), "timing:") {
		t.Errorf("output missing per-trial timing line")
	}
}

// TestTrialParallelismIdenticalTables: the same experiment renders the
// identical table at trial-parallelism 1 and 8 — the engine's core
// reproducibility promise, surfaced end to end.
func TestTrialParallelismIdenticalTables(t *testing.T) {
	tables := func(parallelism string) string {
		var out, errOut bytes.Buffer
		if code := run([]string{"-exp", "figure7e", "-seed", "7", "-trials", "2",
			"-trial-parallelism", parallelism}, &out, &errOut); code != 0 {
			t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
		}
		// Strip the wall-clock-bearing lines; compare the tables.
		var kept []string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "===") || strings.Contains(line, "timing:") {
				continue
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	seq, par := tables("1"), tables("8")
	if seq != par {
		t.Errorf("tables diverged across trial-parallelism:\n%s\nvs\n%s", seq, par)
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown experiment") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

// TestBadFlag: unknown flags exit 2 before any experiment runs. The
// list includes the old benchmark-history and profiling flags, so a
// script still passing them fails loudly instead of dropping its
// records.
func TestBadFlag(t *testing.T) {
	for _, flag := range []string{"-definitely-not-a-flag", "-json", "-baseline", "-fail-regression", "-cpuprofile", "-memprofile"} {
		var out, errOut bytes.Buffer
		if code := run([]string{flag, "x", "-exp", "figure7e", "-trials", "1"}, &out, &errOut); code != 2 {
			t.Errorf("%s: exit = %d, want 2", flag, code)
		}
		if out.Len() != 0 {
			t.Errorf("%s: ran experiments before rejecting the flag:\n%s", flag, out.String())
		}
	}
}

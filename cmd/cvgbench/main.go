// Command cvgbench regenerates the paper's evaluation artifacts: every
// table and figure of section 6 plus the extension experiments,
// printed as aligned text tables. Experiments run on the parallel
// trial-runner (internal/experiment); -trial-parallelism widens the
// pool without changing a single rendered cell. Each artifact ends
// with a per-trial timing line; performance is measured by the
// perfbench module, not here.
//
// Usage:
//
//	cvgbench -list
//	cvgbench -exp table1 -seed 42 -trials 5
//	cvgbench -exp figure7e,budget-frontier -trials 2
//	cvgbench -exp all -trial-parallelism 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"imagecvg/internal/experiment"
	"imagecvg/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("cvgbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		exp       = fs.String("exp", "all", "experiment id (see -list), a comma-separated list of ids, or 'all'")
		seed      = fs.Int64("seed", 42, "base random seed")
		trials    = fs.Int("trials", 3, "repetitions averaged per configuration")
		trialPar  = fs.Int("trial-parallelism", 1, "trial-runner worker pool width (1 = sequential harness; results are identical at any width)")
		enginePar = fs.Int("engine-parallelism", 0, "override the audit engine's worker pool width inside each trial of the experiments with a fixed engine width (table2, classifier-strategy, figure7e-h); 0 keeps their defaults, and experiments that sweep parallelism themselves (sweep, lockstep-latency) keep their own axes — artifacts are identical at any width")
		list      = fs.Bool("list", false, "list available experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Fprintln(out, "available experiments:")
		for _, e := range sim.Experiments() {
			fmt.Fprintf(out, "  %-18s %-10s %s\n", e.ID, e.Paper, e.Description)
		}
		return 0
	}

	experiments := sim.Experiments()
	if *exp != "all" {
		experiments = nil
		for _, id := range strings.Split(*exp, ",") {
			e, ok := sim.Lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(errOut, "cvgbench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			experiments = append(experiments, e)
		}
	}

	timing := experiment.NewRecorder()
	opts := sim.Options{Seed: *seed, Trials: *trials, Parallelism: *trialPar,
		EngineParallelism: *enginePar, Timing: timing}
	for _, e := range experiments {
		timing.Reset()
		start := time.Now()
		res, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(errOut, "cvgbench: %s: %v\n", e.ID, err)
			return 1
		}
		elapsed := time.Since(start)
		fmt.Fprintf(out, "=== %s (%s) — %s [%.1fs]\n%s\n",
			e.ID, e.Paper, e.Description, elapsed.Seconds(), res)
		fmt.Fprintf(out, "    timing: %s, wall %.2fs, pool %d\n",
			timing.Summary(), elapsed.Seconds(), *trialPar)
	}
	return 0
}

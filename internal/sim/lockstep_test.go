package sim

import (
	"testing"
)

// TestLockstepLatencyRetainsSpeedup is the acceptance gate for the
// lockstep scheduler's wall-clock: under per-HIT crowd latency the
// batched rounds at parallelism 4 must keep at least a 2x win over
// width 1, where every HIT pays its round-trip in series (measured
// ~2.5-3x; latency, not CPU, is the bottleneck, so the bound holds on
// single-core CI too), while issuing the identical task counts.
func TestLockstepLatencyRetainsSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-bound benchmark skipped in -short")
	}
	res, err := RunLockstepLatency(DefaultLatencyParams(), Options{Seed: 42, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Rows[0].Tasks != res.Rows[1].Tasks {
		t.Errorf("task counts diverged between widths: P1 %.1f, P%d %.1f",
			res.Rows[0].Tasks, res.Params.Parallelism, res.Rows[1].Tasks)
	}
	if s := res.Speedup(); s < 2.0 {
		t.Errorf("lockstep speedup %.2fx at parallelism %d, want >= 2x\n%s",
			s, res.Params.Parallelism, res)
	}
}

// TestSweepLockstepInvariant: the sweep's engine-parallelism axis must
// render the identical grid on a 1-wide and a 4-wide trial pool — the
// Config pass-through from Options to the trial bodies.
func TestSweepLockstepInvariant(t *testing.T) {
	p := SweepParams{
		Ns:             []int{2_000},
		Taus:           []int{25},
		Parallelisms:   []int{1, 4},
		SetSize:        50,
		MinorityCounts: []int{10, 8, 6},
	}
	serial, err := RunSweep(p, Options{Seed: 23, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := RunSweep(p, Options{Seed: 23, Trials: 2, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Rows {
		if serial.Rows[i].Tasks != pooled.Rows[i].Tasks {
			t.Errorf("row %d: tasks %.1f on 1 trial worker vs %.1f on 4",
				i, serial.Rows[i].Tasks, pooled.Rows[i].Tasks)
		}
	}
	if len(serial.Workloads) != len(pooled.Workloads) {
		t.Fatalf("workload count diverged")
	}
	for i := range serial.Workloads {
		if serial.Workloads[i] != pooled.Workloads[i] {
			t.Errorf("workload %d cache summary diverged: %+v vs %+v",
				i, serial.Workloads[i], pooled.Workloads[i])
		}
	}
}

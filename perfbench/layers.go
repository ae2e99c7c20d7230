package main

// spec names one metric as BENCHMARK.json declares it.
type spec struct {
	name, unit, better string
}

// endToEnd are the gated metrics a user of the system sees, reported
// by every untraced run with a meaning on every workload:
//
//   - setup_s: median process CPU seconds of several set-ups in the run
//     — dataset build and crowd platform construction for the audits,
//     engine and listener start for the service;
//   - heap_mb: post-GC live heap at the end with the auditor held, or
//     on the service what the stopped engine and its terminal fleet
//     hold (see stopMeasured);
//   - tasks_per_s: committed tasks per second of wall-clock — the
//     median over the run's audits or bursts, and on serve over the
//     whole open loop, where it falls only once the service backs up.
//
// Every run also prints, but does not gate, the other time figures:
// cpu_us_per_task and job_p50_ms on every workload, replay_tasks_per_s
// on crowd-audit, job_p99_ms, jobs_per_s and loadgen.late_p99_ms on
// serve, jobs_per_s on serve-burst.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
	{"tasks_per_s", "1/s", "higher"},
}

// perLayer are the metrics of single layers, reported by the traced
// run. Each is measured from outside the layer: spans around calls
// into its public functions, or counters those functions return. A
// layer a workload does not run reads 0 there.
var perLayer = []spec{
	{"crowd.ns_per_hit", "ns", "lower"},
	{"crowd.assignments", "count", "lower"},
	{"journal.append_p50_us", "us", "lower"},
	{"journal.append_p99_us", "us", "lower"},
	{"journal.rounds", "count", "lower"},
	{"journal.bytes_per_round", "B", "lower"},
	{"journal.ns_per_hit", "ns", "lower"},
	{"journal.load_s", "s", "lower"},
	{"lockstep.rounds", "count", "lower"},
	{"lockstep.hits_per_round", "count", "higher"},
	{"lockstep.ns_per_hit", "ns", "lower"},
	{"cache.ns_per_hit", "ns", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"budget.ns_per_hit", "ns", "lower"},
	{"budget.refused", "count", "lower"},
	{"trust.ns_per_hit", "ns", "lower"},
	{"trust.probe_hits", "count", "lower"},
	{"dataset.build_s", "s", "lower"},
	{"server.queue_p50_ms", "ms", "lower"},
	{"server.queue_p99_ms", "ms", "lower"},
	{"server.run_p50_ms", "ms", "lower"},
	{"http.submit_p50_ms", "ms", "lower"},
	{"http.submit_p99_ms", "ms", "lower"},
	{"http.get_p50_ms", "ms", "lower"},
	{"runtime.allocs_per_task", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

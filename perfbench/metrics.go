package main

// metricDef names one reported metric and its unit. These tables are
// the single list the result line is built from; BENCHMARK.json
// declares the same names and units, which the tests check.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the simulator sees, reported by every
// workload with -trace 0. A workload's "request" is one HTTP job for
// serve and one pass for the batch workloads (METRICS.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"p50_ms", "ms"},
	{"max_rps", "1/s"},
	{"cpu_ms", "ms"},
}

// perLayer is reported with -trace 1. A layer the workload never
// calls reads 0; the four microprobes of sim, network, topology and
// jobspec decoding run in every traced run.
var perLayer = []metricDef{
	{"paper.fig2_s", "s"},
	{"paper.fig3_s", "s"},
	{"paper.fig4_s", "s"},
	{"runner.cpu_util", "ratio"},
	{"sim.resume_ns", "ns"},
	{"sim.event_ns", "ns"},
	{"network.p2p_ns", "ns"},
	{"topology.route_ns", "ns"},
	{"mpi.ns_per_event", "ns"},
	{"mpi.events_per_s", "1/s"},
	{"mpi.shard_speedup", "ratio"},
	{"mpi.shard_cpu_util", "ratio"},
	{"mpi.events", "count"},
	{"mpi.peak_rank_state_b", "B"},
	{"network.messages", "count"},
	{"network.bytes", "B"},
	{"network.tree_ops", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.heap_sys_mib", "MiB"},
	{"power.probes", "count"},
	{"power.cpu_util", "ratio"},
	{"pop.run_s", "s"},
	{"server.hit_ratio", "ratio"},
	{"server.join_ratio", "ratio"},
	{"server.evictions", "count"},
	{"server.reject_frac", "ratio"},
	{"server.inflight_max", "count"},
	{"server.hit_ms", "ms"},
	{"server.miss_ms", "ms"},
	{"jobspec.run_ms", "ms"},
	{"jobspec.decode_us", "us"},
	{"obs.trace_ratio", "ratio"},
	{"loadgen.late_ms", "ms"},
	{"loadgen.p99_ms", "ms"},
	{"trace.overhead", "ratio"},
}

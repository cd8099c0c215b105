package main

// metricDef names one printed metric. BENCHMARK.json at the repository root
// carries the same names with their direction and bounds; the tests hold the
// two lists equal.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the simulator sees, printed with
// --trace 0. wall_s, setup_s and peak_rss_mib are host-clock costs;
// sim_reply_rate is on the simulated clock and repeats exactly for a seed.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"sim_reply_rate", "1/s"},
}

// perLayer are the per-module metrics, printed with --trace 1. The layer is
// the name's prefix.
var perLayer = []metricDef{
	{"simkernel.events", "count"},
	{"simkernel.ns_per_event", "ns"},
	{"simkernel.pending_max", "count"},
	{"simkernel.queue_ns_10k", "ns"},
	{"simkernel.queue_ns_100k", "ns"},
	{"simkernel.queue_ns_1m", "ns"},

	{"mech.waits", "count"},
	{"mech.driver_polls", "count"},
	{"mech.events_returned", "count"},
	{"mech.useful_ratio", "ratio"},
	{"mech.calls", "count"},
	{"mech.wait_s", "s"},
	{"mech.ctl_s", "s"},
	{"mech.ns_per_driver_poll", "ns"},

	{"interest.table_each_ns", "ns"},
	{"interest.table_churn_ns", "ns"},
	{"interest.ledger_mark_scan_ns", "ns"},

	{"eventlib.loops", "count"},
	{"eventlib.events_per_loop", "ratio"},
	{"eventlib.dispatch_s", "s"},

	{"httpsim.parse_ns", "ns"},
	{"httpsim.parse_split_ns", "ns"},

	{"httpcore.accepted", "count"},
	{"httpcore.served", "count"},
	{"httpcore.cache_hit_ratio", "ratio"},
	{"httpcore.service_p99_ms", "ms"},

	{"pushcore.pushed", "count"},

	{"metrics.summary_ns", "ns"},
	{"metrics.hist_observe_ns", "ns"},

	{"runtime.mallocs", "count"},
	{"runtime.alloc_mib", "MiB"},
	{"runtime.mallocs_per_conn", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},

	{"sim.cpu_util", "ratio"},
	{"sim.virtual_s", "s"},
	{"sim.completed", "count"},
	{"sim.p50_ms", "ms"},
	{"sim.p99_ms", "ms"},

	{"prof.simkernel", "%"},
	{"prof.netsim", "%"},
	{"prof.interest", "%"},
	{"prof.stockpoll", "%"},
	{"prof.epoll", "%"},
	{"prof.eventlib", "%"},
	{"prof.httpsim", "%"},
	{"prof.httpcore", "%"},
	{"prof.pushcore", "%"},
	{"prof.loadgen", "%"},
	{"prof.gc", "%"},
	{"prof.malloc", "%"},
	{"prof.sort", "%"},
	{"prof.other", "%"},

	{"trace.overhead_pct", "%"},
}

package main

// metricDef names one metric. The set below is the set BENCHMARK.json lists
// (TestMetricNamesMatchBenchmarkJSON holds the two together); the bounds live
// only in BENCHMARK.json, which -compare reads.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Exact marks a simulated statistic: identical inputs give an identical
	// value, so two commits compare exactly and a simulator-speed change
	// must not move it at all.
	Exact bool
}

// endToEnd are the metrics a user of the simulator sees, reported for every
// workload by the untraced run. "request" is an OK completion; on mesh-sat16
// a delivered message.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "sim_cycles_per_s", Unit: "cycles/s", Better: "higher"},
	{Name: "requests_per_s", Unit: "req/s", Better: "higher"},
	{Name: "cpu_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower"},
	{Name: "sim_goodput_rpmc", Unit: "rpMc", Better: "higher", Exact: true},
	{Name: "sim_p50_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "sim_p99_cycles", Unit: "cycles", Better: "lower", Exact: true},
}

// perLayer are the traced run's metrics, layer = package name. Sources: P =
// share of CPU-profile samples, C = exact count from a public accessor, S =
// span the harness timed around a public call, R = isolated rig.
var perLayer = []metricDef{
	// sim
	{Name: "sim.host_share", Unit: "%", Better: "lower"},            // P
	{Name: "sim.skipped_share", Unit: "ratio", Better: "higher"},    // C
	{Name: "sim.parallel_active", Unit: "count", Better: "lower"},   // C
	{Name: "sim.shards", Unit: "count", Better: "lower"},            // C
	{Name: "sim.dispatch_ns_per_tick", Unit: "ns", Better: "lower"}, // R
	{Name: "sim.event_ns", Unit: "ns", Better: "lower"},             // R
	// noc
	{Name: "noc.host_share", Unit: "%", Better: "lower"},                  // P
	{Name: "noc.router_share", Unit: "%", Better: "lower"},                // P
	{Name: "noc.ni_share", Unit: "%", Better: "lower"},                    // P
	{Name: "noc.commit_share", Unit: "%", Better: "lower"},                // P
	{Name: "noc.express_share", Unit: "%", Better: "lower"},               // P
	{Name: "noc.band_share", Unit: "%", Better: "lower"},                  // P
	{Name: "noc.flits_routed", Unit: "count", Better: "lower"},            // C
	{Name: "noc.pkts_routed", Unit: "count", Better: "lower"},             // C
	{Name: "noc.msgs_delivered", Unit: "count", Better: "higher"},         // C
	{Name: "noc.express_hit_ratio", Unit: "ratio", Better: "higher"},      // C
	{Name: "noc.express_materialized", Unit: "count", Better: "lower"},    // C
	{Name: "noc.stall_no_credit", Unit: "count", Better: "lower"},         // C
	{Name: "noc.stall_no_vc", Unit: "count", Better: "lower"},             // C
	{Name: "noc.msg_latency_p50_cycles", Unit: "cycles", Better: "lower"}, // C
	{Name: "noc.msg_latency_p99_cycles", Unit: "cycles", Better: "lower"}, // C
	{Name: "noc.ni_queue_p99_cycles", Unit: "cycles", Better: "lower"},    // flight recorder
	{Name: "noc.vc_wait_p99_cycles", Unit: "cycles", Better: "lower"},     // flight recorder
	{Name: "noc.switch_wait_p99_cycles", Unit: "cycles", Better: "lower"}, // flight recorder
	{Name: "noc.host_ns_per_flit", Unit: "ns", Better: "lower"},           // P / C
	{Name: "noc.msg_ns_alone", Unit: "ns", Better: "lower"},               // R
	// monitor, cap
	{Name: "monitor.host_share", Unit: "%", Better: "lower"},                  // P
	{Name: "monitor.cap_checks", Unit: "count", Better: "lower"},              // C
	{Name: "monitor.forwarded", Unit: "count", Better: "higher"},              // C
	{Name: "monitor.denied", Unit: "count", Better: "lower"},                  // C
	{Name: "monitor.rate_drops", Unit: "count", Better: "lower"},              // C
	{Name: "monitor.deny_ratio", Unit: "ratio", Better: "lower"},              // C
	{Name: "monitor.noc_latency_p50_cycles", Unit: "cycles", Better: "lower"}, // C
	{Name: "cap.check_ns", Unit: "ns", Better: "lower"},                       // R
	// accel, apps
	{Name: "accel.host_share", Unit: "%", Better: "lower"},     // P
	{Name: "apps.host_share", Unit: "%", Better: "lower"},      // P
	{Name: "accel.delivered", Unit: "count", Better: "higher"}, // C
	{Name: "accel.dropped", Unit: "count", Better: "lower"},    // C
	{Name: "accel.shed", Unit: "count", Better: "lower"},       // C
	// core
	{Name: "core.host_share", Unit: "%", Better: "lower"},     // P
	{Name: "core.new_system_ms", Unit: "ms", Better: "lower"}, // S
	{Name: "core.load_app_ms", Unit: "ms", Better: "lower"},   // S
	{Name: "core.syscalls", Unit: "count", Better: "lower"},   // C
	// msg
	{Name: "msg.host_share", Unit: "%", Better: "lower"}, // P
	{Name: "msg.codec_ns", Unit: "ns", Better: "lower"},  // R
	// netstack, netsim, fabric
	{Name: "netstack.host_share", Unit: "%", Better: "lower"},           // P
	{Name: "netsim.host_share", Unit: "%", Better: "lower"},             // P
	{Name: "fabric.host_share", Unit: "%", Better: "lower"},             // P
	{Name: "netstack.tx_segments", Unit: "count", Better: "lower"},      // C
	{Name: "netstack.rx_segments", Unit: "count", Better: "lower"},      // C
	{Name: "netstack.retransmits", Unit: "count", Better: "lower"},      // C
	{Name: "netstack.dup_dropped", Unit: "count", Better: "lower"},      // C
	{Name: "netstack.retransmit_ratio", Unit: "ratio", Better: "lower"}, // C
	{Name: "netsim.frames_sent", Unit: "count", Better: "lower"},        // C
	{Name: "netsim.frames_dropped", Unit: "count", Better: "lower"},     // C
	{Name: "netsim.gw_out", Unit: "count", Better: "lower"},             // C
	{Name: "netsim.bytes", Unit: "count", Better: "lower"},              // C
	// cluster
	{Name: "cluster.host_share", Unit: "%", Better: "lower"},               // P
	{Name: "cluster.epochs", Unit: "count", Better: "lower"},               // C
	{Name: "cluster.relayed_frames", Unit: "count", Better: "lower"},       // C
	{Name: "cluster.lost_frames", Unit: "count", Better: "lower"},          // C
	{Name: "cluster.frames_per_epoch", Unit: "count", Better: "lower"},     // C
	{Name: "cluster.board_work_imbalance", Unit: "ratio", Better: "lower"}, // C
	{Name: "cluster.new_ms", Unit: "ms", Better: "lower"},                  // S
	{Name: "cluster.deploy_ms", Unit: "ms", Better: "lower"},               // S
	{Name: "cluster.epoch_us_p50", Unit: "us", Better: "lower"},            // S
	{Name: "cluster.epoch_us_p99", Unit: "us", Better: "lower"},            // S
	{Name: "cluster.cpu_per_wall", Unit: "ratio", Better: "higher"},        // getrusage / wall
	{Name: "cluster.idle_epoch_us", Unit: "us", Better: "lower"},           // R
	// load
	{Name: "load.host_share", Unit: "%", Better: "lower"},            // P
	{Name: "load.arrivals", Unit: "count", Better: "higher"},         // C
	{Name: "load.ok", Unit: "count", Better: "higher"},               // C
	{Name: "load.errors", Unit: "count", Better: "lower"},            // C
	{Name: "load.shed", Unit: "count", Better: "lower"},              // C
	{Name: "load.sessions_touched", Unit: "count", Better: "higher"}, // C
	{Name: "load.failed_share", Unit: "ratio", Better: "lower"},      // C
	{Name: "load.parse_ms", Unit: "ms", Better: "lower"},             // S
	{Name: "load.report_ms", Unit: "ms", Better: "lower"},            // S
	{Name: "load.chunk_ms_p50", Unit: "ms", Better: "lower"},         // S
	{Name: "load.chunk_ms_p99", Unit: "ms", Better: "lower"},         // S
	// obs, trace
	{Name: "obs.host_share", Unit: "%", Better: "lower"},          // P
	{Name: "trace.host_share", Unit: "%", Better: "lower"},        // P
	{Name: "obs.spans_recorded", Unit: "count", Better: "higher"}, // C
	{Name: "obs.export_ms", Unit: "ms", Better: "lower"},          // S
	// runtime
	{Name: "runtime.host_share", Unit: "%", Better: "lower"},              // P
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},           // MemStats
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},            // MemStats
	{Name: "runtime.allocs_per_request", Unit: "count", Better: "lower"},  // MemStats
	{Name: "runtime.alloc_bytes_per_request", Unit: "B", Better: "lower"}, // MemStats
	{Name: "runtime.heap_live_mb", Unit: "MiB", Better: "lower"},          // MemStats
	// bench: the harness itself
	{Name: "bench.host_share", Unit: "%", Better: "lower"},           // P
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},   // traced vs untraced wall
	{Name: "bench.host_share_coverage", Unit: "%", Better: "higher"}, // P
	{Name: "bench.repeat_spread_pct", Unit: "%", Better: "lower"},    // untraced repeats
}

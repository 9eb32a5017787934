package main

// metricDef names one metric of the benchmark. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds
// (bench_test.go checks that the two agree); layer and moves are the
// documentation the README's tables are written from.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" | "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	layer  string  // per-layer only: module the number belongs to
	moves  string  // per-layer only: end-to-end metric and workload it should move
}

// endToEnd are measured with tracing off, on every workload. What one
// "operation" is differs by workload and is fixed in workloads.go.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "op_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "op_tail_us", unit: "us", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
}

const (
	movesRepro   = "ops_per_s, op_p50_us on repro_*"
	movesReproQ  = "ops_per_s on repro_queries only"
	movesDurable = "ops_per_s, op_tail_us on durable"
	movesRecover = "ops_per_s, op_p50_us on recover"
	movesMixed   = "op_p50_us, ops_per_s on search_mixed; none on search_hot"
	movesSearch  = "op_p50_us, ops_per_s on both search workloads"
	movesNone    = "none (generator or harness health)"
)

// perLayer are measured in the traced run. A metric that a workload
// does not exercise reads 0 there.
var perLayer = []metricDef{
	// sim: timed around Sim.StepPhase, keyed by Sim.Phase().
	{name: "sim.day0_s", unit: "s", better: "lower", layer: "sim", moves: "ops_per_s on repro_accounts"},
	{name: "sim.arrivals_s", unit: "s", better: "lower", layer: "sim", moves: movesRepro},
	{name: "sim.agents_s", unit: "s", better: "lower", layer: "sim", moves: "ops_per_s, op_p50_us on repro_accounts"},
	{name: "sim.serving_s", unit: "s", better: "lower", layer: "sim", moves: "ops_per_s, op_p50_us on repro_queries"},
	{name: "sim.detection_s", unit: "s", better: "lower", layer: "sim", moves: movesRepro},
	{name: "sim.finish_s", unit: "s", better: "lower", layer: "sim", moves: movesRepro},
	{name: "sim.phase_sum_share", unit: "share", better: "higher", layer: "sim", moves: movesNone},
	{name: "sim.serving_ns_per_auction", unit: "ns", better: "lower", layer: "sim", moves: "ops_per_s on repro_queries"},
	{name: "sim.allocs_per_day", unit: "count", better: "lower", layer: "sim", moves: movesRepro},
	{name: "sim.days", unit: "count", better: "higher", layer: "sim", moves: movesNone},
	{name: "sim.accounts", unit: "count", better: "higher", layer: "sim", moves: movesNone},
	{name: "sim.auctions", unit: "count", better: "higher", layer: "sim", moves: movesNone},
	{name: "sim.impressions", unit: "count", better: "higher", layer: "sim", moves: movesNone},
	{name: "sim.clicks", unit: "count", better: "higher", layer: "sim", moves: movesNone},
	{name: "sim.serving_w1_ms_per_day", unit: "ms", better: "lower", layer: "sim", moves: "ops_per_s on repro_queries at Workers=1"},
	{name: "sim.serving_wN_ms_per_day", unit: "ms", better: "lower", layer: "sim", moves: "ops_per_s on repro_queries"},
	{name: "sim.agents_w1_ms_per_day", unit: "ms", better: "lower", layer: "sim", moves: "ops_per_s on repro_accounts at Workers=1"},
	{name: "sim.agents_wN_ms_per_day", unit: "ms", better: "lower", layer: "sim", moves: "ops_per_s on repro_accounts"},

	// Serving sub-steps: a probe on the end-of-run world of repro_queries.
	{name: "queries.next_ns", unit: "ns", better: "lower", layer: "queries", moves: movesReproQ},
	{name: "queries.distinct_key_share", unit: "share", better: "lower", layer: "queries", moves: movesReproQ},
	{name: "platform.liveset_ns", unit: "ns", better: "lower", layer: "platform", moves: movesReproQ},
	{name: "platform.eligible_ns", unit: "ns", better: "lower", layer: "platform", moves: movesReproQ},
	{name: "platform.eligible_refs", unit: "count", better: "lower", layer: "platform", moves: movesReproQ},
	{name: "auction.run_ns", unit: "ns", better: "lower", layer: "auction", moves: movesReproQ},
	{name: "clicks.simulate_ns", unit: "ns", better: "lower", layer: "clicks", moves: movesReproQ},
	{name: "serve.probe_sum_ns", unit: "ns", better: "lower", layer: "sim", moves: movesReproQ},

	// Analysis and rendering.
	{name: "report.env_s", unit: "s", better: "lower", layer: "core", moves: movesRepro},
	{name: "report.experiments_s", unit: "s", better: "lower", layer: "report", moves: movesRepro},
	{name: "report.experiments", unit: "count", better: "higher", layer: "report", moves: movesNone},
	{name: "report.slowest_ms", unit: "ms", better: "lower", layer: "report", moves: movesRepro},
	{name: "report.render_s", unit: "s", better: "lower", layer: "figures", moves: movesRepro},
	{name: "report.svgs", unit: "count", better: "higher", layer: "figures", moves: movesNone},

	// Event log, write side (durable) and read side (recover).
	{name: "eventlog.append_s", unit: "s", better: "lower", layer: "eventlog", moves: movesDurable},
	{name: "eventlog.events", unit: "count", better: "higher", layer: "eventlog", moves: movesNone},
	{name: "eventlog.bytes", unit: "count", better: "lower", layer: "eventlog", moves: movesDurable},
	{name: "eventlog.segments", unit: "count", better: "lower", layer: "eventlog", moves: movesNone},
	{name: "eventlog.ns_per_event", unit: "ns", better: "lower", layer: "eventlog", moves: movesDurable},
	{name: "eventlog.bytes_per_event", unit: "count", better: "lower", layer: "eventlog", moves: movesDurable},
	{name: "eventlog.rotate_s", unit: "s", better: "lower", layer: "eventlog", moves: movesDurable},
	{name: "eventlog.rotations", unit: "count", better: "lower", layer: "eventlog", moves: movesNone},
	{name: "eventlog.close_s", unit: "s", better: "lower", layer: "eventlog", moves: movesDurable},
	{name: "eventlog.dropped", unit: "count", better: "lower", layer: "eventlog", moves: movesNone},
	{name: "eventlog.scan_s", unit: "s", better: "lower", layer: "eventlog", moves: movesRecover},
	{name: "eventlog.replay_s", unit: "s", better: "lower", layer: "eventlog", moves: movesRecover},
	{name: "eventlog.recover_s", unit: "s", better: "lower", layer: "eventlog", moves: movesRecover},
	{name: "dataset.replay_fold_s", unit: "s", better: "lower", layer: "dataset", moves: movesRecover},
	{name: "dataset.export_s", unit: "s", better: "lower", layer: "dataset", moves: movesNone},

	// Checkpointing.
	{name: "sim.checkpoint_s", unit: "s", better: "lower", layer: "sim", moves: movesDurable},
	{name: "sim.checkpoints", unit: "count", better: "higher", layer: "sim", moves: movesNone},
	{name: "sim.checkpoint_ms_median", unit: "ms", better: "lower", layer: "sim", moves: "op_tail_us on durable"},
	{name: "sim.checkpoint_bytes", unit: "count", better: "lower", layer: "sim", moves: movesDurable},
	{name: "sim.lineage_load_s", unit: "s", better: "lower", layer: "sim", moves: "op_p50_us on recover"},
	{name: "sim.restore_s", unit: "s", better: "lower", layer: "sim", moves: "op_p50_us on recover"},
	{name: "sim.resume_days", unit: "count", better: "higher", layer: "sim", moves: movesNone},
	{name: "durable.sum_share", unit: "share", better: "higher", layer: "harness", moves: movesNone},

	// Request path.
	{name: "adserver.handle_us", unit: "us", better: "lower", layer: "adserver", moves: movesMixed},
	{name: "adserver.stack_us", unit: "us", better: "lower", layer: "adserver", moves: movesMixed},
	{name: "adserver.middleware_us", unit: "us", better: "lower", layer: "adserver", moves: movesSearch},
	{name: "adserver.resolve_us", unit: "us", better: "lower", layer: "adserver", moves: movesMixed},
	{name: "adserver.direct_p50_us", unit: "us", better: "lower", layer: "adserver", moves: movesSearch},
	{name: "adserver.cache_hit_share", unit: "share", better: "higher", layer: "adserver", moves: movesNone},
	{name: "adserver.nomatch_share", unit: "share", better: "lower", layer: "adserver", moves: movesNone},
	{name: "adserver.shed", unit: "count", better: "lower", layer: "adserver", moves: movesNone},
	{name: "adserver.timeouts", unit: "count", better: "lower", layer: "adserver", moves: movesNone},
	{name: "adserver.panics", unit: "count", better: "lower", layer: "adserver", moves: movesNone},
	{name: "router.hop_p50_us", unit: "us", better: "lower", layer: "router", moves: movesSearch + ", largest share on search_hot"},
	{name: "router.retried", unit: "count", better: "lower", layer: "router", moves: movesNone},
	{name: "router.masked", unit: "count", better: "lower", layer: "router", moves: movesNone},
	{name: "router.no_backend", unit: "count", better: "lower", layer: "router", moves: movesNone},
	{name: "router.sheds", unit: "count", better: "lower", layer: "router", moves: movesNone},
	{name: "router.balance", unit: "share", better: "higher", layer: "router", moves: movesNone},
	{name: "net.loopback_us", unit: "us", better: "lower", layer: "net", moves: movesSearch},

	{name: "search.p99_us", unit: "us", better: "lower", layer: "harness", moves: "demoted from end to end: routed p99 of the lat windows, not gated"},

	// The load generator itself, and an open-loop ladder timed from due.
	{name: "loadgen.build_s", unit: "s", better: "lower", layer: "loadgen", moves: "setup_s on search_*"},
	{name: "loadgen.requests", unit: "count", better: "higher", layer: "loadgen", moves: movesNone},
	{name: "loadgen.open_3000_p50_us", unit: "us", better: "lower", layer: "loadgen", moves: movesNone},
	{name: "loadgen.open_3000_p99_us", unit: "us", better: "lower", layer: "loadgen", moves: movesNone},
	{name: "loadgen.late_3000_p99_us", unit: "us", better: "lower", layer: "loadgen", moves: movesNone},
	{name: "loadgen.open_6000_p50_us", unit: "us", better: "lower", layer: "loadgen", moves: movesNone},
	{name: "loadgen.open_6000_p99_us", unit: "us", better: "lower", layer: "loadgen", moves: movesNone},
	{name: "loadgen.late_6000_p99_us", unit: "us", better: "lower", layer: "loadgen", moves: movesNone},
	{name: "loadgen.open_9000_p50_us", unit: "us", better: "lower", layer: "loadgen", moves: movesNone},
	{name: "loadgen.open_9000_p99_us", unit: "us", better: "lower", layer: "loadgen", moves: movesNone},
	{name: "loadgen.late_9000_p99_us", unit: "us", better: "lower", layer: "loadgen", moves: movesNone},
	{name: "loadgen.open_12000_p50_us", unit: "us", better: "lower", layer: "loadgen", moves: movesNone},
	{name: "loadgen.open_12000_p99_us", unit: "us", better: "lower", layer: "loadgen", moves: movesNone},
	{name: "loadgen.late_12000_p99_us", unit: "us", better: "lower", layer: "loadgen", moves: movesNone},
	{name: "loadgen.open_max_rate", unit: "1/s", better: "higher", layer: "loadgen", moves: movesNone},

	{name: "trace_overhead_share", unit: "share", better: "lower", layer: "harness", moves: movesNone},
}

// ladderRates are the open-loop rates of the traced search run, req/s.
var ladderRates = []int{3000, 6000, 9000, 12000}

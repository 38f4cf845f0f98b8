package main

// layerMetrics is the per-layer metric list a traced run prints, in
// BENCHMARK.json order. Every workload prints all of them; a layer that
// does no work on a workload reads 0 there (README.md lists which
// layer moves which end-to-end metric on which workload).
var layerMetrics = []struct {
	name, unit string
	computed   bool
}{
	{"prep_s", "s", false},
	// gen, gstore
	{"gen.powerlaw_s", "s", false},
	{"gstore.open_s", "s", false},
	{"serve.warm_start_s", "s", false},
	// cluster, gas/frogwild, topk (the refresh path)
	{"cluster.layout_s", "s", false},
	{"cluster.replication", "ratio", false},
	{"gas.engine_s", "s", false},
	{"gas.supersteps", "count", false},
	{"gas.edge_ops", "count", false},
	{"gas.vertex_ops", "count", false},
	{"gas.sim_s", "s", false},
	{"gas.net_bytes.gather", "B", false},
	{"gas.net_bytes.sync", "B", false},
	{"gas.net_bytes.signal", "B", false},
	{"gas.net_bytes.control", "B", false},
	{"topk.index_s", "s", false},
	{"refresh.stage_self_s", "s", false},
	{"refresh.stage_coverage", "ratio", false},
	// serve
	{"serve.topk_cache_hit_rate", "ratio", false},
	{"serve.coalesced", "count", false},
	{"serve.epoch_swaps", "count", false},
	{"serve.refresh_build_s", "s", false},
	// ppr
	{"ppr.kernel_ms", "ms", false},
	{"ppr.wait_ms", "ms", false},
	{"ppr.cache_hit_rate", "ratio", false},
	{"ppr.walks_per_query", "count", false},
	{"ppr.walk_steps_per_s", "1/s", false},
	{"ppr.batches", "count", false},
	{"ppr.truncated", "count", false},
	{"ppr.allocs_per_query", "count", false},
	{"ppr.alloc_bytes_per_query", "B", false},
	// pcache
	{"pcache.hit_rate", "ratio", false},
	{"pcache.misses", "count", false},
	{"pcache.evictions", "count", false},
	{"ppr.page_locality", "ratio", false},
	{"pcache.read_bytes_per_step", "B/step", true},
	{"graph.resident_bytes", "B", true},
	// router
	{"router.wire_bytes_per_query", "B", false},
	{"router.cache_hit_rate", "ratio", false},
	{"router.rpc_p50_ms", "ms", false},
	{"router.rpc_p99_ms", "ms", false},
	{"router.merge_ms", "ms", false},
	{"router.retries", "count", false},
	{"router.degraded", "count", false},
	{"router.epoch_fallbacks", "count", false},
	// runtime
	{"runtime.gc_pause_ms", "ms", false},
	{"runtime.heap_alloc_bytes_per_query", "B", false},
	{"runtime.goroutines_max", "count", false},
	// load generator validity
	{"loadgen.lag_p50_ms", "ms", false},
	{"loadgen.lag_p99_ms", "ms", false},
	// traced vs untraced value of each gated end-to-end metric
	{"trace.overhead.setup_s", "ratio", false},
	{"trace.overhead.latency_p50_ms", "ratio", false},
	{"trace.overhead.throughput_per_s", "ratio", false},
	{"trace.overhead.mass_k100", "ratio", false},
	{"trace.overhead.rss_mb", "ratio", false},
}

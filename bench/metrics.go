package main

// metric is one reported number. Stat and Samples say what stands behind a
// timing; the contract line carries only value and unit.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Stat    string  `json:"stat,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// metricDef declares a metric; BENCHMARK.json repeats these tables and the
// smoke test holds the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are what a user of the system sees, per workload. Bound is the
// share of the baseline's median by which a metric may worsen.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "query_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "query_best_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "query_tail_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s_per_query", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_query", Unit: "count", Better: "lower", Bound: 0.10},
}

// perLayerDefs name single layers' numbers from the traced pass. A metric a
// workload does not exercise (fsm.* off the FSM workload, service.* off the
// service one) reads 0 there.
var perLayerDefs = []metricDef{
	{Name: "graph.generate_s", Unit: "s", Better: "lower"},
	{Name: "partition.build_s", Unit: "s", Better: "lower"},

	{Name: "plan.compile_s", Unit: "s", Better: "lower"},
	{Name: "plan.extend_calls", Unit: "count", Better: "lower"},
	{Name: "plan.extend_busy_s", Unit: "s", Better: "lower"},
	{Name: "plan.extend_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "plan.ref_count_s", Unit: "s", Better: "lower"},

	{Name: "setops.merge_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "setops.gallop_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "setops.bitmap_probe_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "setops.pivot3_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "setops.subtract_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "setops.count_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "setops.kernel_merge", Unit: "count", Better: "lower"},
	{Name: "setops.kernel_gallop", Unit: "count", Better: "lower"},
	{Name: "setops.kernel_bitmap", Unit: "count", Better: "lower"},
	{Name: "setops.kernel_pivot", Unit: "count", Better: "lower"},

	{Name: "core.run_s", Unit: "s", Better: "lower"},
	{Name: "core.self_s", Unit: "s", Better: "lower"},
	{Name: "core.self_ns_per_extension", Unit: "ns", Better: "lower"},
	{Name: "core.materialize_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.extensions", Unit: "count", Better: "lower"},
	{Name: "core.matches", Unit: "count", Better: "higher"},
	{Name: "core.peak_embeddings", Unit: "count", Better: "lower"},
	{Name: "core.vertical_hits", Unit: "count", Better: "higher"},
	{Name: "core.hds_hits", Unit: "count", Better: "higher"},
	{Name: "core.compute_s", Unit: "s", Better: "lower"},
	{Name: "core.scheduler_s", Unit: "s", Better: "lower"},

	{Name: "cache.hits", Unit: "count", Better: "higher"},
	{Name: "cache.misses", Unit: "count", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.busy_s", Unit: "s", Better: "lower"},
	{Name: "cache.get_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.put_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.size_bytes", Unit: "B", Better: "lower"},

	{Name: "comm.fetch_calls", Unit: "count", Better: "lower"},
	{Name: "comm.fetch_busy_s", Unit: "s", Better: "lower"},
	{Name: "comm.fetch_us", Unit: "us", Better: "lower"},
	{Name: "comm.bytes_per_fetch", Unit: "B", Better: "higher"},
	{Name: "comm.bytes_sent", Unit: "B", Better: "lower"},
	{Name: "comm.messages", Unit: "count", Better: "lower"},
	{Name: "comm.serve_busy_s", Unit: "s", Better: "lower"},
	{Name: "comm.network_s", Unit: "s", Better: "lower"},
	{Name: "comm.inflight_peak", Unit: "count", Better: "higher"},
	{Name: "comm.pipelined_fetches", Unit: "count", Better: "higher"},
	{Name: "comm.retries", Unit: "count", Better: "lower"},
	{Name: "comm.stack_local_us", Unit: "us", Better: "lower"},
	{Name: "comm.stack_tcp_us", Unit: "us", Better: "lower"},
	{Name: "comm.stack_fault_us", Unit: "us", Better: "lower"},
	{Name: "comm.stack_resilient_us", Unit: "us", Better: "lower"},
	{Name: "comm.stack_heartbeat_us", Unit: "us", Better: "lower"},
	{Name: "comm.tcp_fetches_per_s_c2", Unit: "1/s", Better: "higher"},

	{Name: "cluster.new_s", Unit: "s", Better: "lower"},
	{Name: "cluster.count_s", Unit: "s", Better: "lower"},
	{Name: "cluster.run_floor_s", Unit: "s", Better: "lower"},
	{Name: "cluster.modeled_makespan_s", Unit: "s", Better: "lower"},
	{Name: "cluster.node_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "cluster.recovery_rounds", Unit: "count", Better: "lower"},

	{Name: "service.overhead_s", Unit: "s", Better: "lower"},
	{Name: "service.exec_s", Unit: "s", Better: "lower"},
	{Name: "service.first_progress_s", Unit: "s", Better: "lower"},
	{Name: "service.compile_miss_s", Unit: "s", Better: "lower"},
	{Name: "service.planid_hit_s", Unit: "s", Better: "lower"},
	{Name: "service.rejected", Unit: "count", Better: "lower"},
	{Name: "service.active_peak", Unit: "count", Better: "higher"},
	{Name: "service.health_rtt_s", Unit: "s", Better: "lower"},

	{Name: "fsm.mine_s", Unit: "s", Better: "lower"},
	{Name: "fsm.examined", Unit: "count", Better: "lower"},
	{Name: "fsm.frequent", Unit: "count", Better: "higher"},
	{Name: "fsm.per_pattern_s", Unit: "s", Better: "lower"},
	{Name: "fsm.single_mine_s", Unit: "s", Better: "lower"},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// layerMetrics collects the traced pass's numbers; emit fills every declared
// metric, 0 where the workload never set it.
type layerMetrics map[string]float64

func (lm layerMetrics) emit() map[string]metric {
	out := make(map[string]metric, len(perLayerDefs))
	for _, d := range perLayerDefs {
		out[d.Name] = metric{Value: lm[d.Name], Unit: d.Unit}
	}
	for name := range lm {
		if _, ok := out[name]; !ok {
			panic("bench: per-layer metric " + name + " is set but not declared")
		}
	}
	return out
}

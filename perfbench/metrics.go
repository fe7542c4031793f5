package main

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names; TestMetricListsMatchBenchmarkJSON keeps the two equal.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every workload.
// Each workload measures them on its own unit of work: a block request on
// the serve workloads, a simulated LLC miss on sim-paper (see NOTES.md).
var endToEnd = []metricDef{
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"goodput_per_s", "1/s"},
	{"ok_frac", "frac"},
	{"host_ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0, and the run's notes say why.
var perLayer = []metricDef{
	{"gen.lag_p99_ms", "ms"},
	{"gen.lag_max_ms", "ms"},

	{"serve.server_p50_us", "us"},
	{"serve.server_p99_us", "us"},
	{"serve.wire_p50_us", "us"},
	{"serve.shed_overload_frac", "frac"},
	{"serve.shed_deadline_frac", "frac"},
	{"serve.fail_frac", "frac"},
	{"serve.queue_peak", "count"},
	{"serve.backpressure_per_kop", "count/kop"},

	{"pipeline.serve_p50_us", "us"},
	{"pipeline.serve_p99_us", "us"},
	{"pipeline.ops_per_wave", "count"},
	{"pipeline.share.schedule", "frac"},
	{"pipeline.share.retire.wait", "frac"},
	{"pipeline.share.finalize", "frac"},
	{"pipeline.share.access.wait", "frac"},
	{"pipeline.share.commit", "frac"},
	{"pipeline.share.dispatch", "frac"},
	{"pipeline.share.checkpoint", "frac"},
	{"pipeline.serialized_share", "frac"},
	{"pipeline.worker_busy_us_per_op", "us"},

	{"cluster.access_us", "us"},
	{"cluster.bucket_writes_per_access", "count"},
	{"fault.exchanges_per_access", "count"},
	{"fault.retries", "count"},

	{"seccomm.seal_open_ns", "ns"},
	{"seccomm.frames_per_access", "count"},
	{"seccomm.bytes_per_access", "B"},

	{"oram.access_us", "us"},

	{"durable.append_us", "us"},
	{"durable.checkpoint_ms", "ms"},
	{"durable.checkpoints_per_kop", "count/kop"},
	{"durable.bytes_per_access", "B"},
	{"durable.recover_ms", "ms"},

	{"sim.freecursive_s", "s"},
	{"sim.independent_s", "s"},
	{"sim.split_s", "s"},
	{"sim.ring_s", "s"},
	{"sim.host_ns_per_dram_cmd", "ns"},
	{"sim.dram_cmds_per_miss", "count"},

	{"trace.overhead_lat_p50_frac", "frac"},
	{"trace.overhead_throughput_frac", "frac"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's values by name.
type metricSet map[string]float64

// fill returns every metric of defs, taking missing ones as 0.
func (m metricSet) fill(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: m[d.name], Unit: d.unit}
	}
	return out
}

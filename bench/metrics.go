package main

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// workloads are the benchmark's workloads, in run order.
var workloads = []string{"table2", "vision", "city-1000", "service-500"}

// endToEndDefs are the metrics a user of the system sees. An untraced
// run reports these for every workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"peak_rss_mb", "MiB"},
}

// perLayerDefs are the metrics a traced run reports for every workload:
// the host-cost budget per layer, work and failure counts, waiting, and
// per-op latency. A metric a workload does not exercise reads 0.
// Latency is here rather than end to end because on table2 its median
// moves by up to 30% from run to run on a shared 2-vCPU host, more than
// any bound the benchmark may set (see README.md).
func perLayerDefs() []metricDef {
	var d []metricDef
	for _, l := range layers {
		d = append(d,
			metricDef{"layer." + l + ".cpu_share", "ratio"},
			metricDef{"layer." + l + ".cpu_us_per_op", "us"},
			metricDef{"layer." + l + ".allocs_per_op", "count"})
	}
	d = append(d,
		metricDef{"radio.frames_sent_per_op", "count"},
		metricDef{"radio.frames_delivered_per_op", "count"},
		metricDef{"radio.pdr", "ratio"},
		metricDef{"geonet.packets_sent_per_op", "count"},
		metricDef{"den.transmissions_per_op", "count"},
		metricDef{"campaign.accept_ratio", "ratio"})
	for _, q := range []string{"p50", "p99"} {
		for _, ep := range serviceEndpoints {
			d = append(d, metricDef{"openc2x.server_ms." + q + "." + ep, "ms"})
		}
	}
	return append(d,
		metricDef{"openc2x.shed_rate", "ratio"},
		metricDef{"openc2x.mailbox_dropped_per_req", "count"},
		metricDef{"openc2x.queue_depth_max", "count"},
		metricDef{"bench.late_ms.p99", "ms"},
		metricDef{"bench.late_ms.max", "ms"},
		metricDef{"bench.conn_wait_ms.p99", "ms"},
		metricDef{"bench.trace_overhead", "ratio"},
		metricDef{"runtime.gc_cycles_per_op", "count"},
		metricDef{"runtime.gc_cpu_share", "ratio"},
		metricDef{"runtime.mutex_wait_ms_per_op", "ms"},
		metricDef{"runtime.sched_latency_ms.p99", "ms"},
		metricDef{"latency_ms.p50", "ms"},
		metricDef{"latency_ms.tail", "ms"})
}

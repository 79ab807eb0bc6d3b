package main

// metricDef is one row of the metric catalogue. BENCHMARK.json carries
// the same rows; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd are the metrics a user of the collector would see, reported
// per workload with tracing off.
var endToEnd = []metricDef{
	{"ingest_eps", "events/s", "higher", 0.25},
	{"ack_p50_ms", "ms", "lower", 0.25},
	{"server_cpu_ms_per_kevent", "ms/kevent", "lower", 0.25},
	{"server_rss_peak_mb", "MiB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, reported per workload by
// the traced run. Layers are the repository's modules.
var perLayer = []metricDef{
	// net: loopback HTTP around a beacon.Discard server.
	{Name: "net.roundtrip_discard_us_p50", Unit: "us", Better: "lower"},
	{Name: "net.transport_us_per_request", Unit: "us", Better: "lower"},
	// beacon server: Server.ServeHTTP via an in-process recorder.
	{Name: "server.handler_self_ns_per_request", Unit: "ns", Better: "lower"},
	{Name: "server.handler_allocs_per_request", Unit: "count", Better: "lower"},
	{Name: "server.accepted_events", Unit: "count", Better: "higher"},
	{Name: "server.rejected_events", Unit: "count", Better: "lower"},
	// beacon codec.
	{Name: "codec.json_decode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "codec.binary_decode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "codec.binary_encode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "codec.decode_allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "codec.json_bytes_per_event", Unit: "bytes", Better: "lower"},
	{Name: "codec.binary_bytes_per_event", Unit: "bytes", Better: "lower"},
	// admission.
	{Name: "admission.middleware_ns_per_request", Unit: "ns", Better: "lower"},
	{Name: "admission.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "admission.limit_final", Unit: "count", Better: "higher"},
	// wal.
	{Name: "wal.append_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.append_us_p99", Unit: "us", Better: "lower"},
	{Name: "wal.append_fsync_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.fsyncs_per_kevent", Unit: "count", Better: "lower"},
	{Name: "wal.group_commit_batch_mean", Unit: "count", Better: "higher"},
	{Name: "wal.bytes_per_event", Unit: "bytes", Better: "lower"},
	{Name: "wal.scan_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "wal.snapshot_ms", Unit: "ms", Better: "lower"},
	// beacon queue (async durability only).
	{Name: "queue.dropped_events", Unit: "count", Better: "lower"},
	{Name: "queue.depth_max", Unit: "count", Better: "lower"},
	// beacon store, observer-less.
	{Name: "store.submit_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "store.dup_submit_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "store.heap_bytes_per_event", Unit: "bytes", Better: "lower"},
	{Name: "store.dedup_hit_ratio", Unit: "ratio", Better: "lower"},
	// aggregate, detect, report.
	{Name: "aggregate.observe_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "aggregate.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "aggregate.open_impressions", Unit: "count", Better: "lower"},
	{Name: "detect.observe_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "detect.observe_dup_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "detect.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "report.render_ms", Unit: "ms", Better: "lower"},
	{Name: "report.response_bytes", Unit: "bytes", Better: "lower"},
	{Name: "report.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "report.read_tail_ms", Unit: "ms", Better: "lower"},
	// cluster.
	{Name: "cluster.ring_owner_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.forward_us_per_event", Unit: "us", Better: "lower"},
	{Name: "cluster.forwarded_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cluster.hinted_events", Unit: "count", Better: "lower"},
	{Name: "cluster.forward_errors", Unit: "count", Better: "lower"},
	// obs: TraceMiddleware around a no-op (tracing is off end to end).
	{Name: "obs.trace_mw_ns_sample0", Unit: "ns", Better: "lower"},
	{Name: "obs.trace_mw_ns_sample1", Unit: "ns", Better: "lower"},
	// process: /proc/<pid>/stat and status of the spawned servers.
	{Name: "proc.cpu_user_ms_per_kevent", Unit: "ms/kevent", Better: "lower"},
	{Name: "proc.cpu_sys_ms_per_kevent", Unit: "ms/kevent", Better: "lower"},
	{Name: "proc.ctx_switches_per_kevent", Unit: "count", Better: "lower"},
	// recovery: kill -9, restart on the unchanged directories.
	{Name: "recover.eps", Unit: "events/s", Better: "higher"},
	{Name: "recover.seconds_p50", Unit: "s", Better: "lower"},
	// set-up, split.
	{Name: "setup.build_s", Unit: "s", Better: "lower"},
	{Name: "setup.boot_ms", Unit: "ms", Better: "lower"},
	// generator validity.
	{Name: "gen.lateness_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "gen.lateness_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "gen.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "gen.ack_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.ack_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.failed_ratio", Unit: "ratio", Better: "lower"},
	// ledger: Σ layer self times against the untraced end-to-end median.
	{Name: "ledger.sum_layers_us", Unit: "us", Better: "lower"},
	{Name: "ledger.e2e_p50_us", Unit: "us", Better: "lower"},
	{Name: "ledger.closed_p50_us", Unit: "us", Better: "lower"},
	{Name: "ledger.residual_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ledger.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// residualTolerance is how far the sum of layer self times may sit from
// the untraced end-to-end median, as a share of that median, before the
// ledger is reported as not reconciling. The traced run has one request
// in flight and no socket between the layers, so the residual is what
// concurrency and the kernel add; it is reported, not gated.
const residualTolerance = 0.5

func defOf(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

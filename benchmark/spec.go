package main

// metricDef names one metric. BENCHMARK.json lists exactly these names,
// units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the base's median it may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the store sees. Every workload reports
// every one of them, so the names are generic: "read" is the workload's
// read-class operation (get | get | List page | GetStream of 8+2 MiB).
// Rates and timings are those of the closed loop's second least
// disturbed window (overWindows).
//
// Only metrics this box can measure steadily are gated. The write-class
// median and both tails are reported as loadgen.* per-layer metrics
// instead (README, Calibration): a bound tighter than the noise only
// flaps, and the contract allows no bound above 25 %.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", higher, 0.25},
	{"read_p50_ms", "ms", lower, 0.25},
	{"cpu_us_per_op", "us", lower, 0.25},
	{"raw_bytes_per_user_byte", "ratio", lower, 0.02},
	{"rss_peak_mb", "MiB", lower, 0.20},
	{"setup_s", "s", lower, 0.25},
}

// perLayer is the traced run's budget: what each layer did and how long
// it took, named layer.metric with the package name as the layer. A
// metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// loadgen: the generator itself, the open loop, and the op classes
	// that only some workloads have.
	{"loadgen.clients", "count", higher, 0},
	{"loadgen.open_rate_ops_per_s", "1/s", higher, 0},
	{"loadgen.open_p99_ms_r50", "ms", lower, 0},
	{"loadgen.open_p99_ms_r75", "ms", lower, 0},
	{"loadgen.open_p99_ms_r100", "ms", lower, 0},
	{"loadgen.open_late_p99_ms", "ms", lower, 0},
	{"loadgen.open_backlog_end", "count", lower, 0},
	{"loadgen.max_rate_ok_ops_per_s", "1/s", higher, 0},
	{"loadgen.read_p99_ms", "ms", lower, 0},
	{"loadgen.write_p50_ms", "ms", lower, 0},
	{"loadgen.write_p99_ms", "ms", lower, 0},
	{"loadgen.batch_p50_ms", "ms", lower, 0},
	{"loadgen.stream_put_mb_per_s", "MiB/s", higher, 0},
	{"loadgen.stream_get_mb_per_s", "MiB/s", higher, 0},
	{"loadgen.stream_put_ms_8m", "ms", lower, 0},
	{"loadgen.stream_put_ms_2m", "ms", lower, 0},
	{"loadgen.stream_get_ms_8m", "ms", lower, 0},
	{"loadgen.stream_get_ms_2m", "ms", lower, 0},
	{"loadgen.trace_overhead_ratio", "ratio", higher, 0},
	{"loadgen.denials_per_kop", "1/kop", higher, 0},

	{"cluster.router_self_us_get", "us", lower, 0},
	{"cluster.router_self_us_put", "us", lower, 0},
	{"cluster.router_self_us_scan", "us", lower, 0},
	{"cluster.owner_lookup_ns", "ns", lower, 0},
	{"cluster.redirects_per_kop", "1/kop", lower, 0},
	{"cluster.retries_per_kop", "1/kop", lower, 0},
	{"cluster.map_refreshes", "count", lower, 0},
	{"cluster.shard_pages_per_list", "ratio", lower, 0},

	{"client.rest_self_us_get", "us", lower, 0},
	{"client.rest_self_us_put", "us", lower, 0},
	{"client.rest_self_us_scan", "us", lower, 0},
	{"client.rest_self_us_stream_mb", "us/MiB", lower, 0},
	{"client.tls_handshake_ms", "ms", lower, 0},

	{"core.session_us_get", "us", lower, 0},
	{"core.session_us_put", "us", lower, 0},
	{"core.session_us_scan", "us", lower, 0},
	{"core.span_policy_eval_us", "us", lower, 0},
	{"core.span_gcommit_wait_us", "us", lower, 0},
	{"core.span_replicate_us", "us", lower, 0},
	{"core.span_drive_us", "us", lower, 0},
	{"core.span_media_us", "us", lower, 0},
	{"core.unattributed_us_get", "us", lower, 0},
	{"core.unattributed_us_put", "us", lower, 0},
	{"core.policy_checks_per_op", "ratio", lower, 0},
	{"core.policy_evals_per_check", "ratio", lower, 0},
	{"core.residual_hit_ratio", "ratio", higher, 0},
	{"core.decision_hit_ratio", "ratio", higher, 0},
	{"core.read_hedges_per_get", "ratio", lower, 0},
	{"core.coalesced_reads_per_get", "ratio", higher, 0},
	{"core.groups_per_batch", "ratio", higher, 0},
	{"core.group_batches_per_put", "ratio", lower, 0},
	{"core.trailing_flushes_per_put", "ratio", lower, 0},
	{"core.scan_examined_per_returned", "ratio", lower, 0},
	{"core.scan_filtered_ratio", "ratio", lower, 0},
	{"core.ec_decodes_per_get", "ratio", lower, 0},
	{"core.ec_parity_bytes_per_user_byte", "ratio", lower, 0},
	{"core.wrong_shard_per_kop", "1/kop", lower, 0},

	{"policy.compile_us", "us", lower, 0},
	{"policy.partial_eval_us", "us", lower, 0},
	{"policy.residual_eval_ns", "ns", lower, 0},
	{"policy.interp_eval_ns", "ns", lower, 0},
	{"policy.residual_clauses", "count", lower, 0},

	{"cache.object_hit_ratio", "ratio", higher, 0},
	{"cache.meta_hit_ratio", "ratio", higher, 0},
	{"cache.policy_hit_ratio", "ratio", higher, 0},
	{"cache.residual_hit_ratio", "ratio", higher, 0},
	{"cache.object_evictions_per_kop", "1/kop", lower, 0},
	{"cache.meta_evictions_per_kop", "1/kop", lower, 0},
	{"cache.get_hit_ns", "ns", lower, 0},

	{"enclave.spun_us_per_op", "us", lower, 0},
	{"enclave.syscalls_per_op", "ratio", lower, 0},
	{"enclave.epc_resident_mb", "MiB", lower, 0},
	{"enclave.epc_faults_per_kop", "1/kop", lower, 0},

	{"store.encode_record_us", "us", lower, 0},
	{"store.decode_record_us", "us", lower, 0},
	{"store.encode_chunk_mb_per_s", "MiB/s", higher, 0},
	{"store.decode_chunk_mb_per_s", "MiB/s", higher, 0},
	{"store.shard_hash_ns", "ns", lower, 0},

	{"kclient.get_us", "us", lower, 0},
	{"kclient.put_us", "us", lower, 0},
	{"kclient.batch_groups16_us", "us", lower, 0},
	{"kclient.range100_us", "us", lower, 0},
	{"kclient.frame_encode_ns", "ns", lower, 0},
	{"kclient.frame_decode_ns", "ns", lower, 0},

	{"kinetic.drive_gets_per_op", "ratio", lower, 0},
	{"kinetic.drive_writes_per_op", "ratio", lower, 0},
	{"kinetic.batches_per_put", "ratio", lower, 0},
	{"kinetic.groups_per_batch", "ratio", higher, 0},
	{"kinetic.group_rejects_per_kop", "1/kop", lower, 0},
	{"kinetic.flushes_per_put", "ratio", lower, 0},
	{"kinetic.ranges_per_scan", "ratio", lower, 0},
	{"kinetic.rejected", "count", lower, 0},
	{"kinetic.handle_get_ns", "ns", lower, 0},
	{"kinetic.handle_put_ns", "ns", lower, 0},
	{"kinetic.read_ewma_us", "us", lower, 0},
	{"kinetic.read_p95_us", "us", lower, 0},
	{"kinetic.raw_bytes", "count", lower, 0},

	{"ec.encode_mb_per_s", "MiB/s", higher, 0},
	{"ec.reconstruct_mb_per_s", "MiB/s", higher, 0},

	{"process.allocs_per_op", "ratio", lower, 0},
	{"process.alloc_bytes_per_op", "count", lower, 0},
	{"process.gc_cycles", "count", lower, 0},
	{"process.gc_pause_ms_total", "ms", lower, 0},
	{"process.goroutines_peak", "count", lower, 0},
}

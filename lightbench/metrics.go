package main

// metricDef names one reported metric and its unit. The lists below are
// the contract BENCHMARK.json declares; bench_test.go keeps them equal.
// on lists the workloads that measure a per-layer metric.
type metricDef struct {
	name, unit string
	on         []string
}

// endToEnd is what a user of the system sees, reported with --trace 0.
// Wall-clock and modeled metrics are kept apart: modeled_kfps_per_w and
// reference_agreement are deterministic and never mixed with a time.
var endToEnd = []metricDef{
	{"setup_s", "s", nil},
	{"frames_per_s", "1/s", nil},
	{"latency_p50_ms", "ms", nil},
	{"latency_tail_ms", "ms", nil},
	{"correct_frac", "frac", nil},
	{"peak_rss_mb", "MB", nil},
	{"modeled_kfps_per_w", "KFPS/W", nil},
	{"reference_agreement", "frac", nil},
}

var (
	serveW = []string{"serve-process", "serve-session"}
	allW   = []string{"serve-process", "serve-session", "batch-noisy"}
)

// perLayer is reported with --trace 1. A metric reads 0 on a workload
// that does not run its layer.
var perLayer = []metricDef{
	{"server.decode_ms", "ms", serveW},
	{"server.decode_alloc_mb", "MB", serveW},
	{"server.encode_ms", "ms", serveW},
	{"server.overhead_ms", "ms", []string{"serve-process"}},
	{"server.batch_size_mean", "count", serveW},
	{"server.deadline_flush_frac", "frac", serveW},
	{"server.rejected_frac", "frac", serveW},
	{"server.cache_hit_frac", "frac", serveW},
	{"sensor.capture_ms", "ms", allW},
	{"sensor.capture_allocs", "count", allW},
	{"sensor.capture_kb", "KB", allW},
	{"oc.ca_ms", "ms", allW},
	{"oc.ca_allocs", "count", allW},
	{"oc.mvm_us", "us", allW},
	{"oc.mvm_allocs", "count", allW},
	{"oc.mvm_noisy_over_physical", "ratio", allW},
	{"kernels.edge_ms", "ms", serveW},
	{"kernels.edge_allocs", "count", serveW},
	{"infer.tiny_mlp_ms", "ms", []string{"batch-noisy"}},
	{"session.frame_ms", "ms", []string{"serve-session"}},
	{"session.blocks_reused_frac", "frac", []string{"serve-session"}},
	{"pipeline.speedup", "ratio", allW},
	{"runtime.alloc_mb_per_frame", "MB", allW},
	{"runtime.gc_per_100_frames", "count", allW},
	{"oc.analog_ops_per_frame", "count", allW},
	{"energy.j_per_frame", "J", allW},
	{"loadgen.late_ms", "ms", serveW},
	{"trace.overhead_frac", "frac", allW},
	{"trace.unattributed_frac", "frac", allW},
}

// measuredOn reports whether workload measures the per-layer metric d.
func (d metricDef) measuredOn(workload string) bool {
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specFile is BENCHMARK.json, the contract this program is run under:
// which workloads and metrics exist, their units and directions, and
// the bound by which an end-to-end metric may worsen.
type specFile struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*specFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s specFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metricDef is a metric this program emits. The two tables below are
// what the program prints; BENCHMARK.json must list exactly these
// (spec_test.go holds the two together).
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"kpps", "kpkt/s"},
	{"cpu_us_per_pkt", "us"},
	{"lat_p50_us", "us"},
	{"goodput_frac", "frac"},
}

var perLayer = []metricDef{
	{"packet.unmarshal_ns", "ns"},
	{"packet.marshal_ns", "ns"},
	{"packet.pool_live_delta", "count"},
	{"core.process_ns.legacy", "ns"},
	{"core.process_ns.request", "ns"},
	{"core.process_ns.regular_hit", "ns"},
	{"core.process_ns.regular_miss", "ns"},
	{"core.process_ns.renewal_hit", "ns"},
	{"core.process_ns.renewal_miss", "ns"},
	{"core.bare_ns.regular_hit", "ns"},
	{"core.observers_ns.regular_hit", "ns"},
	{"core.cache_hit_frac", "frac"},
	{"core.demoted_frac", "frac"},
	{"capability.validate_ns", "ns"},
	{"capability.precap_ns", "ns"},
	{"flowcache.lookup_ns", "ns"},
	{"flowcache.create_evict_ns", "ns"},
	{"flowcache.entries_peak", "count"},
	{"flowstats.observe_ns", "ns"},
	{"metrics.tick_ns", "ns"},
	{"trace.record_ns", "ns"},
	{"sched.tva_enqueue_ns", "ns"},
	{"sched.tva_dequeue_ns", "ns"},
	{"sched.drop_frac", "frac"},
	{"sched.drop_reason.legacy_queue_full", "count"},
	{"sched.drop_reason.request_queue_full", "count"},
	{"sched.drop_reason.regular_queue_full", "count"},
	{"overlay.io_residual_us", "us"},
	{"overlay.rx_burst_fill", "pkt"},
	{"overlay.tx_burst_fill", "pkt"},
	{"overlay.queue_wait_p50_us", "us"},
	{"overlay.queue_wait_p99_us", "us"},
	{"overlay.link_util_frac", "frac"},
	{"overlay.host_send_ns", "ns"},
	{"overlay.malformed", "count"},
	{"overlay.unroutable", "count"},
	{"overlay.batch1.kpps", "kpkt/s"},
	{"overlay.batch1.lat_p50_us", "us"},
	{"overlay.lat_p99_us", "us"},
	{"overlay.paced_loss_frac", "frac"},
	{"overlay.spans_overhead_frac", "frac"},
	{"netsim.event_ns", "ns"},
	{"exp.ns_per_pkt.internet", "ns"},
	{"exp.ns_per_pkt.siff", "ns"},
	{"exp.ns_per_pkt.pushback", "ns"},
	{"exp.ns_per_pkt.tva", "ns"},
	{"exp.completion_frac.internet", "frac"},
	{"exp.completion_frac.siff", "frac"},
	{"exp.completion_frac.pushback", "frac"},
	{"exp.completion_frac.tva", "frac"},
	{"netsim.bottleneck_drops.internet", "count"},
	{"netsim.bottleneck_drops.siff", "count"},
	{"netsim.bottleneck_drops.pushback", "count"},
	{"netsim.bottleneck_drops.tva", "count"},
	{"exp.sweep_speedup", "x"},
	{"bench.self_us_per_pkt.packet", "us"},
	{"bench.self_us_per_pkt.core", "us"},
	{"bench.self_us_per_pkt.sched", "us"},
	{"bench.self_us_per_pkt.other", "us"},
	{"bench.self_sum_frac", "frac"},
	{"bench.gen_late_p99_us", "us"},
	{"bench.gen_cpu_frac", "frac"},
	{"bench.udp_floor_us", "us"},
	{"bench.calib_aes_ns", "ns"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.allocs_per_pkt", "count"},
	{"bench.fail_frac", "frac"},
	{"bench.rss_peak_mb", "MB"},
	{"bench.gc_pause_ms", "ms"},
}

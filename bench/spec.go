package main

import "math"

// The benchmark's vocabulary: workload names, metric names, units and
// regression bounds. BENCHMARK.json at the repo root carries the same lists
// for the driver; bench_test.go asserts the two agree, so a name can only be
// added in both places.

// workloadSpec names one workload and records why it is in the suite.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec describes one named metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics carry no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Workload names.
const (
	wlFlat    = "flat_1k"
	wlSharded = "sharded_10k"
	wlTCP     = "tcp_256"
	wlLive    = "live_4k"
)

var workloads = []workloadSpec{
	{wlFlat, "core.Run, N=1000 on one bus: the paper's protocol alone; customeragent, desire and kb do ~3/4 of the CPU and the UA closes 1000-bid rounds serially"},
	{wlSharded, "cluster.Run, N=10000 over 16 shards: the scale target; the root sees 16 aggregated bids, shards run in parallel, GC pressure of 19M allocs per session"},
	{wlTCP, "cluster.RunDistributed, N=256 over 16 shards on loopback TCP: every table, bid and award crosses bus framing and the message binary codec; kb is the same, transport is not"},
	{wlLive, "telemetry.OpenDurable, N=4096 live loop with journal, snapshots, a follower and scheduled shard spikes: kb idle on steady ticks, store written per tick and read on recovery"},
}

// End-to-end metrics. Every workload reports every one of them, so the
// names are generic: a unit is one customer settled by a correct session
// (flat_1k, sharded_10k, tcp_256) or one meter reading ingested (live_4k).
//
// Wall-clock metrics are not in this list: on the 2-vCPU VMs this repo is
// measured on, identical code read 6-27% apart between runs (README, "A/A
// record"), above every admissible bound, so op_p50 and units_per_s were
// demoted to information only — they are printed by every run and reported
// by the traced run as bench.op_p50_ms and bench.units_per_s. Messages per
// customer went the same way: cluster.Run tears a session down after a
// bounded 200 ms drain, so on a slow machine some session-end relays are
// never sent and the count read 2.2% apart on sharded_10k.
const (
	mSetup         = "setup_s"
	mAllocsPerUnit = "allocs_per_unit"
	mBytesPerUnit  = "alloc_bytes_per_unit"
)

var endToEnd = []metricSpec{
	{mAllocsPerUnit, "count", "lower", 0.03},
	{mBytesPerUnit, "B", "lower", 0.03},
	{mSetup, "s", "lower", 0.25},
}

// Per-layer metrics, named <package>.<metric>. The traced run of every
// workload reports every one of them: span-derived ones come from the
// workload's benchmark-assembled sessions, probe ones from direct calls into
// the layer's public functions on inputs captured from the workload.
var perLayer = []metricSpec{
	{"customeragent.react_p50_us", "us", "lower", 0},
	{"customeragent.reacts_per_session", "count", "lower", 0},
	{"customeragent.self_share", "ratio", "lower", 0},
	{"customeragent.allocs_per_react", "count", "lower", 0},

	{"kb.infer_p50_us", "us", "lower", 0},
	{"kb.match_p50_us", "us", "lower", 0},
	{"kb.facts_p50_us", "us", "lower", 0},
	{"kb.assert_p50_ns", "ns", "lower", 0},
	{"kb.allocs_per_infer", "count", "lower", 0},
	{"kb.self_share", "ratio", "lower", 0},

	{"desire.activate_p50_us", "us", "lower", 0},
	{"desire.self_us", "us", "lower", 0},
	{"desire.self_share", "ratio", "lower", 0},

	{"protocol.close_round_n1000_p50_us", "us", "lower", 0},
	{"protocol.close_round_n16_p50_us", "us", "lower", 0},
	{"protocol.predicted_overuse_n1000_p50_us", "us", "lower", 0},
	{"protocol.predicted_overuse_n10000_p50_us", "us", "lower", 0},
	{"protocol.rounds_per_session", "count", "lower", 0},

	{"utilityagent.self_share", "ratio", "lower", 0},
	{"utilityagent.handle_bid_p50_us", "us", "lower", 0},

	{"agent.dispatch_wait_p50_us", "us", "lower", 0},
	{"agent.dispatch_wait_p95_us", "us", "lower", 0},

	{"bus.send_p50_us", "us", "lower", 0},
	{"bus.broadcast_p50_us", "us", "lower", 0},
	{"bus.self_share", "ratio", "lower", 0},
	{"bus.sent_per_session", "count", "lower", 0},
	{"bus.rejected_per_session", "count", "lower", 0},
	{"bus.dropped_per_session", "count", "lower", 0},
	{"bus.wire_bytes_per_session", "B", "lower", 0},
	{"bus.wire_frames_per_session", "count", "lower", 0},
	{"bus.wire_shed_per_session", "count", "lower", 0},
	{"bus.tcp_roundtrip_p50_us", "us", "lower", 0},
	{"bus.dial_p50_us", "us", "lower", 0},
	{"bus.tcp_overhead_pct", "%", "lower", 0},

	{"message.bid_roundtrip_ns", "ns", "lower", 0},
	{"message.table_roundtrip_ns", "ns", "lower", 0},
	{"message.bid_allocs", "count", "lower", 0},
	{"message.table_allocs", "count", "lower", 0},
	{"message.decode_table_ns", "ns", "lower", 0},
	{"message.decode_bid_ns", "ns", "lower", 0},
	{"message.new_envelope_ns", "ns", "lower", 0},

	{"cluster.relay_latency_p50_us", "us", "lower", 0},
	{"cluster.aggregate_latency_p50_us", "us", "lower", 0},
	{"cluster.shard_skew", "ratio", "lower", 0},
	{"cluster.topology_build_ms", "ms", "lower", 0},

	{"telemetry.publish_collect_p50_us", "us", "lower", 0},
	{"telemetry.detect_p50_ns", "ns", "lower", 0},
	{"telemetry.readings_per_tick", "count", "higher", 0},
	{"telemetry.renegs", "count", "lower", 0},
	{"telemetry.tick_self_share", "ratio", "lower", 0},
	{"telemetry.tick_p99_ms", "ms", "lower", 0},
	{"telemetry.reneg_p50_ms", "ms", "lower", 0},

	{"store.append_tick_ns", "ns", "lower", 0},
	{"store.commit_p50_us", "us", "lower", 0},
	{"store.sync_p50_us", "us", "lower", 0},
	{"store.bytes_per_tick", "B", "lower", 0},
	{"store.records_per_tick", "count", "lower", 0},
	{"store.snapshot_p50_ms", "ms", "lower", 0},
	{"store.open_replay_p50_ms", "ms", "lower", 0},
	{"store.records_replayed", "count", "lower", 0},
	{"store.recovery_p50_ms", "ms", "lower", 0},

	{"replica.lag_records_p95", "count", "lower", 0},
	{"replica.catchup_ms", "ms", "lower", 0},
	{"replica.promote_ms", "ms", "lower", 0},

	{"process.cpu_s_per_op", "s", "lower", 0},
	{"process.gc_cycles", "count", "lower", 0},
	{"process.gc_pause_total_ms", "ms", "lower", 0},
	{"process.peak_rss_mb", "MB", "lower", 0},
	{"process.heap_inuse_peak_mb", "MB", "lower", 0},
	{"process.goroutines_peak", "count", "lower", 0},

	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.op_p50_ms", "ms", "lower", 0},
	{"bench.units_per_s", "1/s", "higher", 0},
	{"bench.op_tail_ms", "ms", "lower", 0},
	{"bench.op_max_ms", "ms", "lower", 0},
	{"bench.gomaxprocs", "count", "higher", 0},
}

// metric is one measured value as it is printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics against a spec list, so a name that is
// not in the spec (a typo, a metric dropped from BENCHMARK.json) fails the
// run instead of vanishing.
type metricSet struct {
	units map[string]string
	vals  map[string]metric
}

func newMetricSet(specs []metricSpec) *metricSet {
	ms := &metricSet{units: make(map[string]string, len(specs)), vals: make(map[string]metric, len(specs))}
	for _, s := range specs {
		ms.units[s.Name] = s.Unit
	}
	return ms
}

// set records a value under a spec'd name; an unknown name is a programming
// error in the benchmark itself.
func (ms *metricSet) set(name string, v float64) {
	unit, ok := ms.units[name]
	if !ok {
		panic("bench: metric " + name + " is not in the spec")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// An empty sample (a layer the run never exercised) reads as 0; the
		// result line must stay valid JSON.
		v = 0
	}
	ms.vals[name] = metric{Value: v, Unit: unit}
}

// missing lists the spec'd names that were never set.
func (ms *metricSet) missing() []string {
	var out []string
	for name := range ms.units {
		if _, ok := ms.vals[name]; !ok {
			out = append(out, name)
		}
	}
	return out
}

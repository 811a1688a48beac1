package telemetry

import (
	"sort"

	"loadbalance/internal/bus"
	"loadbalance/internal/trace"
)

// WireSamples appends TCP transport endpoints' frame counters, one series per
// transport label. A gridd role passes one entry per server it runs (member
// tier, root tier, obs hub), so a scraper sees queue-overflow drops and hello
// rejections the moment a peer goes slow or a name collides.
func WireSamples(dst []trace.Sample, transports map[string]bus.WireStats) []trace.Sample {
	names := make([]string, 0, len(transports))
	for n := range transports {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, m := range []struct {
		family string
		get    func(bus.WireStats) uint64
	}{
		{"bus_wire_frames_in_total", func(s bus.WireStats) uint64 { return s.FramesIn }},
		{"bus_wire_frames_out_total", func(s bus.WireStats) uint64 { return s.FramesOut }},
		{"bus_wire_bytes_in_total", func(s bus.WireStats) uint64 { return s.BytesIn }},
		{"bus_wire_bytes_out_total", func(s bus.WireStats) uint64 { return s.BytesOut }},
		{"bus_wire_dropped_total", func(s bus.WireStats) uint64 { return s.Dropped }},
		{"bus_wire_hellos_total", func(s bus.WireStats) uint64 { return s.Hellos }},
		{"bus_wire_rejected_total", func(s bus.WireStats) uint64 { return s.Rejected }},
		{"bus_wire_malformed_total", func(s bus.WireStats) uint64 { return s.Malformed }},
		{"bus_wire_protocol_errors_total", func(s bus.WireStats) uint64 { return s.ProtoErrs }},
	} {
		for _, n := range names {
			dst = append(dst, trace.Counter(m.family, trace.Label("transport", n), m.get(transports[n])))
		}
	}
	return dst
}

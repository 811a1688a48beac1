package replica

import (
	"time"

	"loadbalance/internal/trace"
)

// Samples appends a primary's replication counters as the replica_* series
// a role publishes beside its grid_*, store_* and bus_wire_* families.
func (st SenderStatus) Samples(dst []trace.Sample) []trace.Sample {
	dst = append(dst,
		trace.Gauge("replica_role", "", 0), // 0 = primary
		trace.Gauge("replica_standbys", "", float64(len(st.Standbys))),
		trace.Counter("replica_batches_shipped_total", "", st.Batches),
		trace.Counter("replica_records_shipped_total", "", st.Records),
		trace.Counter("replica_bytes_shipped_total", "", st.Bytes),
		trace.Counter("replica_snapshots_shipped_total", "", st.Snapshots),
		trace.Counter("replica_resyncs_total", "", st.Resyncs))
	for _, g := range []struct {
		family string
		get    func(StandbyStatus) float64
	}{
		{"replica_standby_acked_seq", func(sb StandbyStatus) float64 { return float64(sb.AckedSeq) }},
		{"replica_standby_lag_records", func(sb StandbyStatus) float64 { return float64(sb.LagRecords) }},
		{"replica_standby_last_ack_age_seconds", func(sb StandbyStatus) float64 { return time.Since(sb.LastAck).Seconds() }},
	} {
		for _, sb := range st.Standbys {
			dst = append(dst, trace.Gauge(g.family, trace.Label("standby", sb.ID), g.get(sb)))
		}
	}
	return dst
}

// Samples appends a standby's replication counters.
func (st ReceiverStatus) Samples(dst []trace.Sample) []trace.Sample {
	return append(dst,
		trace.Gauge("replica_role", "", 1), // 1 = standby
		trace.Gauge("replica_source_up", "", trace.Bool(st.Connected)),
		trace.Gauge("replica_applied_seq", "", float64(st.AppliedSeq)),
		trace.Counter("replica_batches_applied_total", "", st.Batches),
		trace.Counter("replica_records_applied_total", "", st.Records),
		trace.Counter("replica_snapshots_applied_total", "", st.Snapshots),
		trace.Counter("replica_resyncs_total", "", st.Resyncs),
		trace.Counter("replica_dials_total", "", st.Dials),
		trace.Gauge("replica_last_contact_age_seconds", "", time.Since(st.LastContact).Seconds()),
		trace.Gauge("replica_last_applied_age_seconds", "", trace.AgeSeconds(st.LastApplied)))
}

package store

import "loadbalance/internal/trace"

// Samples appends the store counters as the store_* series a role publishes
// beside its grid_* and bus_wire_* families. Ages read -1 until the event
// they measure has happened.
func (st Stats) Samples(dst []trace.Sample) []trace.Sample {
	return append(dst,
		trace.Counter("store_appends_total", "", st.Appends),
		trace.Counter("store_commits_total", "", st.Commits),
		trace.Counter("store_fsyncs_total", "", st.Fsyncs),
		trace.Counter("store_segment_rotations_total", "", st.Rotations),
		trace.Counter("store_snapshots_total", "", st.Snapshots),
		trace.Counter("store_bytes_written_total", "", st.BytesWritten),
		trace.Gauge("store_last_seq", "", float64(st.LastSeq)),
		trace.Gauge("store_snapshot_seq", "", float64(st.SnapshotSeq)),
		trace.Gauge("store_snapshot_age_seconds", "", trace.AgeSeconds(st.SnapshotTime)),
		trace.Gauge("store_last_append_age_seconds", "", trace.AgeSeconds(st.LastAppend)),
		trace.Gauge("store_replayed_records", "", float64(st.Replayed)),
		trace.Gauge("store_recovered", "", trace.Bool(st.Recovered)),
		trace.Gauge("store_clean_start", "", trace.Bool(st.CleanStart)),
		trace.Gauge("store_torn_tail_bytes", "", float64(st.TornBytes)))
}

package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"loadbalance/internal/trace"
)

// mustOpen opens a store or fails the test.
func mustOpen(t *testing.T, dir string, opts Options) (*Store, *Recovered) {
	t.Helper()
	st, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st, rec
}

// sampleTick builds a deterministic checkpoint.
func sampleTick(tick, shards int) TickCheckpoint {
	cp := TickCheckpoint{Tick: tick, Readings: int64(8 * shards), Batches: 2, Shard: make([]float64, shards)}
	for i := range cp.Shard {
		cp.Shard[i] = 1.5*float64(i) + 0.125*float64(tick)
	}
	return cp
}

func TestFrameRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: KindScenario, Body: []byte(`{"sessionId":"s"}`)},
		NewTickRecord(sampleTick(7, 4)),
		{Kind: KindSeal},
	}
	var buf []byte
	for _, r := range recs {
		buf = appendFrame(buf, r)
	}
	for _, want := range recs {
		got, n, err := decodeFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != want.Kind || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("frame round trip: got %v %q, want %v %q", got.Kind, got.Body, want.Kind, want.Body)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestTickBodyRoundTrip(t *testing.T) {
	want := sampleTick(123456, 16)
	got, err := DecodeTick(NewTickRecord(want))
	if err != nil {
		t.Fatal(err)
	}
	if got.Tick != want.Tick || got.Readings != want.Readings || got.Batches != want.Batches {
		t.Fatalf("header round trip: got %+v", got)
	}
	for i := range want.Shard {
		if got.Shard[i] != want.Shard[i] {
			t.Fatalf("shard %d: %v != %v (must be bit-exact)", i, got.Shard[i], want.Shard[i])
		}
	}
}

func TestJSONRecordRoundTrips(t *testing.T) {
	sess := SessionOutcome{
		SessionID: "live-1", Outcome: "converged", Rounds: 3,
		Bids:   map[string]float64{"c1": 0.2, "c2": 0.4},
		Awards: map[string]AwardEntry{"c1": {CutDown: 0.2, Reward: 8.5}},
	}
	r, err := newJSONRecord(KindSession, sess)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSession(r)
	if err != nil {
		t.Fatal(err)
	}
	if got.SessionID != sess.SessionID || got.Bids["c2"] != 0.4 || got.Awards["c1"].Reward != 8.5 {
		t.Fatalf("session round trip: %+v", got)
	}
	reneg := RenegOutcome{
		Checkpoint: sampleTick(9, 2), SessionSeq: 2, SessionID: "live-1-renego-2",
		Shards: []int{0, 3}, Members: 16, Outcome: "converged",
		Factors: map[int]float64{0: 2.5, 3: 2.4},
		Bids:    map[string]float64{"c1": 0.5},
		Awards:  map[string]AwardEntry{"c1": {CutDown: 0.5, Reward: 21}},
	}
	rr, err := NewRenegRecord(reneg)
	if err != nil {
		t.Fatal(err)
	}
	gotR, err := DecodeReneg(rr)
	if err != nil {
		t.Fatal(err)
	}
	if gotR.Factors[3] != 2.4 || gotR.Checkpoint.Tick != 9 || gotR.Shards[1] != 3 {
		t.Fatalf("reneg round trip: %+v", gotR)
	}
	if _, err := DecodeSession(rr); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("cross-kind decode error = %v, want ErrCorrupt", err)
	}
}

// TestSessionFindsTheLatestRecord: AppendSession makes a record durable, and
// Session answers with the newest decodable one for the id, skipping other
// sessions and bodies that do not decode.
func TestSessionFindsTheLatestRecord(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{})
	for _, o := range []SessionOutcome{
		{SessionID: "e2", Outcome: "completed", Config: "seed=1"},
		{SessionID: "e2", Outcome: "completed", Config: "seed=2"},
		{SessionID: "e3", Outcome: "completed", Config: "seed=3"},
	} {
		if err := st.AppendSession(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Append(Record{Kind: KindSession, Body: []byte("{not json")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if o, ok := rec.Session("e2"); !ok || o.Config != "seed=2" {
		t.Fatalf("Session(e2) = %+v, %v; want the seed=2 record", o, ok)
	}
	if _, ok := rec.Session("e4"); ok {
		t.Fatal("Session found a session that was never recorded")
	}
}

func TestOpenAppendRecover(t *testing.T) {
	dir := t.TempDir()
	st, rec := mustOpen(t, dir, Options{})
	if !rec.Empty() {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	scen, err := NewScenarioRecord(ScenarioInfo{SessionID: "s", Customers: 8, Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch(scen, NewTickRecord(sampleTick(0, 2)), NewTickRecord(sampleTick(1, 2))); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec2 := mustOpen(t, dir, Options{})
	defer st2.Close()
	if len(rec2.Records) != 3 || rec2.LastSeq != 3 {
		t.Fatalf("recovered %d records, last seq %d", len(rec2.Records), rec2.LastSeq)
	}
	if rec2.Sealed {
		t.Fatal("unsealed journal reported sealed")
	}
	if got, err := DecodeScenario(rec2.Records[0]); err != nil || got.Customers != 8 {
		t.Fatalf("scenario record: %+v, %v", got, err)
	}
	if cp, err := DecodeTick(rec2.Records[2]); err != nil || cp.Tick != 1 {
		t.Fatalf("tick record: %+v, %v", cp, err)
	}
	// Appends after recovery continue the sequence in a fresh segment.
	if err := st2.Append(NewTickRecord(sampleTick(2, 2))); err != nil {
		t.Fatal(err)
	}
	if st2.Stats().LastSeq != 4 {
		t.Fatalf("last seq = %d, want 4", st2.Stats().LastSeq)
	}
}

func TestSealMarksCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{})
	if err := st.Append(NewTickRecord(sampleTick(0, 1))); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(NewTickRecord(sampleTick(1, 1))); !errors.Is(err, ErrSealed) {
		t.Fatalf("append after seal = %v, want ErrSealed", err)
	}
	st.Close()

	_, rec := mustOpenClose(t, dir)
	if !rec.Sealed {
		t.Fatal("sealed journal not reported sealed")
	}
}

// mustOpenClose opens and immediately closes, returning the recovery.
func mustOpenClose(t *testing.T, dir string) (*Store, *Recovered) {
	t.Helper()
	st, rec := mustOpen(t, dir, Options{})
	st.Close()
	return st, rec
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{SegmentBytes: 1024})
	const n = 200
	for i := 0; i < n; i++ {
		if err := st.Append(NewTickRecord(sampleTick(i, 4))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if rot := st.Stats().Rotations; rot < 2 {
		t.Fatalf("rotations = %d, want several at a 1 KiB threshold", rot)
	}
	if segs := segmentGlob(dir); len(segs) < 3 {
		t.Fatalf("segments on disk = %d, want several", len(segs))
	}
	_, rec := mustOpenClose(t, dir)
	if len(rec.Records) != n {
		t.Fatalf("recovered %d records across segments, want %d", len(rec.Records), n)
	}
	for i, r := range rec.Records {
		cp, err := DecodeTick(r)
		if err != nil || cp.Tick != i {
			t.Fatalf("record %d: tick %d, err %v", i, cp.Tick, err)
		}
	}
}

func TestSnapshotAndTailReplay(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if err := st.Append(NewTickRecord(sampleTick(i, 2))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Snapshot([]byte(`{"tick":10}`)); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 14; i++ {
		if err := st.Append(NewTickRecord(sampleTick(i, 2))); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	_, rec := mustOpenClose(t, dir)
	if string(rec.Snapshot) != `{"tick":10}` {
		t.Fatalf("snapshot blob = %q", rec.Snapshot)
	}
	if rec.SnapshotSeq != 10 {
		t.Fatalf("snapshot seq = %d, want 10", rec.SnapshotSeq)
	}
	if len(rec.Records) != 4 {
		t.Fatalf("tail records = %d, want only the 4 after the snapshot", len(rec.Records))
	}
	if cp, _ := DecodeTick(rec.Records[0]); cp.Tick != 10 {
		t.Fatalf("tail starts at tick %d, want 10", cp.Tick)
	}
}

func TestSnapshotPruning(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{SegmentBytes: 1024, KeepSnapshots: 2})
	for round := 0; round < 5; round++ {
		for i := 0; i < 40; i++ {
			if err := st.Append(NewTickRecord(sampleTick(round*40+i, 4))); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Snapshot([]byte{byte(round)}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	if snaps := snapshotPaths(dir); len(snaps) != 2 {
		t.Fatalf("snapshots kept = %d, want 2", len(snaps))
	}
	segs := segmentGlob(dir)
	// Everything strictly below the older kept snapshot must be gone.
	oldest := pruneSnapshots(dir, 2)
	for i := 0; i+1 < len(segs); i++ {
		next, _ := segmentFirstSeq(segs[i+1])
		if next-1 <= oldest {
			t.Fatalf("segment %s is fully covered by snapshot %d but survived pruning", segs[i], oldest)
		}
	}
	// Recovery still replays everything after the newest snapshot.
	_, rec := mustOpenClose(t, dir)
	if rec.SnapshotSeq != 200 || len(rec.Records) != 0 {
		t.Fatalf("recovered snapshot %d + %d tail records, want 200 + 0", rec.SnapshotSeq, len(rec.Records))
	}
	if len(rec.Snapshot) != 1 || rec.Snapshot[0] != 4 {
		t.Fatalf("snapshot blob = %v, want the newest", rec.Snapshot)
	}
}

func TestDamagedSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{})
	if err := st.Append(NewTickRecord(sampleTick(0, 1))); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(NewTickRecord(sampleTick(1, 1))); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot([]byte("newer")); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Corrupt the newest snapshot: recovery must fall back to the older one
	// and replay the records after it.
	newest := snapshotPaths(dir)[0]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpenClose(t, dir)
	if string(rec.Snapshot) != "good" {
		t.Fatalf("snapshot blob = %q, want fallback to the older snapshot", rec.Snapshot)
	}
	if len(rec.Records) != 1 {
		t.Fatalf("tail records = %d, want the 1 after the fallback snapshot", len(rec.Records))
	}
}

func TestReadDirIsNonDestructive(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{})
	if err := st.Append(NewTickRecord(sampleTick(0, 1))); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	// Read the live directory while the writer still owns it.
	rec, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 {
		t.Fatalf("read-only scan saw %d records, want 1", len(rec.Records))
	}
	if err := st.Append(NewTickRecord(sampleTick(1, 1))); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec2 := mustOpenClose(t, dir)
	if len(rec2.Records) != 2 {
		t.Fatalf("writer lost records after a concurrent ReadDir: %d", len(rec2.Records))
	}
}

func TestMetricsRender(t *testing.T) {
	samples := Stats{Appends: 12, Fsyncs: 3, Recovered: true, Replayed: 7}.Samples(nil)
	for series, want := range map[string]float64{
		"store_appends_total":        12,
		"store_fsyncs_total":         3,
		"store_recovered":            1,
		"store_replayed_records":     7,
		"store_snapshot_age_seconds": -1,
	} {
		if got, ok := trace.Value(samples, series); !ok || got != want {
			t.Fatalf("%s = %g (found %v), want %g in %+v", series, got, ok, want, samples)
		}
	}
	if samples[0].Kind != trace.KindCounter || samples[len(samples)-1].Kind != trace.KindGauge {
		t.Fatalf("kinds: first %v, last %v", samples[0].Kind, samples[len(samples)-1].Kind)
	}
}

func TestOpenRejectsBadOptions(t *testing.T) {
	if _, _, err := Open(t.TempDir(), Options{SegmentBytes: 12}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("tiny segment err = %v", err)
	}
	if _, _, err := Open(t.TempDir(), Options{SyncEvery: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative sync err = %v", err)
	}
}

func TestOpenOnFilePathFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, Options{}); err == nil {
		t.Fatal("opening a file path as a data dir must fail")
	}
}

func TestAppendTickFastPath(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := st.AppendTick(sampleTick(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpenClose(t, dir)
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records, want 5", len(rec.Records))
	}
	for i, r := range rec.Records {
		got, err := DecodeTick(r)
		if err != nil {
			t.Fatal(err)
		}
		want := sampleTick(i, 3)
		if got.Tick != want.Tick || got.Readings != want.Readings {
			t.Fatalf("record %d: %+v", i, got)
		}
		for j := range want.Shard {
			if got.Shard[j] != want.Shard[j] {
				t.Fatalf("record %d shard %d: %v != %v (the reused buffer must not corrupt frames)", i, j, got.Shard[j], want.Shard[j])
			}
		}
	}
}

// TestAppendTickAllocs pins the durability hot path in steady state — a
// tick's 16-shard checkpoint appended at the live loop's commit cadence, one
// flush per 64 records — at zero allocations per record, with the tracer off
// and on. Exact: the store runs no goroutine of its own.
func TestAppendTickAllocs(t *testing.T) {
	for _, traced := range []bool{false, true} {
		st, _ := mustOpen(t, t.TempDir(), Options{})
		if traced {
			trace.Enable("alloc", 4096)
		}
		cp := sampleTick(0, 16)
		got := testing.AllocsPerRun(1000, func() {
			cp.Tick++
			err := st.AppendTick(cp)
			if err == nil && cp.Tick%64 == 0 {
				err = st.Commit()
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		trace.Disable()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Errorf("AppendTick (tracing %v) allocates %v times a record, want 0", traced, got)
		}
	}
}

// TestReadDirAllocatesPerBatch: recovery keeps the records the Tailer
// delivers where they landed, so a 5 000-record journal costs a few
// allocations per batch read, not one per record.
func TestReadDirAllocatesPerBatch(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 5000; i++ {
		if err := st.Append(NewTickRecord(sampleTick(i, 2))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		rec, err := ReadDir(dir)
		if err != nil || len(rec.Records) != 5000 {
			t.Fatalf("ReadDir = %v records, %v", len(rec.Records), err)
		}
	})
	if allocs > 64 {
		t.Fatalf("ReadDir of 5000 records made %.0f allocations, want at most 64", allocs)
	}
}

// TestRecoveredBodiesAreCapped: recovered bodies share one batch's bytes, so
// each is capped at its own length — appending to one copies it rather than
// overwriting the record after it.
func TestRecoveredBodiesAreCapped(t *testing.T) {
	dir := t.TempDir()
	writeTicks(t, dir, 3, Options{})
	rec, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	next := append([]byte(nil), rec.Records[1].Body...)
	// Sixteen bytes run past record 0's checksum into record 1's body.
	_ = append(rec.Records[0].Body, bytes.Repeat([]byte{0xee}, 16)...)
	if !bytes.Equal(rec.Records[1].Body, next) {
		t.Fatalf("appending to record 0's body rewrote record 1's: %x, want %x", rec.Records[1].Body, next)
	}
	if cp, err := DecodeTick(rec.Records[1]); err != nil || cp.Tick != 1 {
		t.Fatalf("record 1 after an append to record 0: tick %d, err %v", cp.Tick, err)
	}
}

package store

// Corruption-handling tests: whatever the directory holds, recovery returns
// the longest valid prefix of the log and never panics.

import (
	"os"
	"path/filepath"
	"testing"
)

// writeTicks opens a store, appends n tick records and closes it.
func writeTicks(t *testing.T, dir string, n int, opts Options) {
	t.Helper()
	st, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := st.Append(NewTickRecord(sampleTick(i, 2))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// lastSegment returns the newest segment path.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs := segmentGlob(dir)
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	return segs[len(segs)-1]
}

func TestRecoverTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	writeTicks(t, dir, 10, Options{})
	// Chop bytes off the tail: the torn record drops, the rest survive.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	st, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(rec.Records) != 9 {
		t.Fatalf("recovered %d records, want 9 (tail torn)", len(rec.Records))
	}
	if rec.TornBytes == 0 {
		t.Fatal("torn bytes not reported")
	}
	if cp, _ := DecodeTick(rec.Records[8]); cp.Tick != 8 {
		t.Fatalf("last surviving record tick = %d, want 8", cp.Tick)
	}
	// Repair must have cut the garbage so a fresh append and another
	// recovery see a clean, contiguous log.
	if err := st.Append(NewTickRecord(sampleTick(9, 2))); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Records) != 10 || rec2.TornBytes != 0 {
		t.Fatalf("after repair: %d records, %d torn bytes; want 10 and 0", len(rec2.Records), rec2.TornBytes)
	}
}

func TestRecoverBadCRC(t *testing.T) {
	dir := t.TempDir()
	writeTicks(t, dir, 10, Options{})
	// Flip a byte in the middle of the segment: the log ends at the last
	// record before the damage.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) == 0 || len(rec.Records) >= 10 {
		t.Fatalf("recovered %d records, want a proper prefix", len(rec.Records))
	}
	for i, r := range rec.Records {
		cp, err := DecodeTick(r)
		if err != nil || cp.Tick != i {
			t.Fatalf("surviving record %d: tick %d, err %v", i, cp.Tick, err)
		}
	}
}

func TestRecoverMixedVersionSegments(t *testing.T) {
	dir := t.TempDir()
	writeTicks(t, dir, 5, Options{})
	// Hand-craft a future-versioned segment after the valid one: recovery
	// must stop at the last valid record of the v1 log, and Open must set
	// the alien segment aside rather than replay or clobber it.
	alien := filepath.Join(dir, segmentName(6))
	if err := os.WriteFile(alien, append([]byte(segMagic), 99, 0xde, 0xad), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 5 || rec.LastSeq != 5 {
		t.Fatalf("recovered %d records to seq %d, want the 5 v1 records", len(rec.Records), rec.LastSeq)
	}

	st, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Records) != 5 {
		t.Fatalf("open recovered %d records, want 5", len(rec2.Records))
	}
	if err := st.Append(NewTickRecord(sampleTick(5, 2))); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(alien + ".orphaned"); err != nil {
		t.Fatalf("alien segment not set aside: %v", err)
	}
	rec3, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec3.Records) != 6 {
		t.Fatalf("log after orphaning = %d records, want 6", len(rec3.Records))
	}
}

func TestRecoverSegmentHole(t *testing.T) {
	dir := t.TempDir()
	// Three small segments; delete the middle one: the log must end at the
	// first segment's last record, and the orphan must be set aside.
	writeTicks(t, dir, 150, Options{SegmentBytes: 1024})
	segs := segmentGlob(dir)
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	first, _ := segmentFirstSeq(segs[1])

	rec, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastSeq != first-1 {
		t.Fatalf("log ends at seq %d, want %d (just before the hole)", rec.LastSeq, first-1)
	}
	st, _, err := Open(dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	for _, s := range segs[2:] {
		if _, err := os.Stat(s + ".orphaned"); err != nil {
			t.Fatalf("segment beyond the hole not set aside: %v", err)
		}
	}
}

// TestRecoverOverlappingSegmentEndsTheLog: a segment that starts anywhere but
// right after the one before it is a hole too, even when a later segment
// would continue the log — recovery and the tailer stop there.
func TestRecoverOverlappingSegmentEndsTheLog(t *testing.T) {
	dir := t.TempDir()
	writeTicks(t, dir, 150, Options{SegmentBytes: 1024})
	segs := segmentGlob(dir)
	second, _ := segmentFirstSeq(segs[1])
	stray := filepath.Join(dir, segmentName(second-1))
	if err := os.WriteFile(stray, []byte(segMagic+string(segVersion)), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastSeq != second-1 {
		t.Fatalf("log ends at seq %d, want %d (before the overlapping segment)", rec.LastSeq, second-1)
	}
	tl, err := OpenTail(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if got := drainTail(t, tl, 0); uint64(len(got)) != second-1 {
		t.Fatalf("tailed %d records, want %d", len(got), second-1)
	}
}

// TestRecoverSegmentNamedZero: sequence numbers start at 1, so a segment
// named 0 is no segment of this journal; read as one, the log would end
// before its first record, at a position that wraps.
func TestRecoverSegmentNamedZero(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(0)), []byte(segMagic+string(segVersion)), 0o644); err != nil {
		t.Fatal(err)
	}
	writeTicks(t, dir, 2, Options{})
	rec, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastSeq != 2 || len(rec.Records) != 2 {
		t.Fatalf("recovered %d records to seq %d, want the 2 appended", len(rec.Records), rec.LastSeq)
	}
}

func TestRecoverGarbageFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	writeTicks(t, dir, 3, Options{})
	// Stray files that match neither naming scheme are ignored outright.
	for _, name := range []string{"notes.txt", "wal-zzzz.seg.bak", "snap-xyz.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("noise"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 3 {
		t.Fatalf("recovered %d records with stray files present, want 3", len(rec.Records))
	}
}

func TestRecoverEmptyAndHeaderOnlySegments(t *testing.T) {
	dir := t.TempDir()
	// A header-only segment (crash right after rotation) recovers to an
	// empty log without error.
	st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Empty() || rec.Sealed {
		t.Fatalf("header-only dir recovered %+v", rec)
	}
	// A zero-byte segment likewise never panics.
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if rec, err = ReadDir(dir); err != nil {
		t.Fatal(err)
	}
	if !rec.Empty() {
		t.Fatalf("zero-byte segment recovered %+v", rec)
	}
}

func TestDecodeTickRejectsOverflowedShardCount(t *testing.T) {
	// A crafted body declaring 2^61 shards (8×count wraps to 0) with an
	// empty vector must be rejected, not panic recovery's allocator.
	body := AppendTickBody(nil, TickCheckpoint{Tick: 1, Readings: 1, Batches: 1})
	body = body[:len(body)-1]                                                 // drop the honest zero shard count
	body = append(body, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20) // uvarint 1<<61
	if _, err := DecodeTickBody(body); err == nil {
		t.Fatal("overflowed shard count decoded without error")
	}
}

// TestRecoveryShortOfTheSnapshotKeepsLaterAppends: a log that ends short of
// its snapshot cannot continue it, so recovery sets its segments aside and
// the snapshot is the head. What the next writer appends after that must
// survive the recovery after it.
func TestRecoveryShortOfTheSnapshotKeepsLaterAppends(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if err := st.Append(NewTickRecord(sampleTick(i, 2))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Snapshot([]byte("state-10")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip the first body byte of record 5: the log ends at record 4.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	off := headerSize
	for i := 0; i < 4; i++ {
		off += len(appendFrame(nil, NewTickRecord(sampleTick(i, 2))))
	}
	data[off+2] ^= 0xff // past the kind byte and the one-byte length
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st, rec := mustOpen(t, dir, Options{})
	if rec.SnapshotSeq != 10 || rec.LastSeq != 10 || len(rec.Records) != 0 {
		t.Fatalf("first recovery: snapshot %d, last seq %d, %d records; want 10, 10, 0", rec.SnapshotSeq, rec.LastSeq, len(rec.Records))
	}
	for i := 10; i < 15; i++ {
		if err := st.Append(NewTickRecord(sampleTick(i, 2))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec = mustOpenClose(t, dir)
	if rec.LastSeq != 15 || len(rec.Records) != 5 || rec.TornBytes != 0 {
		t.Fatalf("second recovery: last seq %d, %d records, %d torn bytes; want 15, 5, 0", rec.LastSeq, len(rec.Records), rec.TornBytes)
	}
	for i, r := range rec.Records {
		if cp, err := DecodeTick(r); err != nil || cp.Tick != 10+i {
			t.Fatalf("record %d: tick %d, err %v; want tick %d", i, cp.Tick, err, 10+i)
		}
	}
}

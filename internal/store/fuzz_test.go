package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// everyKind is one record of each kind, as the journal's writers make them.
func everyKind(tb testing.TB) []Record {
	tb.Helper()
	var recs []Record
	add := func(r Record, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		recs = append(recs, r)
	}
	add(NewScenarioRecord(ScenarioInfo{SessionID: "s", Customers: 8, Shards: 2, TicksPerWindow: 8, Seed: 1, Jitter: 0.01}))
	add(NewTopologyRecord(TopologyInfo{Shards: 2, Fleet: 8, ShardSizes: []int{4, 4}}))
	add(newJSONRecord(KindSession, SessionOutcome{SessionID: "s", Outcome: "converged", Rounds: 2,
		Bids: map[string]float64{"c1": 0.2}, Awards: map[string]AwardEntry{"c1": {CutDown: 0.2, Reward: 8.5}},
		Result: []byte(`{"SessionID":"s","Rounds":2}`)}))
	add(NewTickRecord(sampleTick(0, 2)), nil)
	add(NewRenegRecord(RenegOutcome{Checkpoint: sampleTick(1, 2), SessionSeq: 1, SessionID: "s-renego-1",
		Shards: []int{0}, Members: 4, Outcome: "converged", Factors: map[int]float64{0: 2.5}}))
	add(NewAbortRecord(AbortInfo{SessionID: "s", Reason: "context canceled"}))
	add(NewPromoteRecord(PromoteInfo{Replica: "r1", FromSeq: 6, Reason: "primary silent"}))
	add(sealRecord(), nil)
	return recs
}

// FuzzReadDir feeds arbitrary bytes to the journal's one reader, the Tailer,
// as a data directory's only segment, through both of its clients. Recovery
// (ReadDir) never panics; every record it accepts re-frames to the segment's
// bytes up to where it stopped, and what follows is reported torn — an
// oracle that trusts the reader for nothing; and a Tailer over the same file
// delivers exactly those frames, in that order, as does one opened after
// any of them, while one opened past the last gets ErrGap.
//
//	go test -run '^$' -fuzz FuzzReadDir -fuzztime 10s -fuzzminimizetime 20x ./internal/store
func FuzzReadDir(f *testing.F) {
	seg := []byte(segMagic + string(segVersion))
	for _, r := range everyKind(f) {
		seg = appendFrame(seg, r)
	}
	f.Add(seg)
	f.Add(seg[:headerSize])                                 // a segment opened and never appended to
	f.Add(seg[:len(seg)-3])                                 // a torn tail
	f.Add(append([]byte("LBWAL\x02"), seg[headerSize:]...)) // a version this reader does not know
	// A length written in two bytes where one suffices, under a checksum
	// that matches: a frame no writer makes.
	long := []byte{byte(KindSeal), 0x80, 0x00}
	seg = binary.LittleEndian.AppendUint32(append([]byte(segMagic+string(segVersion)), long...), crc32.Checksum(long, crcTable))
	f.Add(seg)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var framed []byte
		for _, r := range rec.Records {
			framed = appendFrame(framed, r)
		}
		switch {
		case !validHeader(data):
			if len(rec.Records) != 0 || rec.TornBytes != 0 {
				t.Fatalf("a segment with an unknown header recovered %d records, %d torn bytes", len(rec.Records), rec.TornBytes)
			}
		case !bytes.HasPrefix(data[headerSize:], framed):
			t.Fatalf("recovered records re-frame to %x, not a prefix of the segment's frames %x", framed, data[headerSize:])
		case rec.TornBytes != len(data)-headerSize-len(framed):
			t.Fatalf("%d torn bytes reported after %d of %d frame bytes", rec.TornBytes, len(framed), len(data)-headerSize)
		}

		if tailed := tailAfter(t, dir, 0); !bytes.Equal(tailed, framed) {
			t.Fatalf("the tailer delivered frames %x, recovery accepted %x", tailed, framed)
		}
		// A cursor opened after record k — a follower resuming mid-segment,
		// through seek's bounded read — delivers exactly the frames after it,
		// and one past the last record is a gap, not a position to guess.
		off := 0
		for k, r := range rec.Records {
			off += len(appendFrame(nil, r))
			if tailed := tailAfter(t, dir, uint64(k+1)); !bytes.Equal(tailed, framed[off:]) {
				t.Fatalf("a cursor after record %d delivered frames %x, want %x", k+1, tailed, framed[off:])
			}
		}
		if tail, err := OpenTail(dir, uint64(len(rec.Records)+1)); !errors.Is(err, ErrGap) {
			if tail != nil {
				tail.Close()
			}
			t.Fatalf("a cursor past the %d records recovery accepted opened with %v, want ErrGap", len(rec.Records), err)
		}
	})
}

// tailAfter returns every frame a Tailer opened after record afterSeq
// delivers.
func tailAfter(t *testing.T, dir string, afterSeq uint64) []byte {
	t.Helper()
	tail, err := OpenTail(dir, afterSeq)
	if err != nil {
		t.Fatalf("a cursor after record %d: %v", afterSeq, err)
	}
	defer tail.Close()
	var tailed []byte
	for {
		b, err := tail.Next(0)
		if err != nil || b.Count == 0 {
			return tailed
		}
		tailed = append(tailed, b.Frames...)
	}
}

// FuzzRecoverTwice searches the rules that span segments — holes, a later
// segment's header, setting segments aside and the snapshot's place in the
// log — which one segment's bytes never reach. It splits arbitrary bytes at
// two offsets into up to three segments under arbitrary first sequence
// numbers (0 leaves a part out), with an optional snapshot at an arbitrary
// position, and checks that ReadDir changes nothing on disk, and that what
// one recovery commits survives the next: after Open, n appends and Close,
// a second Open recovers the first's records plus the n appended, LastSeq
// advanced by n, no torn bytes and nothing newly set aside.
//
//	go test -run '^$' -fuzz FuzzRecoverTwice -fuzztime 10s -fuzzminimizetime 20x ./internal/store
func FuzzRecoverTwice(f *testing.F) {
	header := segMagic + string(segVersion)
	var frames [][]byte // frames[i] is record i+1's
	for i := 0; i < 10; i++ {
		frames = append(frames, appendFrame(nil, NewTickRecord(sampleTick(i, 2))))
	}
	segment := func(from, to int) []byte { return append([]byte(header), bytes.Join(frames[from-1:to], nil)...) }
	// The log ends short of its snapshot (record 5's body is damaged), so
	// the appends after it start a segment that does not continue it.
	short := segment(1, 10)
	short[len(segment(1, 4))+2] ^= 0xff
	f.Add(short, uint16(len(short)), uint16(len(short)), uint8(1), uint8(0), uint8(0), uint8(10), uint8(5))
	// Three segments holding records 1-3, 4-7 and 8-10.
	three := slices.Concat(segment(1, 3), segment(4, 7), segment(8, 10))
	c1, c2 := uint16(len(segment(1, 3))), uint16(len(segment(1, 3))+len(segment(4, 7)))
	f.Add(three, c1, c2, uint8(1), uint8(4), uint8(8), uint8(5), uint8(3))
	// A hole: the second segment claims to start at 5.
	f.Add(three, c1, c2, uint8(1), uint8(5), uint8(8), uint8(0), uint8(2))
	// The second segment's header is a version this reader does not know.
	alien := slices.Clone(three)
	alien[int(c1)+headerSize-1]++
	f.Add(alien, c1, c2, uint8(1), uint8(4), uint8(8), uint8(2), uint8(2))
	// A torn tail in the last segment, under a snapshot inside the first.
	f.Add(three[:len(three)-3], c1, c2, uint8(1), uint8(4), uint8(8), uint8(2), uint8(6))
	// The oldest segment starts beyond the snapshot's successor.
	f.Add(three, c1, c2, uint8(20), uint8(23), uint8(27), uint8(5), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, cut1, cut2 uint16, first1, first2, first3, snap, n uint8) {
		dir := t.TempDir()
		c1 := min(int(cut1), len(data))
		c2 := max(min(int(cut2), len(data)), c1)
		for i, part := range [][]byte{data[:c1], data[c1:c2], data[c2:]} {
			if first := []uint8{first1, first2, first3}[i]; first != 0 {
				if err := os.WriteFile(filepath.Join(dir, segmentName(uint64(first))), part, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		if snap != 0 {
			if err := writeSnapshot(dir, uint64(snap), []byte("state")); err != nil {
				t.Fatal(err)
			}
		}

		before := dirContents(t, dir)
		if _, err := ReadDir(dir); err != nil {
			t.Fatal(err)
		}
		if after := dirContents(t, dir); !maps.EqualFunc(before, after, bytes.Equal) {
			t.Fatalf("ReadDir changed the directory: %d files before, %d after", len(before), len(after))
		}

		opts := Options{SegmentBytes: 1024} // small enough that the appends rotate
		st, first, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		appends := uint64(n % 64)
		want := slices.Clone(first.Records)
		for i := 0; i < int(appends); i++ {
			r := NewTickRecord(sampleTick(i, 2))
			if err := st.Append(r); err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		orphaned := orphanCount(t, dir)

		st, second, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if !slices.EqualFunc(second.Records, want, func(a, b Record) bool { return a.Kind == b.Kind && bytes.Equal(a.Body, b.Body) }) {
			t.Fatalf("the second recovery holds %d records, want the first's %d plus %d appended", len(second.Records), len(first.Records), appends)
		}
		if second.LastSeq != first.LastSeq+appends || second.TornBytes != 0 {
			t.Fatalf("the second recovery ends at %d with %d torn bytes, want %d and 0", second.LastSeq, second.TornBytes, first.LastSeq+appends)
		}
		if got := orphanCount(t, dir); got != orphaned {
			t.Fatalf("the second recovery set aside %d segments", got-orphaned)
		}
	})
}

// dirContents maps each file in dir to its bytes.
func dirContents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// orphanCount counts the segments set aside in dir.
func orphanCount(t *testing.T, dir string) int {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.orphaned"))
	if err != nil {
		t.Fatal(err)
	}
	return len(names)
}

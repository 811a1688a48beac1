package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
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

// FuzzReadDir feeds arbitrary bytes to the journal's two readers as a data
// directory's only segment. Recovery (ReadDir) never panics; every record it
// accepts re-frames to the segment's bytes up to where it stopped, and what
// follows is reported torn; and a Tailer over the same file delivers exactly
// those frames, in that order — a differential check of the two readers —
// as does one opened after any of them, while one opened past the last gets
// ErrGap.
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
		// through seek's readFrameAt — delivers exactly the frames after it,
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

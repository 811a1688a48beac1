package store

// Recovery is the journal's second client, not a second reader: a Tailer
// reads the log from its oldest segment until it is caught up, and recovery
// keeps the records it delivers and judges the segments by where it stopped.

import (
	"fmt"
	"os"
	"slices"
)

// readDir recovers a data directory: the newest valid snapshot plus the
// journal tail after it. Damage never fails recovery — the log simply ends
// at the last valid record:
//
//   - a frame that ends mid-field (crash-torn tail) is dropped; with repair
//     set the segment file is truncated back to the last whole frame so the
//     garbage can never shadow future appends;
//   - a checksum mismatch, an unknown segment version or a hole in the
//     sequence ends the log there;
//   - segments beyond the end are not replayed (their records are
//     discontiguous); with repair set they are renamed aside with an
//     ".orphaned" suffix so the names stay free for the new writer;
//   - a log whose oldest segment starts beyond the snapshot's successor, or
//     which ends short of the snapshot, cannot continue it: the snapshot's
//     position is the log's head and every segment is set aside.
func readDir(dir string, repair bool) (*Recovered, error) {
	rec := &Recovered{}
	if seq, blob, ok := latestSnapshot(dir); ok {
		rec.SnapshotSeq = seq
		rec.Snapshot = blob
	}

	segs := segmentGlob(dir)
	keep := 0         // segs[:keep] hold the log; the rest are set aside
	var lastKind Kind // of the newest record read; 0 before any
	var t *Tailer
	if len(segs) > 0 {
		if first, ok := segmentFirstSeq(segs[0]); ok && (rec.SnapshotSeq == 0 || first <= rec.SnapshotSeq+1) {
			// A segment that will not open ends the log before it.
			t, _ = OpenTail(dir, first-1)
		}
	}
	if t != nil {
		for {
			// An error is damage the log ends at: the Tailer stays there.
			b, _ := t.Next(0)
			if b.Count == 0 {
				break
			}
			// The bodies alias the batch: one allocation holds them all.
			rec.Records, _ = appendRecords(slices.Grow(rec.Records, b.Count), b.Frames)
			lastKind = rec.Records[len(rec.Records)-1].Kind
			if b.FirstSeq <= rec.SnapshotSeq {
				// Records up to the snapshot's position are in its state
				// already, and so is every record read before them.
				rec.Records = slices.Delete(rec.Records, 0, int(min(rec.SnapshotSeq+1-b.FirstSeq, uint64(b.Count))))
			}
		}
		rec.LastSeq = t.Pos() - 1
		stop, found := slices.BinarySearch(segs, t.segPath)
		keep = stop
		if found && t.checked {
			// The log ends inside this segment; what follows its last
			// whole frame is torn.
			keep++
			if fi, err := t.f.Stat(); err == nil {
				rec.TornBytes = int(fi.Size() - t.off)
			}
		}
		t.Close()
	}
	if rec.LastSeq < rec.SnapshotSeq {
		// The records up to the snapshot were pruned or lost: nothing on
		// disk continues it.
		rec.LastSeq, keep, lastKind = rec.SnapshotSeq, 0, 0
	}
	rec.Sealed = lastKind == KindSeal

	if !repair {
		return rec, nil
	}
	if rec.TornBytes > 0 && keep > 0 {
		// The log ends in a kept segment: cut the garbage off so the next
		// writer's segments stay unambiguous.
		if err := os.Truncate(t.segPath, t.off); err != nil {
			return nil, fmt.Errorf("store: repair %s: %w", t.segPath, err)
		}
	}
	for _, path := range segs[keep:] {
		if err := os.Rename(path, path+".orphaned"); err != nil {
			return nil, fmt.Errorf("store: set aside %s: %w", path, err)
		}
	}
	return rec, nil
}

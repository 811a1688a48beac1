package store

import (
	"fmt"
	"os"
)

// readDir recovers a data directory: the newest valid snapshot plus the
// journal tail after it. Damage never fails recovery — the log simply ends
// at the last valid record:
//
//   - a frame that ends mid-field (crash-torn tail) is dropped; with repair
//     set the segment file is truncated back to the last whole frame so the
//     garbage can never shadow future appends;
//   - a checksum mismatch or an unknown segment version ends the log there;
//   - segments beyond a damaged or missing one are not replayed (their
//     records are discontiguous); with repair set they are renamed aside
//     with an ".orphaned" suffix so the names stay free for the new writer.
func readDir(dir string, repair bool) (*Recovered, error) {
	rec := &Recovered{}
	if seq, blob, ok := latestSnapshot(dir); ok {
		rec.SnapshotSeq = seq
		rec.Snapshot = blob
	}

	segs := segmentGlob(dir)
	seq := uint64(0) // sequence number of the last record consumed
	broken := -1     // index of the first unusable segment
	var lastKind Kind
	var sawRecord bool

scan:
	for i, path := range segs {
		firstSeq, ok := segmentFirstSeq(path)
		if !ok {
			broken = i
			break
		}
		if seq != 0 && firstSeq != seq+1 {
			// A hole in the sequence: everything from here on is
			// discontiguous with the log we have.
			broken = i
			break
		}
		if seq == 0 && rec.SnapshotSeq > 0 && firstSeq > rec.SnapshotSeq+1 {
			// The oldest surviving segment starts beyond the snapshot's
			// position: its records cannot be applied on top of the
			// snapshot. Keep the snapshot, set the tail aside.
			broken = i
			break
		}
		data, err := os.ReadFile(path)
		if err != nil {
			broken = i
			break
		}
		if !validHeader(data) {
			broken = i
			break
		}
		off := headerSize
		segSeq := firstSeq - 1
		for off < len(data) {
			r, n, err := decodeFrame(data[off:])
			if err != nil {
				// Torn tail or bit rot: the log ends at the last valid
				// record. Repair cuts the garbage off the file so the next
				// writer's segments stay unambiguous.
				rec.TornBytes += len(data) - off
				if repair {
					if truncErr := os.Truncate(path, int64(off)); truncErr != nil {
						return nil, fmt.Errorf("store: repair %s: %w", path, truncErr)
					}
				}
				if i+1 < len(segs) {
					broken = i + 1
				}
				seq = segSeq
				break scan
			}
			segSeq++
			sawRecord = true
			lastKind = r.Kind
			if segSeq > rec.SnapshotSeq {
				body := make([]byte, len(r.Body))
				copy(body, r.Body)
				rec.Records = append(rec.Records, Record{Kind: r.Kind, Body: body})
			}
			off += n
		}
		seq = segSeq
	}

	if broken >= 0 && repair {
		for _, path := range segs[broken:] {
			if err := os.Rename(path, path+".orphaned"); err != nil {
				return nil, fmt.Errorf("store: set aside %s: %w", path, err)
			}
		}
	}

	if seq < rec.SnapshotSeq {
		// The journal tail is older than the snapshot (its segments were
		// pruned); the snapshot's position is the log's true head.
		seq = rec.SnapshotSeq
	}
	rec.LastSeq = seq
	rec.Sealed = sawRecord && lastKind == KindSeal
	return rec, nil
}

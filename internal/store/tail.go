package store

// The tailing API turns a data directory into a replication log: a Tailer is
// a cursor over the journal's record frames, reading the raw on-disk bytes
// (CRC trailers included) so a replication sender can ship byte-exact frames
// without re-encoding, and a standby can verify them end to end. Tailing is
// poll-driven and read-only — the primary's writer never knows its journal is
// being followed — and sees exactly what the writer has flushed: a frame
// becomes visible at the primary's commit point, never earlier.
//
// A cursor positioned before the oldest surviving segment (its records were
// pruned away under a snapshot) gets ErrGap, the signal that the follower
// must bootstrap from a snapshot instead of replaying the log.
//
// The Tailer is the journal's one reader: recovery (recover.go) reads the
// log through one too, so where a follower's stream ends is where a
// recovery's log ends.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// ErrGap reports a tail cursor positioned at records the journal no longer
// holds (their segments were pruned under a snapshot). The follower must
// restart from a snapshot at or beyond the gap.
var ErrGap = errors.New("store: journal gap: records pruned under a snapshot")

// TailBatch is one contiguous run of journal frames read by a Tailer.
type TailBatch struct {
	// FirstSeq is the sequence number of the first record in Frames.
	FirstSeq uint64
	// Count is the number of whole record frames in Frames.
	Count int
	// Frames holds the records' raw on-disk frames (kind byte, length-prefixed
	// body, CRC32C trailer), back to back — exactly the bytes AppendFrames on
	// a replica journal accepts.
	Frames []byte
}

// LastSeq returns the sequence number of the batch's final record.
func (b TailBatch) LastSeq() uint64 { return b.FirstSeq + uint64(b.Count) - 1 }

// Tailer is a read-only cursor over a journal directory's record frames.
// It is not safe for concurrent use.
type Tailer struct {
	dir     string
	nextSeq uint64 // sequence number of the next record to deliver
	f       *os.File
	segPath string // path of the open segment
	segSeq  uint64 // first sequence number of the open segment
	off     int64  // read offset into the open segment
	checked bool   // the open segment's header is on disk and this version's
	buf     []byte
}

// OpenTail positions a cursor after afterSeq: the first record a Next call
// returns is afterSeq+1. afterSeq 0 starts at the journal's beginning. If the
// position's segment has been pruned away, OpenTail fails with ErrGap (wrapped
// with the oldest surviving sequence number, when any segment survives).
func OpenTail(dir string, afterSeq uint64) (*Tailer, error) {
	t := &Tailer{dir: dir, nextSeq: afterSeq + 1}
	if err := t.seek(); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// seek opens the segment holding nextSeq and reads up to it through the same
// loop Next reads with, bounded by the frames to skip: a cursor the journal
// does not reach — past its last whole frame, or beyond a segment whose
// header this version did not write, where recovery ends the log too — is
// ErrGap. A follower only ever holds a prefix of the log it follows, so that
// is divergence (or the wrong directory), not a position to guess around.
func (t *Tailer) seek() error {
	segs := segmentGlob(t.dir)
	if len(segs) == 0 {
		// An empty directory is a journal that has not started yet; the
		// cursor is valid only at the very beginning.
		if t.nextSeq == 1 {
			return nil
		}
		return fmt.Errorf("%w (no segments, cursor at %d)", ErrGap, t.nextSeq)
	}
	// Find the last segment whose first sequence number is <= nextSeq; its
	// frames cover the cursor unless the cursor runs past its end.
	target, first := "", uint64(0)
	for _, path := range segs {
		if seq, ok := segmentFirstSeq(path); ok && seq <= t.nextSeq {
			target, first = path, seq
		}
	}
	if target == "" {
		oldest, _ := segmentFirstSeq(segs[0])
		return fmt.Errorf("%w (cursor at %d, oldest surviving record %d)", ErrGap, t.nextSeq, oldest)
	}
	f, err := os.Open(target)
	if err != nil {
		return fmt.Errorf("store: open segment for tail: %w", err)
	}
	want := t.nextSeq
	t.f, t.segPath, t.segSeq, t.off, t.nextSeq = f, target, first, int64(headerSize), first
	for t.nextSeq < want {
		if _, count, _ := t.read(0, want-t.nextSeq); count == 0 {
			return fmt.Errorf("%w (cursor at %d, journal ends at %d)", ErrGap, want, t.nextSeq-1)
		}
	}
	return nil
}

// Next reads the next contiguous run of whole frames, up to maxBytes of frame
// data (0 means a 256 KiB default). A batch with Count 0 and a nil error
// means the cursor is caught up with the flushed journal; poll again later.
// ErrGap reports that the cursor's next record has been pruned away (the
// journal snapshotted and rotated past a slow follower); other errors report
// unreadable or corrupt segment data.
//
// The read path is batched: one window-sized ReadAt per call, frames sliced
// out of the buffer — the per-record cost is a decode, not a syscall, which
// is what lets the replication sender sustain hundreds of thousands of
// records per second off a live journal.
func (t *Tailer) Next(maxBytes int) (TailBatch, error) {
	if t.f == nil {
		// The journal had no segments at open time; look again.
		if err := t.seek(); err != nil {
			return TailBatch{}, err
		}
		if t.f == nil {
			return TailBatch{}, nil
		}
	}
	// A pruned-away segment stays readable through the open handle, but its
	// successors are gone with it: a cursor on one must report the gap, not
	// stream into a dead end.
	if _, err := os.Stat(t.segPath); err != nil {
		return TailBatch{}, fmt.Errorf("%w (segment %s pruned under cursor at %d)", ErrGap, filepath.Base(t.segPath), t.nextSeq)
	}
	first := t.nextSeq
	frames, count, err := t.read(maxBytes, math.MaxUint64)
	if count == 0 {
		return TailBatch{}, err
	}
	// Frames must not alias the reused read buffer.
	return TailBatch{FirstSeq: first, Count: count, Frames: append([]byte(nil), frames...)}, nil
}

// read advances the cursor over the next contiguous run of whole frames — up
// to maxBytes of them (0 means 256 KiB) and at most maxFrames — and returns
// them in the reused read buffer. No frames and a nil error means nothing
// whole is flushed past the cursor; an error reports the header or frame the
// log ends at.
func (t *Tailer) read(maxBytes int, maxFrames uint64) ([]byte, int, error) {
	if maxBytes <= 0 {
		maxBytes = 256 << 10
	}
	window := maxBytes
	for {
		if ok, err := t.checkHeader(); !ok {
			return nil, 0, err
		}
		if cap(t.buf) < window {
			t.buf = make([]byte, window)
		}
		n, rerr := t.f.ReadAt(t.buf[:window], t.off)
		if n == 0 {
			// End of this segment's flushed data. If the next segment
			// exists, the writer rotated: this segment is complete, move on.
			// (A mid-flush torn frame cannot be confused with rotation — the
			// writer syncs whole frames before opening the next segment.)
			if !t.advanceSegment() {
				return nil, 0, nil // caught up; poll again later
			}
			continue
		}
		data := t.buf[:n]
		consumed, count := 0, 0
		var derr error
		for consumed < n && consumed < maxBytes && uint64(count) < maxFrames {
			_, size, err := decodeFrame(data[consumed:])
			if err != nil {
				derr = err
				break
			}
			consumed += size
			count++
		}
		if count == 0 {
			if errors.Is(derr, ErrTruncated) {
				if rerr == nil && n == window {
					// A single frame larger than the window: widen and retry.
					window *= 2
					continue
				}
				// The file ends mid-frame: the writer's flush is in flight
				// (or this is a crash-torn tail) — nothing whole to deliver
				// yet.
				return nil, 0, nil
			}
			return nil, 0, fmt.Errorf("tailing segment at seq %d: %w", t.nextSeq, derr)
		}
		t.off += int64(consumed)
		t.nextSeq += uint64(count)
		return data[:consumed], count, nil
	}
}

// advanceSegment moves the cursor to the next segment, if the writer has
// opened one and it starts at nextSeq; one that starts anywhere else is a
// hole, where the log ends. It reports whether it advanced. A cursor at the
// start of the open segment is where the writer is: reopening that segment
// would spin until its first frame is flushed.
func (t *Tailer) advanceSegment() bool {
	if t.nextSeq == t.segSeq {
		return false
	}
	for _, path := range segmentGlob(t.dir) {
		first, ok := segmentFirstSeq(path)
		if !ok || first <= t.segSeq {
			continue
		}
		if first != t.nextSeq {
			return false
		}
		f, err := os.Open(path)
		if err != nil {
			return false
		}
		t.f.Close()
		t.f, t.segPath, t.segSeq, t.off, t.checked = f, path, first, int64(headerSize), false
		return true
	}
	return false
}

// checkHeader reads the open segment's header once the writer has flushed
// it: false and no error until then, an error for a header this version did
// not write — where recovery, too, ends the log.
func (t *Tailer) checkHeader() (bool, error) {
	if t.checked {
		return true, nil
	}
	var hdr [headerSize]byte
	if n, _ := t.f.ReadAt(hdr[:], 0); n < headerSize {
		return false, nil
	}
	if !validHeader(hdr[:]) {
		return false, fmt.Errorf("%w: segment %s has an unknown header", ErrCorrupt, filepath.Base(t.segPath))
	}
	t.checked = true
	return true, nil
}

// Pos returns the sequence number of the next record the cursor will deliver.
func (t *Tailer) Pos() uint64 { return t.nextSeq }

// Close releases the cursor's file handle.
func (t *Tailer) Close() {
	if t.f != nil {
		t.f.Close()
		t.f = nil
	}
}

// DecodeFrames splits a TailBatch's raw frame bytes back into records,
// verifying each frame's checksum. The record bodies alias frames.
func DecodeFrames(frames []byte) ([]Record, error) { return appendRecords(nil, frames) }

// appendRecords is DecodeFrames appending to dst.
func appendRecords(dst []Record, frames []byte) ([]Record, error) {
	for len(frames) > 0 {
		r, n, err := decodeFrame(frames)
		if err != nil {
			return nil, err
		}
		dst = append(dst, r)
		frames = frames[n:]
	}
	return dst, nil
}

// EncodeFrame appends one record's on-disk frame (kind, length-prefixed body,
// CRC32C trailer) to dst — the inverse of DecodeFrames, exported so tests and
// tools can synthesise streams.
func EncodeFrame(dst []byte, r Record) []byte { return appendFrame(dst, r) }

// LatestSnapshotData returns the newest snapshot that validates in a data
// directory — the blob a replication sender ships to bootstrap a follower
// that hit ErrGap.
func LatestSnapshotData(dir string) (seq uint64, blob []byte, ok bool) {
	return latestSnapshot(dir)
}

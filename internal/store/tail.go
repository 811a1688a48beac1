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

import (
	"errors"
	"fmt"
	"io"
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

// seek opens the segment holding nextSeq and advances the offset to it.
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
	target := -1
	for i, path := range segs {
		first, ok := segmentFirstSeq(path)
		if !ok {
			continue
		}
		if first <= t.nextSeq {
			target = i
		}
	}
	if target < 0 {
		oldest, _ := segmentFirstSeq(segs[0])
		return fmt.Errorf("%w (cursor at %d, oldest surviving record %d)", ErrGap, t.nextSeq, oldest)
	}
	first, _ := segmentFirstSeq(segs[target])
	f, err := os.Open(segs[target])
	if err != nil {
		return fmt.Errorf("store: open segment for tail: %w", err)
	}
	t.f, t.segPath, t.segSeq, t.off = f, segs[target], first, int64(headerSize)
	// Skip records below the cursor within the segment.
	seq := first - 1
	for seq+1 < t.nextSeq {
		if ok, _ := t.checkHeader(); ok {
			if _, size, err := t.readFrameAt(t.off); err == nil {
				t.off += int64(size)
				seq++
				continue
			}
		}
		// The cursor points past what the journal holds: past its last
		// whole frame, or into a segment whose header this version did not
		// write, where recovery ends the log too. A follower only ever holds
		// a prefix of the log it follows, so this is divergence (or the
		// wrong directory), not a position to guess around.
		return fmt.Errorf("%w (cursor at %d, journal ends at %d)", ErrGap, t.nextSeq, seq)
	}
	return nil
}

// readFrameAt decodes one whole frame at the given offset, returning its kind
// and encoded size. io.EOF means no whole frame is flushed there yet.
func (t *Tailer) readFrameAt(off int64) (Kind, int, error) {
	// Read a bounded window: enough for any frame the journal writes in one
	// piece (bodies are bounded by the segment size in practice; grow the
	// window until the frame is whole or the file ends).
	const window = 64 << 10
	size := window
	for {
		if cap(t.buf) < size {
			t.buf = make([]byte, size)
		}
		n, err := t.f.ReadAt(t.buf[:size], off)
		if n == 0 {
			return 0, 0, io.EOF
		}
		r, used, derr := decodeFrame(t.buf[:n])
		if derr == nil {
			return r.Kind, used, nil
		}
		if errors.Is(derr, ErrTruncated) {
			if err == nil && n == size {
				// The window may simply be smaller than the frame; widen it.
				size *= 2
				continue
			}
			// The file really ends mid-frame: either the writer's flush is in
			// flight or this is a crash-torn tail. Both mean "nothing more to
			// deliver yet".
			return 0, 0, io.EOF
		}
		return 0, 0, derr
	}
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
	if maxBytes <= 0 {
		maxBytes = 256 << 10
	}
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
	window := maxBytes
	for {
		if ok, err := t.checkHeader(); !ok {
			return TailBatch{}, err
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
				return TailBatch{}, nil // caught up; poll again later
			}
			continue
		}
		data := t.buf[:n]
		consumed, count := 0, 0
		var derr error
		for consumed < n && consumed < maxBytes {
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
				return TailBatch{}, nil
			}
			return TailBatch{}, fmt.Errorf("tailing segment at seq %d: %w", t.nextSeq, derr)
		}
		// Frames must not alias the reused read buffer.
		batch := TailBatch{
			FirstSeq: t.nextSeq,
			Count:    count,
			Frames:   append([]byte(nil), data[:consumed]...),
		}
		t.off += int64(consumed)
		t.nextSeq += uint64(count)
		return batch, nil
	}
}

// advanceSegment moves the cursor to the segment starting at nextSeq, if the
// writer has opened one. It reports whether it advanced. A cursor at the
// start of the open segment is where the writer is: reopening that segment
// would spin until its first frame is flushed.
func (t *Tailer) advanceSegment() bool {
	if t.nextSeq == t.segSeq {
		return false
	}
	for _, path := range segmentGlob(t.dir) {
		first, ok := segmentFirstSeq(path)
		if !ok || first != t.nextSeq {
			continue
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
func DecodeFrames(frames []byte) ([]Record, error) {
	var out []Record
	for len(frames) > 0 {
		r, n, err := decodeFrame(frames)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		frames = frames[n:]
	}
	return out, nil
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

package store

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Segment header: a 5-byte magic and a one-byte format version. A segment
// whose version byte is unknown ends the log there on recovery (forward
// compatibility without guessing at an unknown frame layout).
const (
	segMagic   = "LBWAL"
	segVersion = byte(1)
	headerSize = len(segMagic) + 1
)

// validHeader reports whether a segment file starts with the header this
// version writes; the Tailer, and so recovery, ends the log at a segment
// that does not.
func validHeader(data []byte) bool {
	return len(data) >= headerSize && string(data[:len(segMagic)]) == segMagic && data[len(segMagic)] == segVersion
}

// segmentName renders the file name of the segment whose first record has
// the given sequence number.
func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%016x.seg", firstSeq)
}

// segmentFirstSeq parses a segment file name back into its first sequence
// number; sequence numbers start at 1, so no segment's name is 0.
func segmentFirstSeq(path string) (uint64, bool) {
	name := filepath.Base(path)
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 16, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return v, true
}

// journalWriter appends record frames to the current segment through one
// buffered writer, rotating to a new segment file at the size threshold.
type journalWriter struct {
	dir     string
	opts    Options
	f       *os.File
	w       *bufio.Writer
	segPath string
	nextSeq uint64
	bytes   int64 // bytes appended to the current segment (including header)
	scratch []byte
	didRot  bool
}

// writerBufSize keeps a whole live tick's records (checkpoint plus a
// re-negotiation outcome) inside one flush, so a commit is one write
// syscall.
const writerBufSize = 256 << 10

// newJournalWriter starts a fresh segment whose first record will carry
// firstSeq. A zero-record leftover segment with the same name (a crash
// between segment creation and the first append) is simply overwritten.
func newJournalWriter(dir string, firstSeq uint64, opts Options) (*journalWriter, error) {
	jw := &journalWriter{dir: dir, opts: opts, nextSeq: firstSeq}
	if err := jw.openSegment(); err != nil {
		return nil, err
	}
	return jw, nil
}

// openSegment creates the segment file for nextSeq and writes its header.
// The directory entry is fsynced too: a machine crash after rotation must
// not lose the new segment's existence.
func (jw *journalWriter) openSegment() error {
	path := filepath.Join(jw.dir, segmentName(jw.nextSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	if err := syncDir(jw.dir); err != nil {
		f.Close()
		return err
	}
	jw.f = f
	jw.segPath = path
	jw.w = bufio.NewWriterSize(f, writerBufSize)
	if _, err := jw.w.WriteString(segMagic); err != nil {
		return err
	}
	if err := jw.w.WriteByte(segVersion); err != nil {
		return err
	}
	jw.bytes = int64(headerSize)
	return nil
}

// path returns the current segment's file path.
func (jw *journalWriter) path() string { return jw.segPath }

// append encodes one record into the segment, rotating first if the current
// segment is full. It returns the frame size. rotated() reports whether this
// append rotated, so the store can count it.
func (jw *journalWriter) append(r Record) (int, error) {
	jw.didRot = false
	if jw.bytes >= jw.opts.SegmentBytes {
		if err := jw.rotate(); err != nil {
			return 0, err
		}
		jw.didRot = true
	}
	jw.scratch = appendFrame(jw.scratch[:0], r)
	if _, err := jw.w.Write(jw.scratch); err != nil {
		return 0, fmt.Errorf("store: append: %w", err)
	}
	jw.bytes += int64(len(jw.scratch))
	jw.nextSeq++
	return len(jw.scratch), nil
}

// appendRaw writes one already-encoded frame (checksum verified by the
// caller) into the segment, rotating first if the current segment is full —
// the replica path, which persists a primary's frames byte-exactly.
func (jw *journalWriter) appendRaw(frame []byte) error {
	jw.didRot = false
	if jw.bytes >= jw.opts.SegmentBytes {
		if err := jw.rotate(); err != nil {
			return err
		}
		jw.didRot = true
	}
	if _, err := jw.w.Write(frame); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	jw.bytes += int64(len(frame))
	jw.nextSeq++
	return nil
}

// rotated reports whether the last append opened a new segment.
func (jw *journalWriter) rotated() bool { return jw.didRot }

// rotate seals the current segment (flush + fsync + close) and opens the
// next one.
func (jw *journalWriter) rotate() error {
	if err := jw.sync(); err != nil {
		return err
	}
	if err := jw.f.Close(); err != nil {
		return fmt.Errorf("store: close segment: %w", err)
	}
	return jw.openSegment()
}

// flush pushes the buffer to the file in (at most) one write.
func (jw *journalWriter) flush() error {
	if err := jw.w.Flush(); err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	return nil
}

// sync flushes and fsyncs the segment.
func (jw *journalWriter) sync() error {
	if err := jw.flush(); err != nil {
		return err
	}
	if err := jw.f.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	return nil
}

// close flushes and closes the segment file without fsync (callers sync
// first when they need durability).
func (jw *journalWriter) close() error {
	if err := jw.flush(); err != nil {
		return err
	}
	return jw.f.Close()
}

// syncDir fsyncs a directory so renames and file creations inside it are
// durable against machine crash, not just process crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: fsync dir: %w", err)
	}
	return nil
}

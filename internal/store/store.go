// Package store is the grid's durability subsystem: an append-only
// write-ahead journal of binary record frames plus periodic snapshots, laid
// out in one data directory so a crashed process recovers by loading the
// latest snapshot and replaying the journal tail.
//
// The journal is a sequence of segment files (`wal-<firstseq>.seg`), each a
// short versioned header followed by record frames — a kind byte, a
// uvarint-length-prefixed body reusing the message package's binary codec,
// and a CRC32C trailer. Appends go through one buffered writer; a commit
// point flushes the buffer in a single write, so the records of one decision
// land on disk together. Segments rotate at a size threshold; snapshots
// (`snap-<seq>.snp`) capture the full application state at a journal
// position, after which older segments and snapshots are pruned.
//
// Recovery never panics on a damaged directory: a truncated tail frame (the
// signature of a crash mid-append) is cut off, a checksum mismatch or an
// unknown segment version ends the log at the last valid record, and any
// segments beyond a damaged one are set aside rather than replayed out of
// order.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"loadbalance/internal/trace"
)

// appendHist samples the journal append latency (1 in 64 appends, so the
// hot path pays two clock reads only on sampled iterations) into the
// store_append_seconds histogram on /metrics.
var appendHist = trace.GetHistogram("store_append_seconds")

// appendSampleMask selects which appends are timed: Appends&mask == 0.
const appendSampleMask = 63

// Errors reported by the package.
var (
	ErrBadConfig = errors.New("store: invalid configuration")
	ErrTruncated = errors.New("store: truncated record")
	ErrCorrupt   = errors.New("store: corrupt record")
	ErrSealed    = errors.New("store: journal sealed")
)

// Options parameterises a store.
type Options struct {
	// SegmentBytes rotates the journal to a new segment file once the
	// current one exceeds this size (default 64 MiB).
	SegmentBytes int64
	// SyncEvery fsyncs the journal after this many appended records; 0
	// syncs only at explicit Sync/Seal/Snapshot/Close points, which is the
	// live loop's policy (a process crash loses nothing that was flushed,
	// and machine-crash durability is bounded by the snapshot cadence).
	SyncEvery int
	// KeepSnapshots is how many snapshots survive pruning (default 2: the
	// latest plus one fallback should the latest turn out damaged).
	KeepSnapshots int
}

// withDefaults fills the option defaults.
func (o Options) withDefaults() (Options, error) {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SegmentBytes < 1024 {
		return o, fmt.Errorf("%w: segment size %d", ErrBadConfig, o.SegmentBytes)
	}
	if o.SyncEvery < 0 {
		return o, fmt.Errorf("%w: sync every %d", ErrBadConfig, o.SyncEvery)
	}
	if o.KeepSnapshots <= 0 {
		o.KeepSnapshots = 2
	}
	return o, nil
}

// Stats is a snapshot of the store's counters, exported at /metrics as the
// store_* series.
type Stats struct {
	Appends      uint64 // records appended
	Commits      uint64 // explicit buffer flushes
	Fsyncs       uint64 // fsync calls on the journal
	Rotations    uint64 // segment rotations
	Snapshots    uint64 // snapshots written this process
	BytesWritten uint64 // journal bytes appended
	LastSeq      uint64 // sequence number of the newest record
	SnapshotSeq  uint64 // journal position of the newest snapshot
	SnapshotTime time.Time
	LastAppend   time.Time // wall time of the newest committed append (zero until the first commit)
	Replayed     int       // records replayed during Open
	Recovered    bool      // Open found prior state
	CleanStart   bool      // prior state ended with a seal record
	TornBytes    int       // bytes cut from the crash-torn tail during Open
}

// Store is one data directory: the live journal plus its snapshots.
type Store struct {
	mu   sync.Mutex
	dir  string
	opts Options
	jw   *journalWriter

	tickBuf          []byte // reused body scratch for AppendTick
	appendsSinceSync int
	appendPending    bool // appends buffered since the last commit point
	stats            Stats
	sealed           bool
	closed           bool
}

// Recovered is what Open found on disk: the newest valid snapshot (if any)
// and the journal records after it, in append order.
type Recovered struct {
	// SnapshotSeq is the journal position of the snapshot (0 = none).
	SnapshotSeq uint64
	// Snapshot is the application state blob at SnapshotSeq.
	Snapshot []byte
	// Records is the journal tail after the snapshot, oldest first.
	Records []Record
	// LastSeq is the newest record's sequence number.
	LastSeq uint64
	// Sealed reports a clean shutdown (the tail ends with a seal record).
	Sealed bool
	// TornBytes counts bytes dropped from a crash-torn tail.
	TornBytes int
}

// Empty reports whether the directory held no usable state.
func (r *Recovered) Empty() bool {
	return r == nil || (r.SnapshotSeq == 0 && len(r.Snapshot) == 0 && len(r.Records) == 0)
}

// Session returns the latest decodable session record for id; what an
// earlier run under other parameters left is for the caller to judge
// (SessionOutcome.Config).
func (r *Recovered) Session(id string) (SessionOutcome, bool) {
	for i := len(r.Records) - 1; i >= 0; i-- {
		if r.Records[i].Kind != KindSession {
			continue
		}
		if o, err := DecodeSession(r.Records[i]); err == nil && o.SessionID == id {
			return o, true
		}
	}
	return SessionOutcome{}, false
}

// Open opens (creating if necessary) a data directory, recovers whatever
// valid state it holds and prepares a fresh journal segment for appending.
// The returned Recovered is never nil.
func Open(dir string, opts Options) (*Store, *Recovered, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: data dir: %w", err)
	}
	rec, err := readDir(dir, true)
	if err != nil {
		return nil, nil, err
	}
	jw, err := newJournalWriter(dir, rec.LastSeq+1, opts)
	if err != nil {
		return nil, nil, err
	}
	s := &Store{dir: dir, opts: opts, jw: jw}
	s.stats.LastSeq = rec.LastSeq
	s.stats.SnapshotSeq = rec.SnapshotSeq
	s.stats.Replayed = len(rec.Records)
	s.stats.Recovered = !rec.Empty()
	s.stats.CleanStart = rec.Sealed
	s.stats.TornBytes = rec.TornBytes
	if rec.SnapshotSeq > 0 {
		if t, ok := snapshotTime(dir, rec.SnapshotSeq); ok {
			s.stats.SnapshotTime = t
		}
	}
	return s, rec, nil
}

// ReadDir recovers a data directory read-only: no repair, no new segment —
// the form used by tools and tests inspecting a journal another process owns.
func ReadDir(dir string) (*Recovered, error) {
	return readDir(dir, false)
}

// Dir returns the data directory path.
func (s *Store) Dir() string { return s.dir }

// Append appends one record to the journal buffer. The record is durable
// against process crash once Commit returns, and against machine crash once
// Sync returns.
func (s *Store) Append(r Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(r)
}

// AppendSession appends a session's terminal record and syncs it: the one
// place a session record is made. A session whose outcome is not on disk
// when this returns must not be reported as negotiated.
func (s *Store) AppendSession(o SessionOutcome) error {
	rec, err := newJSONRecord(KindSession, o)
	if err == nil {
		err = s.Append(rec)
	}
	if err == nil {
		err = s.Sync()
	}
	return err
}

// AppendTick appends one meter-batch checkpoint through a reused encoding
// buffer — the journal's hot path, allocation-free once warm.
func (s *Store) AppendTick(cp TickCheckpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tickBuf = AppendTickBody(s.tickBuf[:0], cp)
	return s.appendLocked(Record{Kind: KindTick, Body: s.tickBuf})
}

// AppendBatch appends several records as one commit unit: they are encoded
// back to back and handed to the writer together, then the buffer is
// flushed, so all of them reach the file in one write.
func (s *Store) AppendBatch(recs ...Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range recs {
		if err := s.appendLocked(r); err != nil {
			return err
		}
	}
	return s.commitLocked()
}

// appendLocked encodes and buffers one record.
func (s *Store) appendLocked(r Record) error {
	if s.closed {
		return fmt.Errorf("store: append on closed store")
	}
	if s.sealed {
		return ErrSealed
	}
	var t0 time.Time
	sampled := s.stats.Appends&appendSampleMask == 0
	if sampled {
		t0 = time.Now()
	}
	n, err := s.jw.append(r)
	if err != nil {
		return err
	}
	if sampled {
		appendHist.Observe(time.Since(t0))
	}
	s.appendPending = true
	s.stats.Appends++
	s.stats.BytesWritten += uint64(n)
	s.stats.LastSeq++
	if s.jw.rotated() {
		s.stats.Rotations++
		s.stats.Fsyncs++
	}
	if s.opts.SyncEvery > 0 {
		s.appendsSinceSync++
		if s.appendsSinceSync >= s.opts.SyncEvery {
			return s.syncLocked()
		}
	}
	return nil
}

// AppendFrames applies a contiguous run of already-encoded record frames
// (a replication TailBatch's payload) to the journal: every frame's checksum
// is verified, the run must start exactly one past the journal's newest
// record, and the raw bytes are persisted unchanged, so a replica's journal
// holds byte-identical frames to its primary's. The run is flushed as one
// commit unit. It returns the decoded records it applied (their bodies alias
// frames — the one decode pass serves persistence and replay both) and
// whether the run ended with a seal record (the primary shut down cleanly;
// the replica's journal is sealed too and refuses further appends).
func (s *Store) AppendFrames(firstSeq uint64, frames []byte) (recs []Record, sealed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, fmt.Errorf("store: append on closed store")
	}
	if s.sealed {
		return nil, false, ErrSealed
	}
	if firstSeq != s.stats.LastSeq+1 {
		return nil, false, fmt.Errorf("%w: frames start at %d, journal ends at %d", ErrCorrupt, firstSeq, s.stats.LastSeq)
	}
	for len(frames) > 0 {
		r, size, err := decodeFrame(frames)
		if err != nil {
			return recs, false, fmt.Errorf("store: replicated frame %d: %w", firstSeq+uint64(len(recs)), err)
		}
		if err := s.jw.appendRaw(frames[:size]); err != nil {
			return recs, false, err
		}
		s.stats.Appends++
		s.stats.BytesWritten += uint64(size)
		s.stats.LastSeq++
		if s.jw.rotated() {
			s.stats.Rotations++
			s.stats.Fsyncs++
		}
		recs = append(recs, r)
		if r.Kind == KindSeal {
			sealed = true
		}
		frames = frames[size:]
	}
	if sealed {
		s.sealed = true
		return recs, true, s.syncLocked()
	}
	return recs, false, s.commitLocked()
}

// InstallSnapshot bootstraps an empty store from a snapshot shipped by a
// remote primary: the blob is published at journal position seq and the
// journal restarts at seq+1, exactly as if this directory had written the
// snapshot itself and pruned everything under it. It refuses to run on a
// store that already holds records or prior state — a follower that has
// anything must catch up through AppendFrames, never skip ahead.
func (s *Store) InstallSnapshot(seq uint64, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: snapshot on closed store")
	}
	if s.sealed {
		return ErrSealed
	}
	if s.stats.LastSeq != 0 || s.stats.Recovered || s.stats.Appends > 0 {
		return fmt.Errorf("%w: snapshot install on a non-empty store (last seq %d)", ErrBadConfig, s.stats.LastSeq)
	}
	if seq == 0 {
		return fmt.Errorf("%w: snapshot at position 0", ErrBadConfig)
	}
	if err := writeSnapshot(s.dir, seq, blob); err != nil {
		return err
	}
	// Restart the journal at seq+1: retire the empty opening segment (its
	// name claims sequence 1, which this journal will never hold) and open
	// the segment the next replicated frame belongs in.
	oldPath := s.jw.path()
	if err := s.jw.close(); err != nil {
		return err
	}
	_ = os.Remove(oldPath)
	jw, err := newJournalWriter(s.dir, seq+1, s.opts)
	if err != nil {
		return err
	}
	s.jw = jw
	s.stats.Snapshots++
	s.stats.LastSeq = seq
	s.stats.SnapshotSeq = seq
	s.stats.SnapshotTime = time.Now()
	return nil
}

// Commit flushes the append buffer to the journal file: everything appended
// so far survives a process crash.
func (s *Store) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitLocked()
}

func (s *Store) commitLocked() error {
	if s.closed {
		return nil
	}
	if err := s.jw.flush(); err != nil {
		return err
	}
	s.stats.Commits++
	if s.appendPending {
		s.stats.LastAppend = time.Now()
		s.appendPending = false
	}
	return nil
}

// Sync flushes and fsyncs the journal: everything appended so far survives a
// machine crash.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if s.closed {
		return nil
	}
	if err := s.jw.sync(); err != nil {
		return err
	}
	s.stats.Commits++
	s.stats.Fsyncs++
	s.appendsSinceSync = 0
	if s.appendPending {
		s.stats.LastAppend = time.Now()
		s.appendPending = false
	}
	return nil
}

// Snapshot records the full application state at the journal's current
// position, fsyncing the journal first so the snapshot never claims state
// the log has not made durable, then prunes superseded snapshots and
// segments.
func (s *Store) Snapshot(blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: snapshot on closed store")
	}
	if err := s.syncLocked(); err != nil {
		return err
	}
	seq := s.stats.LastSeq
	if err := writeSnapshot(s.dir, seq, blob); err != nil {
		return err
	}
	s.stats.Snapshots++
	s.stats.SnapshotSeq = seq
	s.stats.SnapshotTime = time.Now()
	s.pruneLocked()
	return nil
}

// pruneLocked removes snapshots beyond the keep count and journal segments
// every record of which is covered by the oldest kept snapshot.
func (s *Store) pruneLocked() {
	oldestKept := pruneSnapshots(s.dir, s.opts.KeepSnapshots)
	pruneSegments(s.dir, oldestKept, s.jw.path())
}

// Seal appends the clean-shutdown marker and makes it durable. Further
// appends fail with ErrSealed.
func (s *Store) Seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed || s.closed {
		return nil
	}
	if err := s.appendLocked(sealRecord()); err != nil {
		return err
	}
	s.sealed = true
	return s.syncLocked()
}

// Close flushes, fsyncs and closes the journal without sealing it (a
// non-sealed close is indistinguishable from a crash to the next Open, which
// is exactly what crash tests rely on).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.syncLocked()
	s.closed = true
	if cerr := s.jw.close(); err == nil {
		err = cerr
	}
	return err
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// segmentGlob lists the journal segments in the directory, sorted by name
// (which sorts by first sequence number: the names zero-pad to 16 hex
// digits).
func segmentGlob(dir string) []string {
	names, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	return names
}

package telemetry

// Standby replay mode: a hot standby holds a LiveEngine that never meters and
// never negotiates — it is fed journal records replicated from a primary and
// replays each one through the same code paths crash recovery uses, so its
// in-memory grid state tracks the primary at most one batch behind. Promotion
// turns it into the primary: the divergence point is sealed into the local
// journal and the telemetry stream opens — a meter's reading is a function of
// its seed, the tick and the standing bid, so from there the engine ticks
// exactly as an uninterrupted run would have.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"loadbalance/internal/store"
)

// ErrSealedStream reports a promotion attempt over a stream that ended with
// the primary's clean-shutdown seal: there is no failure to fail over from.
var ErrSealedStream = errors.New("telemetry: replicated stream is sealed")

// StandbyEngine is a live engine in replay-only mode. Its methods are safe
// for concurrent use (the replication receiver applies records while HTTP
// handlers read the replica state).
type StandbyEngine struct {
	mu         sync.Mutex
	e          *LiveEngine
	st         *store.Store
	negotiated bool
	sealed     bool
	promoted   bool

	// Promotion freezes the replica view: after Promote, the LiveEngine
	// belongs to its tick loop and is mutated without this mutex, so reads
	// through the StandbyEngine answer from these promotion-moment copies
	// instead of touching the engine.
	finalProfile GridProfile
	finalSnap    Snapshot
}

// OpenStandby builds a standby engine over a local data directory: prior
// local state (a standby restarting) is recovered exactly like OpenDurable
// does, but the engine neither negotiates nor opens telemetry — it waits for
// replicated records. The configuration must match the primary's: replay
// validates it against the replicated scenario registration.
func OpenStandby(cfg LiveConfig, dcfg DurableConfig) (*StandbyEngine, *RecoveryInfo, error) {
	e, info, negotiated, err := openReplayed(cfg, dcfg)
	if err != nil {
		return nil, nil, err
	}
	s := &StandbyEngine{e: e, st: e.st, negotiated: negotiated, sealed: info.CleanStart}
	info.ResumeTick = e.tick
	info.stopClock()
	return s, info, nil
}

// LastSeq returns the standby journal's newest sequence number — the position
// a (re)subscription resumes from.
func (s *StandbyEngine) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Stats().LastSeq
}

// Tick returns the next tick the replica state expects.
func (s *StandbyEngine) Tick() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.tick
}

// Sealed reports whether the replicated stream ended with the primary's
// clean-shutdown seal.
func (s *StandbyEngine) Sealed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sealed
}

// ApplySnapshot bootstraps an empty standby from the primary's shipped
// snapshot: the blob is installed in the local journal at the primary's
// position and restored into the engine.
func (s *StandbyEngine) ApplySnapshot(seq uint64, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return fmt.Errorf("%w: apply on a promoted standby", ErrBadConfig)
	}
	if err := s.st.InstallSnapshot(seq, blob); err != nil {
		return err
	}
	negotiated, err := s.e.applySnapshotState(blob)
	if err != nil {
		return err
	}
	s.negotiated = s.negotiated || negotiated
	return nil
}

// ApplyFrames persists one replicated frame run into the local journal
// (checksums verified, bytes unchanged) and replays each record into the
// replica state. It returns the number of records applied and whether the
// run carried the primary's clean-shutdown seal. An error after a non-zero
// count means the journal holds records the engine could not replay — the
// replica is broken and must not continue following.
func (s *StandbyEngine) ApplyFrames(firstSeq uint64, frames []byte) (n int, sealed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return 0, false, fmt.Errorf("%w: apply on a promoted standby", ErrBadConfig)
	}
	// Persist first: the journal is the source of truth, and a record the
	// engine has seen but the journal has not would be lost to a standby
	// restart. The one decode pass inside AppendFrames serves replay too.
	recs, sealed, err := s.st.AppendFrames(firstSeq, frames)
	n = len(recs)
	if err != nil {
		return n, sealed, err
	}
	for _, r := range recs {
		negotiated, err := s.e.applyJournalRecord(r)
		if err != nil {
			return n, sealed, err
		}
		s.negotiated = s.negotiated || negotiated
	}
	s.sealed = s.sealed || sealed
	return n, sealed, nil
}

// PromotionInfo reports a completed promotion.
type PromotionInfo struct {
	// FromSeq is the last replicated journal position — the divergence point.
	FromSeq uint64
	// ResumeTick is the tick the promoted engine continues from.
	ResumeTick int
	// Elapsed is the promotion latency (seal + telemetry open).
	Elapsed time.Duration
}

// Promote turns the standby into the primary: the divergence point is sealed
// into the local journal with a promote record and the telemetry stream
// opens. A standby promoted before any negotiated outcome was replicated (the
// primary died during or before its initial negotiation) starts the run
// fresh — negotiation is deterministic, so it commits the exact outcome the
// primary would have journaled. The returned LiveEngine owns the journal and
// the run from here; the StandbyEngine must not be used again (further
// applies fail). Promoting a standby whose stream ended with the primary's
// seal is refused — a cleanly shut-down grid has nothing to fail over from.
func (s *StandbyEngine) Promote(replica, reason string) (*LiveEngine, *PromotionInfo, error) {
	start := time.Now() //gridlint:allow walltime(promotion latency measurement for PromotionInfo.Elapsed; replayed state comes from the journal)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return nil, nil, fmt.Errorf("%w: standby already promoted", ErrBadConfig)
	}
	if s.sealed {
		return nil, nil, fmt.Errorf("%w: primary shut down cleanly; nothing to promote over", ErrSealedStream)
	}
	fromSeq := s.st.Stats().LastSeq
	if !s.negotiated && fromSeq == 0 {
		// Nothing replicated at all: this journal opens like a fresh
		// primary's, registering the run before the promote record.
		if err := s.e.journalRegistration(); err != nil {
			return nil, nil, err
		}
	}
	rec, err := store.NewPromoteRecord(store.PromoteInfo{Replica: replica, FromSeq: fromSeq, Reason: reason})
	if err != nil {
		return nil, nil, err
	}
	if err := s.st.Append(rec); err != nil {
		return nil, nil, err
	}
	if err := s.st.Sync(); err != nil {
		return nil, nil, err
	}
	if s.negotiated {
		s.e.openTelemetry()
	} else if err := s.e.Start(); err != nil {
		// The primary never committed an outcome; negotiate it ourselves
		// (Start journals the session and opens telemetry).
		return nil, nil, err
	}
	// Freeze the replica view before the tick loop takes the engine over:
	// a handler that raced the role swap still gets a coherent
	// promotion-moment answer.
	s.finalProfile = s.e.Profile()
	s.finalSnap = s.e.Snapshot()
	s.promoted = true
	return s.e, &PromotionInfo{
		FromSeq:    fromSeq,
		ResumeTick: s.e.tick,
		Elapsed:    time.Since(start), //gridlint:allow walltime(promotion latency measurement for PromotionInfo.Elapsed; replayed state comes from the journal)
	}, nil
}

// Profile captures the replica's canonical observable outcome — what a read
// replica serves at /awards. After promotion it answers with the frozen
// promotion-moment profile (the live engine now belongs to its tick loop).
func (s *StandbyEngine) Profile() GridProfile {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return s.finalProfile
	}
	return s.e.Profile()
}

// ReplicaSnapshot captures the replica's observable state for health
// endpoints; after promotion, the frozen promotion-moment snapshot.
func (s *StandbyEngine) ReplicaSnapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return s.finalSnap
	}
	return s.e.Snapshot()
}

// StoreStats exposes the standby journal's counters.
func (s *StandbyEngine) StoreStats() store.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Stats()
}

// Close releases the standby without promoting: the journal is flushed and
// closed exactly as replicated (indistinguishable from a standby crash). A
// promoted standby's resources belong to the returned LiveEngine; Close is a
// no-op then.
func (s *StandbyEngine) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return nil
	}
	err := s.st.Close()
	s.e.Stop()
	return err
}

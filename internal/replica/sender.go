// Package replica is the grid head's hot-standby replication subsystem: a
// primary gridd streams its write-ahead journal (internal/store) to standbys
// over the binary wire protocol (internal/bus), each standby replays the
// records through the same recovery paths crash recovery uses
// (internal/telemetry), and on primary loss a deterministic lowest-id-wins
// promotion turns one standby into the new primary without discarding a
// single committed negotiation outcome.
//
// The stream ships the journal's raw on-disk frames, CRC trailers included,
// so a standby verifies the primary's bytes end to end and persists them
// unchanged: a replica journal is byte-identical to the primary's record
// stream. A standby that subscribes below the primary's pruned journal head
// is bootstrapped with the latest snapshot, then tailed from there.
package replica

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"loadbalance/internal/agent"
	"loadbalance/internal/bus"
	"loadbalance/internal/message"
	"loadbalance/internal/store"
	"loadbalance/internal/trace"
)

// shipHist measures one batch's read-and-ship latency on the primary (the
// replica_ship_seconds series on /metrics).
var shipHist = trace.GetHistogram("replica_ship_seconds")

// Errors reported by the package.
var (
	ErrBadConfig = errors.New("replica: invalid configuration")
	ErrClosed    = errors.New("replica: closed")
)

// senderName is the replication agent's name on the primary's stream bus.
const senderName = "repl"

// maxFrame bounds one replication wire frame at both ends — the sender's
// server and the receiver's client — and must fit a snapshot bootstrap.
const maxFrame = 64 << 20

// Stream flow control: batchBytes caps one batch's raw frame bytes, and
// windowRecords bounds how far a streamer runs ahead of a standby's acks
// before pausing, which keeps the per-connection outbound queue from
// shedding replication frames.
const (
	batchBytes    = 256 << 10
	windowRecords = 65536
)

// SenderConfig parameterises a primary's replication sender.
type SenderConfig struct {
	// Dir is the primary's data directory — the journal being streamed.
	Dir string
	// Addr is the TCP listen address standbys dial.
	Addr string
	// Heartbeat is the idle-stream liveness cadence (default 500ms).
	Heartbeat time.Duration
	// Poll is the journal tail poll interval (default 15ms) — the upper
	// bound replication adds to a standby's staleness beyond batch size.
	Poll time.Duration
}

// withDefaults fills unset fields.
func (c SenderConfig) withDefaults() (SenderConfig, error) {
	if c.Dir == "" {
		return c, fmt.Errorf("%w: sender needs a data directory", ErrBadConfig)
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 500 * time.Millisecond
	}
	if c.Poll <= 0 {
		c.Poll = 15 * time.Millisecond
	}
	return c, nil
}

// StandbyStatus is one subscribed standby's view from the primary.
type StandbyStatus struct {
	ID         string    `json:"id"`
	ShippedSeq uint64    `json:"shippedSeq"`
	AckedSeq   uint64    `json:"ackedSeq"`
	LagRecords uint64    `json:"lagRecords"` // shipped - acked
	LastAck    time.Time `json:"lastAck"`
	Snapshots  uint64    `json:"snapshots"` // bootstrap snapshots shipped
}

// SenderStatus is the primary-side replication state.
type SenderStatus struct {
	Addr      string          `json:"addr"`
	Standbys  []StandbyStatus `json:"standbys"`
	Batches   uint64          `json:"batches"`
	Records   uint64          `json:"records"`
	Bytes     uint64          `json:"bytes"`
	Snapshots uint64          `json:"snapshots"`
	Resyncs   uint64          `json:"resyncs"` // re-subscriptions served
}

// sub is one standby's streaming state.
type sub struct {
	id       string
	stop     chan struct{}
	stopOnce sync.Once
	stopped  chan struct{}

	mu         sync.Mutex
	shippedSeq uint64
	ackedSeq   uint64
	lastAck    time.Time
	snapshots  uint64
}

// halt asks the streamer to stop (idempotent).
func (sb *sub) halt() { sb.stopOnce.Do(func() { close(sb.stop) }) }

// Sender streams a journal directory to subscribed standbys. One Sender
// serves any number of standbys, each on its own TCP connection and cursor.
type Sender struct {
	cfg   SenderConfig
	inner *bus.InProc
	srv   *bus.Server
	rt    *agent.Runtime // the control handler, hosted on inner

	mu      sync.Mutex
	subs    map[string]*sub
	changed chan struct{} // closed at the next ack or streamer exit; nil while no WaitDrain awaits one
	closed  bool

	statBatches, statRecords, statBytes, statSnapshots, statResyncs uint64
}

// StartSender listens on cfg.Addr and serves the replication stream from
// cfg.Dir. Callers must Close it.
func StartSender(cfg SenderConfig) (*Sender, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Sender{cfg: cfg, subs: make(map[string]*sub)}
	if s.inner, err = bus.NewInProc(bus.Config{}); err != nil {
		return nil, err
	}
	if s.rt, err = agent.Start(senderName, s.inner, agent.HandlerFuncs{Message: s.control}, 1024); err != nil {
		return nil, err
	}
	if s.srv, err = bus.ListenAndServeConfig(cfg.Addr, s.inner, bus.ServerConfig{MaxFrame: maxFrame}); err != nil {
		s.rt.Stop()
		return nil, err
	}
	return s, nil
}

// Addr returns the sender's bound listen address.
func (s *Sender) Addr() string { return s.srv.Addr() }

// control handles one subscribe or ack message from a standby; anything else,
// an undecodable envelope included, is skipped.
func (s *Sender) control(_ *agent.Runtime, env message.Envelope) error {
	p, _ := env.Decode()
	switch m := p.(type) {
	case message.ReplSubscribe:
		s.subscribe(env.From, m)
	case message.ReplAck:
		s.ack(env.From, m)
	}
	return nil
}

// subscribe starts (or restarts) the streamer for one standby.
func (s *Sender) subscribe(conn string, m message.ReplSubscribe) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if old, ok := s.subs[conn]; ok {
		// A re-subscription replaces the cursor: the old streamer stops, and
		// leaves subs, first, so two never interleave frames to one standby.
		old.halt()
		s.mu.Unlock()
		<-old.stopped
		s.mu.Lock()
		s.statResyncs++
	}
	sb := &sub{id: m.Replica, stop: make(chan struct{}), stopped: make(chan struct{}),
		shippedSeq: m.FromSeq, ackedSeq: m.FromSeq, lastAck: time.Now()}
	s.subs[conn] = sb
	s.mu.Unlock()
	go s.stream(conn, sb, m.FromSeq)
}

// ack records a standby's applied position.
func (s *Sender) ack(conn string, m message.ReplAck) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sb := s.subs[conn]
	if sb == nil {
		return
	}
	sb.mu.Lock()
	if m.AppliedSeq > sb.ackedSeq {
		sb.ackedSeq = m.AppliedSeq
	}
	sb.lastAck = time.Now()
	sb.mu.Unlock()
	s.changedLocked()
}

// changedLocked wakes WaitDrain. The caller holds s.mu.
func (s *Sender) changedLocked() {
	if s.changed != nil {
		close(s.changed)
		s.changed = nil
	}
}

// send ships one payload to a standby's connection. A delivery error means
// the connection (or its bridged mailbox) is gone; the streamer unwinds and
// the standby re-subscribes on its next connection.
func (s *Sender) send(conn string, p message.Payload) error {
	env, err := message.NewEnvelope(senderName, conn, "replication", p)
	if err != nil {
		return err
	}
	return s.inner.Send(env)
}

// stream is one standby's streamer goroutine: cursor open (with snapshot
// bootstrap on a gap), then poll-tail-ship until the connection dies or the
// sender closes.
func (s *Sender) stream(conn string, sb *sub, fromSeq uint64) {
	defer close(sb.stopped)
	defer func() {
		s.mu.Lock()
		if s.subs[conn] == sb {
			delete(s.subs, conn)
			s.changedLocked()
		}
		s.mu.Unlock()
	}()

	tl, err := store.OpenTail(s.cfg.Dir, fromSeq)
	if errors.Is(err, store.ErrGap) {
		// The standby's position was pruned away (or it is empty and the
		// journal starts beyond 1): bootstrap it from the latest snapshot.
		seq, blob, ok := store.LatestSnapshotData(s.cfg.Dir)
		if !ok || seq <= fromSeq {
			// Nothing here can move this follower forward — its cursor is
			// beyond everything this journal holds (a forked follower, e.g.
			// an old primary rejoining with an unreplicated tail). Silence
			// would look like a dead primary and invite a promotion; answer
			// with a heartbeat at our head instead, which the follower reads
			// as a divergence verdict, then drop the stream.
			_ = s.send(conn, message.ReplHeartbeat{LastSeq: seq})
			return
		}
		if err := s.send(conn, message.ReplSnapshot{Seq: seq, Blob: blob}); err != nil {
			return
		}
		sb.mu.Lock()
		sb.snapshots++
		sb.shippedSeq = seq
		sb.mu.Unlock()
		s.mu.Lock()
		s.statSnapshots++
		s.mu.Unlock()
		tl, err = store.OpenTail(s.cfg.Dir, seq)
	}
	if err != nil {
		return
	}
	defer tl.Close()

	heartbeat := time.NewTicker(s.cfg.Heartbeat)
	defer heartbeat.Stop()
	poll := time.NewTicker(s.cfg.Poll)
	defer poll.Stop()

	for {
		select {
		case <-sb.stop:
			return
		case <-heartbeat.C:
			sb.mu.Lock()
			shipped := sb.shippedSeq
			sb.mu.Unlock()
			if err := s.send(conn, message.ReplHeartbeat{LastSeq: shipped}); err != nil {
				return
			}
		case <-poll.C:
			for {
				// Flow control: never run further ahead of the standby's acks
				// than the window, so the per-connection outbound queue can
				// never shed a replication frame.
				sb.mu.Lock()
				inFlight := sb.shippedSeq - sb.ackedSeq
				sb.mu.Unlock()
				if inFlight >= windowRecords {
					break
				}
				t0 := time.Now()
				batch, err := tl.Next(batchBytes)
				if err != nil {
					// The standby lagged past a prune (ErrGap) or the journal
					// turned unreadable: drop the stream; the standby will
					// re-subscribe and bootstrap from a snapshot.
					return
				}
				if batch.Count == 0 {
					break // caught up; next poll tick looks again
				}
				if err := s.send(conn, message.ReplBatch{FirstSeq: batch.FirstSeq, Count: batch.Count, Frames: batch.Frames}); err != nil {
					return
				}
				shipHist.Observe(time.Since(t0))
				sb.mu.Lock()
				sb.shippedSeq = batch.LastSeq()
				sb.mu.Unlock()
				s.mu.Lock()
				s.statBatches++
				s.statRecords += uint64(batch.Count)
				s.statBytes += uint64(len(batch.Frames))
				s.mu.Unlock()
				select {
				case <-sb.stop:
					return
				default:
				}
			}
		}
	}
}

// Status snapshots the sender's replication state.
func (s *Sender) Status() SenderStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SenderStatus{
		Addr:      s.srv.Addr(),
		Batches:   s.statBatches,
		Records:   s.statRecords,
		Bytes:     s.statBytes,
		Snapshots: s.statSnapshots,
		Resyncs:   s.statResyncs,
	}
	for _, sb := range s.subs {
		sb.mu.Lock()
		st.Standbys = append(st.Standbys, StandbyStatus{
			ID:         sb.id,
			ShippedSeq: sb.shippedSeq,
			AckedSeq:   sb.ackedSeq,
			LagRecords: sb.shippedSeq - sb.ackedSeq,
			LastAck:    sb.lastAck,
			Snapshots:  sb.snapshots,
		})
		sb.mu.Unlock()
	}
	sort.Slice(st.Standbys, func(i, j int) bool { return st.Standbys[i].ID < st.Standbys[j].ID })
	return st
}

// WaitDrain blocks until every subscribed standby has acknowledged seq (or
// the timeout passes), reporting whether the fleet fully drained. It looks
// again at each ack and each streamer's exit, the only events that can drain
// it. A primary shutting down cleanly calls it after sealing, so the seal
// reaches the standbys before their connections drop.
func (s *Sender) WaitDrain(seq uint64, timeout time.Duration) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		drained := true
		for _, sb := range s.subs {
			sb.mu.Lock()
			drained = drained && sb.ackedSeq >= seq
			sb.mu.Unlock()
		}
		if drained {
			return true
		}
		if s.changed == nil {
			s.changed = make(chan struct{})
		}
		changed := s.changed
		s.mu.Unlock()
		select {
		case <-changed:
			s.mu.Lock()
		case <-timer.C:
			s.mu.Lock()
			return false
		}
	}
}

// Close stops every streamer, tears the listener down, then drops the control
// handler's name and waits for it.
func (s *Sender) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	subs := make([]*sub, 0, len(s.subs))
	for _, sb := range s.subs {
		subs = append(subs, sb)
	}
	s.mu.Unlock()
	for _, sb := range subs {
		sb.halt()
		<-sb.stopped
	}
	s.srv.Close()
	s.rt.Stop()
}

package replica

import (
	"fmt"
	"sync"
	"time"

	"loadbalance/internal/bus"
	"loadbalance/internal/health"
	"loadbalance/internal/message"
	"loadbalance/internal/trace"
)

// applyHist measures one replicated batch's persist-and-replay latency on
// the standby (the replica_apply_seconds series on /metrics).
var applyHist = trace.GetHistogram("replica_apply_seconds")

// Tap is the receiver's application surface: where replicated snapshots and
// frames land. telemetry.StandbyEngine satisfies it (a hot standby holding
// live grid state); StoreTap satisfies it with a bare journal (an archival
// follower, and the replication benchmark).
type Tap interface {
	// LastSeq is the follower's newest applied journal position — where a
	// (re)subscription resumes.
	LastSeq() uint64
	// ApplySnapshot bootstraps the follower from the primary's snapshot.
	ApplySnapshot(seq uint64, blob []byte) error
	// ApplyFrames persists and applies one contiguous replicated frame run,
	// returning the records applied and whether the run carried the
	// primary's clean-shutdown seal.
	ApplyFrames(firstSeq uint64, frames []byte) (n int, sealed bool, err error)
}

// EventKind is a receiver lifecycle event.
type EventKind int

// Receiver events.
const (
	// EventConnected: subscribed to a primary (also after a reconnect).
	EventConnected EventKind = iota
	// EventPrimaryDead: no contact within the failover timeout. The receiver
	// keeps re-dialing — the owner decides whether to promote instead.
	EventPrimaryDead
	// EventCleanShutdown: the primary's seal arrived; the stream is over.
	EventCleanShutdown
	// EventFallenBehind: this follower's position was pruned out of the
	// primary's journal and the follower already holds local state, so a
	// snapshot bootstrap would fork its journal. Terminal: the operator
	// must wipe the follower's data directory and restart it.
	EventFallenBehind
	// EventDiverged: this follower holds records the primary's journal does
	// not — it is ahead of (forked from) the stream it was pointed at, e.g.
	// an old primary rejoining with an unreplicated tail. Terminal: it must
	// never apply this stream, and it must never promote over it.
	EventDiverged
	// EventApplyFailed: a replicated record persisted into the local
	// journal but could not be replayed into the replica state (most often
	// a standby launched with a configuration that does not match the
	// primary's). Terminal: continuing would silently diverge.
	EventApplyFailed
)

// Event is one receiver lifecycle notification.
type Event struct {
	Kind EventKind
	// Addr is the primary address the event refers to (EventConnected).
	Addr string
}

// ReceiverConfig parameterises a standby's stream receiver.
type ReceiverConfig struct {
	// ID is this replica's id — the subscription identity and the promotion
	// tiebreak key.
	ID string
	// Addrs is the dial list of replication addresses: the primary first,
	// then the peer standbys (so a promoted peer is found after failover).
	Addrs []string
	// FailoverTimeout is how long the primary may be silent (no batch, no
	// heartbeat, no successful dial) before EventPrimaryDead (default 3s).
	FailoverTimeout time.Duration
	// Redial is the pause between dial attempts (default 200ms).
	Redial time.Duration
}

// receiverClient is a standby's stream connection: frames up to maxFrame,
// the sender's bound, and an inbox of 256 — replication batches are
// flow-controlled by acks, so the inbox bounds in-flight batches, not
// throughput.
var receiverClient = bus.ClientConfig{InboxSize: 256, MaxFrame: maxFrame}

// withDefaults fills unset fields.
func (c ReceiverConfig) withDefaults() (ReceiverConfig, error) {
	if c.ID == "" {
		return c, fmt.Errorf("%w: receiver needs an id", ErrBadConfig)
	}
	if len(c.Addrs) == 0 {
		return c, fmt.Errorf("%w: receiver needs at least one primary address", ErrBadConfig)
	}
	if c.FailoverTimeout <= 0 {
		c.FailoverTimeout = 3 * time.Second
	}
	if c.Redial <= 0 {
		c.Redial = 200 * time.Millisecond
	}
	return c, nil
}

// ReceiverStatus is the standby-side replication state.
type ReceiverStatus struct {
	ID          string    `json:"id"`
	Connected   bool      `json:"connected"`
	Addr        string    `json:"addr"` // current (or last) primary address
	AppliedSeq  uint64    `json:"appliedSeq"`
	LastApplied time.Time `json:"lastApplied"` // wall time of the newest applied batch or snapshot
	LastContact time.Time `json:"lastContact"`
	Batches     uint64    `json:"batches"`
	Records     uint64    `json:"records"`
	Snapshots   uint64    `json:"snapshots"`
	Resyncs     uint64    `json:"resyncs"` // out-of-order batches answered with a re-subscribe
	Dials       uint64    `json:"dials"`
	Sealed      bool      `json:"sealed"`
	// Fatal is set when the stream ended terminally (fallen behind a
	// prune); the receiver has stopped for good.
	Fatal string `json:"fatal,omitempty"`
}

// Receiver follows a primary's journal stream and applies it to a Tap. It
// runs until Close (or the primary's clean shutdown), re-dialing through its
// address list on every connection loss.
type Receiver struct {
	cfg    ReceiverConfig
	tap    Tap
	events chan Event

	mu            sync.Mutex
	status        ReceiverStatus
	everContacted bool // a heartbeat/batch/snapshot has arrived at least once
	closed        bool

	stop chan struct{}
	done chan struct{}
}

// StartReceiver begins following the stream. Callers must Close it (unless
// the stream ends with EventCleanShutdown, after which the run loop exits on
// its own).
func StartReceiver(cfg ReceiverConfig, tap Tap) (*Receiver, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if tap == nil {
		return nil, fmt.Errorf("%w: receiver needs a tap", ErrBadConfig)
	}
	r := &Receiver{
		cfg:    cfg,
		tap:    tap,
		events: make(chan Event, 16),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	r.status.ID = cfg.ID
	r.status.LastContact = time.Now()
	go r.run()
	return r, nil
}

// Events returns the receiver's lifecycle notifications. The channel is
// buffered; stale events are dropped rather than blocking the stream.
func (r *Receiver) Events() <-chan Event { return r.events }

// Status snapshots the receiver's state.
func (r *Receiver) Status() ReceiverStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// emit queues a lifecycle event without ever blocking the stream.
func (r *Receiver) emit(ev Event) {
	select {
	case r.events <- ev:
	default:
	}
}

// touch records primary contact.
func (r *Receiver) touch() {
	r.mu.Lock()
	r.status.LastContact = time.Now()
	r.everContacted = true
	r.mu.Unlock()
}

// fatal records a terminal stream failure and emits its event. The run loop
// exits instead of re-dialing: every terminal condition would simply repeat.
func (r *Receiver) fatal(kind EventKind, msg string) {
	health.Log(health.Error, "replica", msg, health.Str("id", r.cfg.ID))
	r.mu.Lock()
	r.status.Fatal = msg
	r.mu.Unlock()
	r.emit(Event{Kind: kind})
}

// run is the receiver's main loop: dial (rotating through the address list),
// subscribe, apply the stream; on loss, re-dial; on silence past the
// failover timeout, report the primary dead (once per silent stretch) and
// keep trying — the address list includes the peers, so a promoted standby's
// stream is found the same way. Contact means stream traffic (a batch, a
// snapshot, a heartbeat): a listener that accepts but never speaks is as
// dead as one that refuses.
func (r *Receiver) run() {
	defer close(r.done)
	addrIdx := 0
	var reportedContact time.Time
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		// A primary is only declared dead if it was ever alive from here: a
		// standby that has never reached any address keeps dialing instead
		// of promoting over what may be a healthy primary it simply cannot
		// see yet (misconfigured address, primary still starting).
		lc, contacted := r.lastContact()
		if contacted && time.Since(lc) > r.cfg.FailoverTimeout && !lc.Equal(reportedContact) {
			reportedContact = lc
			r.emit(Event{Kind: EventPrimaryDead})
		}
		cli, addr, idx := r.dialNext(addrIdx)
		if cli == nil {
			// No address answered this round.
			select {
			case <-r.stop:
				return
			case <-time.After(r.cfg.Redial):
			}
			continue
		}
		addrIdx = idx
		r.mu.Lock()
		r.status.Connected = true
		r.status.Addr = addr
		r.status.Dials++
		r.mu.Unlock()
		r.emit(Event{Kind: EventConnected, Addr: addr})

		sealed := r.follow(cli)
		cli.Close()
		r.mu.Lock()
		r.status.Connected = false
		r.status.Sealed = sealed
		fatal := r.status.Fatal
		r.mu.Unlock()
		if sealed {
			r.emit(Event{Kind: EventCleanShutdown})
			return
		}
		if fatal != "" {
			return // terminal; EventFallenBehind already emitted
		}
		select {
		case <-r.stop:
			return
		case <-time.After(r.cfg.Redial):
		}
	}
}

// lastContact reads the stream's newest contact time and whether any
// contact has ever happened.
func (r *Receiver) lastContact() (time.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status.LastContact, r.everContacted
}

// dialNext tries the address list once, starting at from, returning the
// first connection that answers.
func (r *Receiver) dialNext(from int) (*bus.Client, string, int) {
	for i := 0; i < len(r.cfg.Addrs); i++ {
		idx := (from + i) % len(r.cfg.Addrs)
		addr := r.cfg.Addrs[idx]
		cli, err := bus.DialConfig(addr, r.cfg.ID, receiverClient)
		if err == nil {
			return cli, addr, idx
		}
	}
	return nil, "", from
}

// silentTooLong reports whether the primary has been out of contact past the
// failover timeout.
func (r *Receiver) silentTooLong() bool {
	lc, _ := r.lastContact()
	return time.Since(lc) > r.cfg.FailoverTimeout
}

// subscribe (re)sends the subscription at the tap's current position.
func (r *Receiver) subscribe(cli *bus.Client) error {
	env, err := message.NewEnvelope(r.cfg.ID, senderName, "replication", message.ReplSubscribe{
		Replica: r.cfg.ID,
		FromSeq: r.tap.LastSeq(),
	})
	if err != nil {
		return err
	}
	return cli.Send(env)
}

// follow applies one connection's stream until it dies (returns false) or
// delivers the primary's seal (returns true).
func (r *Receiver) follow(cli *bus.Client) (sealed bool) {
	if err := r.subscribe(cli); err != nil {
		return false
	}
	idle := time.NewTicker(r.cfg.FailoverTimeout / 2)
	defer idle.Stop()
	for {
		select {
		case <-r.stop:
			return false
		case <-idle.C:
			if r.silentTooLong() {
				// The connection is up but silent — a wedged primary is as
				// dead as a crashed one. Drop the connection; the run loop
				// re-dials and reports.
				return false
			}
		case env, ok := <-cli.Inbox():
			if !ok {
				return false
			}
			p, err := env.Decode()
			if err != nil {
				continue
			}
			switch m := p.(type) {
			case message.ReplHeartbeat:
				r.touch()
				if m.LastSeq < r.tap.LastSeq() {
					// The stream's head is below our own position: this
					// follower holds records the primary does not — a forked
					// journal (an old primary rejoining with an unreplicated
					// tail). Applying or promoting over it would be split
					// brain; stop terminally.
					r.fatal(EventDiverged, fmt.Sprintf(
						"diverged: local journal at seq %d is ahead of the primary's stream at %d; this follower's unreplicated tail must be inspected, then its data directory re-bootstrapped",
						r.tap.LastSeq(), m.LastSeq))
					return false
				}
			case message.ReplSnapshot:
				r.touch()
				if r.tap.LastSeq() != 0 {
					// A snapshot answer to a non-zero subscription means our
					// position was pruned out of the primary's journal, and a
					// bootstrap over existing state would fork it. There is
					// no way forward from here: resubscribing just re-ships
					// the snapshot. Stop terminally and tell the operator.
					r.fatal(EventFallenBehind, fmt.Sprintf(
						"fallen behind: local seq %d was pruned out of the primary's journal; wipe this follower's data directory and restart it",
						r.tap.LastSeq()))
					return false
				}
				if err := r.tap.ApplySnapshot(m.Seq, m.Blob); err != nil {
					// The blob was validated against this follower's own
					// configuration and refused — retrying re-downloads the
					// same snapshot forever.
					r.fatal(EventApplyFailed, fmt.Sprintf("snapshot bootstrap at %d refused: %v", m.Seq, err))
					return false
				}
				r.mu.Lock()
				r.status.Snapshots++
				r.status.AppliedSeq = m.Seq
				r.status.LastApplied = time.Now()
				r.mu.Unlock()
				r.ack(cli, m.Seq)
			case message.ReplBatch:
				r.touch()
				if m.FirstSeq != r.tap.LastSeq()+1 {
					// A shed or reordered batch: resync rather than apply a
					// discontiguous run.
					r.resync(cli)
					continue
				}
				t0 := time.Now()
				sp := trace.Root("replication.apply")
				sp.SetAgent(r.cfg.ID)
				n, gotSeal, err := r.tap.ApplyFrames(m.FirstSeq, m.Frames)
				sp.End()
				applyHist.Observe(time.Since(t0))
				if err != nil {
					// The journal may now hold records the replica state
					// could not replay (configuration mismatch, corrupt
					// stream): resuming past them would silently diverge.
					r.fatal(EventApplyFailed, fmt.Sprintf("apply %d frames at %d: %v", m.Count, m.FirstSeq, err))
					return false
				}
				applied := m.FirstSeq + uint64(n) - 1
				r.mu.Lock()
				r.status.Batches++
				r.status.Records += uint64(n)
				r.status.AppliedSeq = applied
				r.status.LastApplied = time.Now()
				r.mu.Unlock()
				r.ack(cli, applied)
				if gotSeal {
					return true
				}
			}
		}
	}
}

// resync re-subscribes at the tap's position, counting the discontinuity.
func (r *Receiver) resync(cli *bus.Client) {
	r.mu.Lock()
	r.status.Resyncs++
	r.mu.Unlock()
	_ = r.subscribe(cli)
}

// ack reports the applied position.
func (r *Receiver) ack(cli *bus.Client, seq uint64) {
	env, err := message.NewEnvelope(r.cfg.ID, senderName, "replication", message.ReplAck{
		Replica: r.cfg.ID, AppliedSeq: seq,
	})
	if err == nil {
		_ = cli.Send(env)
	}
}

// Close stops the receiver and waits for its loop to exit.
func (r *Receiver) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	close(r.stop)
	<-r.done
}

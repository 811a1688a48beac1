// Package obsplane is the fleet observability plane: every gridd process —
// workers, standbys, serve replicas — streams its observability state
// (metric samples, structured log events, completed trace spans) to the
// root over the binary wire protocol, and the root merges the batches
// into one labelled registry served on the /fleet endpoints.
//
// The plane is explicitly lossy-but-accounted: emitters drain bounded
// rings through a bounded resend window, shed under backpressure, and ship
// Missed counters for everything a ring wrapped past; the hub keeps each
// process's state in bounded per-process rings. Correctness of the grid
// never depends on the plane — it is an operator surface, built from the
// same bus, message and ring machinery as the data path.
package obsplane

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"loadbalance/internal/agent"
	"loadbalance/internal/bus"
	"loadbalance/internal/health"
	"loadbalance/internal/message"
	"loadbalance/internal/ring"
	"loadbalance/internal/trace"
	"loadbalance/internal/tsdb"
)

// hubName is the hub's agent name on its control bus; emitters address
// their envelopes to it.
const hubName = "obshub"

// obsSession is the session id stamped on every obs-plane envelope.
const obsSession = "obsplane"

// ErrClosed is returned by operations on a closed hub.
var ErrClosed = errors.New("obsplane: closed")

// HubConfig parameterises the fleet root's observability hub.
type HubConfig struct {
	// Addr is the TCP listen address emitters dial (":0" for tests).
	Addr string
	// Logger receives the hub's own health events (default health.Default()).
	Logger *health.Logger
	// History, when set, retains every streamed metric sample as a
	// proc-labeled series (stamped at arrival), so the root answers
	// /fleet/query range queries for the whole fleet. Nil keeps the hub
	// instantaneous-only.
	History *tsdb.Store
}

// withDefaults fills unset fields.
func (c HubConfig) withDefaults() HubConfig {
	if c.Logger == nil {
		c.Logger = health.Default()
	}
	return c
}

// logRingSize and spanRingSize bound one process's merged log events and
// spans held by the hub.
const (
	logRingSize  = 2048
	spanRingSize = 8192
)

// fleetLog is one streamed log event with its sender's identity attached.
type fleetLog struct {
	proc string
	ev   message.ObsLogEvent
}

// procState is one subscribed process's merged observability state.
type procState struct {
	proc string
	role string
	addr string

	lastSeq   uint64
	lastBatch time.Time // arrival clock for the silence gauge, never served on a replayed surface
	closed    bool      // the process flushed with Closing: excluded from silence detection

	batches, logs, spans    uint64
	missedLogs, missedSpans uint64
	duplicates              uint64
	metrics                 []message.ObsMetricSample // latest full sample set
	logRing                 *ring.Buffer[fleetLog]
	spanRing                *ring.Buffer[trace.Record]
}

// sample returns the process's latest value for one metric series name.
func (p *procState) sample(name string) (float64, bool) {
	for i := range p.metrics {
		if p.metrics[i].Name == name {
			return p.metrics[i].Value, true
		}
	}
	return 0, false
}

// Hub is the root-side receiver: it listens for emitters, merges their
// batches and serves the fleet view. Close it to release the listener.
type Hub struct {
	cfg   HubConfig
	inner *bus.InProc
	srv   *bus.Server
	rt    *agent.Runtime // the control handler, hosted on inner

	mu     sync.Mutex
	procs  map[string]*procState
	closed bool
}

// StartHub listens on cfg.Addr and merges emitter streams. The hosting role
// registers Samples, which is how the root's alert engine sees the fleet_*
// gauges (silence age, fleet score, process count).
func StartHub(cfg HubConfig) (*Hub, error) {
	h := &Hub{cfg: cfg.withDefaults(), procs: make(map[string]*procState)}
	var err error
	if h.inner, err = bus.NewInProc(bus.Config{}); err != nil {
		return nil, err
	}
	if h.rt, err = agent.Start(hubName, h.inner, agent.HandlerFuncs{Message: h.control}, 1024); err != nil {
		return nil, err
	}
	if h.srv, err = bus.ListenAndServe(h.cfg.Addr, h.inner); err != nil {
		h.rt.Stop()
		return nil, err
	}
	return h, nil
}

// Addr returns the hub's bound listen address.
func (h *Hub) Addr() string { return h.srv.Addr() }

// WireStats exposes the hub transport's frame counters for the root's
// /metrics page.
func (h *Hub) WireStats() bus.WireStats { return h.srv.WireStats() }

// control merges one subscribe or batch message from an emitter; anything
// else, an undecodable envelope included, is skipped. Acks are sent outside
// the registry lock.
func (h *Hub) control(_ *agent.Runtime, env message.Envelope) error {
	p, _ := env.Decode()
	switch m := p.(type) {
	case message.ObsSubscribe:
		h.subscribe(env.From, m)
	case message.ObsBatch:
		h.merge(env.From, m)
	}
	return nil
}

// ack confirms the highest merged batch to one emitter so it can trim its
// resend buffer. Delivery failure means the connection died; the emitter
// re-subscribes on its next one and resends.
func (h *Hub) ack(conn string, seq uint64) {
	if seq == 0 {
		return
	}
	env, err := message.NewEnvelope(hubName, conn, obsSession, message.ObsAck{Seq: seq})
	if err != nil {
		return
	}
	_ = h.inner.Send(env)
}

// subscribe registers (or re-registers) a process. The connection name is
// forced by the wire handshake to the emitter's proc label, so From is the
// registry key. Re-subscription after a reconnect keeps the merged state
// and acks the last applied batch.
func (h *Hub) subscribe(conn string, m message.ObsSubscribe) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	p := h.procLocked(conn)
	p.role, p.addr = m.Role, m.Addr
	p.lastBatch = time.Now()
	p.closed = false
	lastSeq := p.lastSeq
	h.mu.Unlock()
	h.cfg.Logger.Log(health.Info, "obsplane", "process subscribed",
		health.Str("proc", conn), health.Str("role", m.Role), health.Str("addr", m.Addr))
	h.ack(conn, lastSeq)
}

// merge folds one batch into the process's state. Duplicate sequences
// (resends racing an ack) are re-acked but not merged twice.
func (h *Hub) merge(conn string, m message.ObsBatch) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	// A batch before any subscription is a protocol error from the peer, but
	// harmless: it registers a bare identity rather than losing data.
	p := h.procLocked(conn)
	if m.Seq <= p.lastSeq {
		p.duplicates++
		h.mu.Unlock()
		h.ack(conn, m.Seq)
		return
	}
	p.lastSeq = m.Seq
	p.lastBatch = time.Now()
	p.closed = m.Closing
	p.batches++
	p.missedLogs += m.MissedLogs
	p.missedSpans += m.MissedSpans
	if m.Metrics != nil {
		p.metrics = m.Metrics
		if h.cfg.History != nil {
			ts := time.Now().UnixMicro()
			for _, s := range m.Metrics {
				h.cfg.History.Append(relabel(s, conn).Series(), ts, s.Value)
			}
		}
	}
	for _, ev := range m.Logs {
		p.logRing.Push(fleetLog{proc: conn, ev: ev})
		p.logs++
	}
	for _, sp := range m.Spans {
		rec := trace.Record{
			Trace:   sp.Trace,
			Span:    sp.Span,
			Parent:  sp.Parent,
			Name:    sp.Name,
			Proc:    conn,
			Agent:   sp.Agent,
			Session: sp.Session,
			Shard:   sp.Shard,
			StartUs: sp.StartUs,
			DurUs:   sp.DurUs,
		}
		p.spanRing.Push(rec)
		p.spans++
	}
	h.mu.Unlock()
	h.ack(conn, m.Seq)
}

// procLocked returns conn's state, registering it on first sight.
func (h *Hub) procLocked(conn string) *procState {
	p := h.procs[conn]
	if p == nil {
		p = &procState{proc: conn, logRing: ring.New[fleetLog](logRingSize), spanRing: ring.New[trace.Record](spanRingSize)}
		h.procs[conn] = p
	}
	return p
}

// SilenceAge is the fleet's worst last-batch age in seconds over processes
// that have not announced a clean close — the gauge behind the built-in
// worker_silent alert rule. No subscribed processes means 0 (nothing to be
// silent).
func (h *Hub) SilenceAge() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	worst := 0.0
	for _, p := range h.procs {
		if p.closed || p.lastBatch.IsZero() {
			continue
		}
		if age := time.Since(p.lastBatch).Seconds(); age > worst {
			worst = age
		}
	}
	return worst
}

// FleetScore folds the per-process feedback scores (the feedback_score
// sample each live process streams) into one fleet number: their mean over
// reporting processes, 0 when nothing reports a score yet.
func (h *Hub) FleetScore() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	names := make([]string, 0, len(h.procs))
	for n, p := range h.procs {
		if _, ok := p.sample("feedback_score"); ok {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return 0
	}
	// Sorted accumulation keeps the fold deterministic across map orders.
	sort.Strings(names)
	sum := 0.0
	for _, n := range names {
		v, _ := h.procs[n].sample("feedback_score")
		sum += v
	}
	return sum / float64(len(names))
}

// ProcStatus is one process's row in the fleet status document — what
// gridctl top renders.
type ProcStatus struct {
	Proc         string  `json:"proc"`
	Role         string  `json:"role"`
	Addr         string  `json:"addr,omitempty"`
	Closed       bool    `json:"closed,omitempty"`
	LastSeq      uint64  `json:"lastSeq"`
	LastBatchAge float64 `json:"lastBatchAgeSeconds"`
	Batches      uint64  `json:"batches"`
	Logs         uint64  `json:"logs"`
	Spans        uint64  `json:"spans"`
	MissedLogs   uint64  `json:"missedLogs,omitempty"`
	MissedSpans  uint64  `json:"missedSpans,omitempty"`
	Score        float64 `json:"score"`
	Lag          float64 `json:"lag"`
	TickP95      float64 `json:"tickP95Seconds"`
}

// Status snapshots every process's streaming state, sorted by proc label.
func (h *Hub) Status() []ProcStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]ProcStatus, 0, len(h.procs))
	for _, p := range h.procs {
		st := ProcStatus{
			Proc:        p.proc,
			Role:        p.role,
			Addr:        p.addr,
			Closed:      p.closed,
			LastSeq:     p.lastSeq,
			Batches:     p.batches,
			Logs:        p.logs,
			Spans:       p.spans,
			MissedLogs:  p.missedLogs,
			MissedSpans: p.missedSpans,
		}
		if !p.lastBatch.IsZero() {
			st.LastBatchAge = time.Since(p.lastBatch).Seconds()
		}
		st.Score, _ = p.sample("feedback_score")
		st.Lag, _ = p.sample("replica_lag_records")
		st.TickP95, _ = p.sample("grid_tick_seconds_p95")
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Proc < out[j].Proc })
	return out
}

// Close tears the listener down, then drops the control handler's name and
// waits for it.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.mu.Unlock()
	h.srv.Close()
	h.rt.Stop()
}

// String implements fmt.Stringer for log lines.
func (h *Hub) String() string { return fmt.Sprintf("obsplane hub on %s", h.Addr()) }

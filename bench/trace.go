package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"loadbalance/internal/agent"
	"loadbalance/internal/bus"
	"loadbalance/internal/message"
)

// The benchmark's own tracing. Spans are recorded by two decorators the
// benchmark wraps around the repo's public seams — a bus.Bus that records a
// span per Send and an agent.Handler that records a span per OnMessage — so
// nothing inside the program is instrumented and internal/trace stays off.

// Layer names used in spans and in the layer table.
const (
	layerCA       = "customeragent"
	layerDesire   = "desire"
	layerKB       = "kb"
	layerMessage  = "message"
	layerUA       = "utilityagent"
	layerProtocol = "protocol"
	layerBus      = "bus"
	layerCluster  = "cluster"
)

// span is one recorded interval. Parent is the handler span that was open on
// the sending agent's goroutine (synchronous nesting: a send made while a
// handler runs is that handler's child). Cause is the send span that
// delivered the envelope a handler ran on (asynchronous: the handler runs on
// another goroutine, so it is caused by the send, not covered by it).
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Cause   uint64 `json:"cause,omitempty"`
	Session int    `json:"session"`
	Name    string `json:"name"` // handle, start, send, broadcast
	Layer   string `json:"layer"`
	Agent   string `json:"agent"`
	Bus     string `json:"bus,omitempty"`
	Kind    string `json:"kind,omitempty"`
	Round   int    `json:"round,omitempty"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`

	body json.RawMessage // the payload, kept to read the round from when analysing
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// agentTrace is one agent's span buffer. A concentrator sends from two
// goroutines (one per tier), so appends take the mutex; for every other
// agent it is uncontended.
type agentTrace struct {
	mu    sync.Mutex
	spans []span
	open  atomic.Uint64 // the handler span currently open on this agent
}

func (a *agentTrace) add(s span) {
	a.mu.Lock()
	a.spans = append(a.spans, s)
	a.mu.Unlock()
}

// recorder keeps every span of a traced run in memory until the run ends.
type recorder struct {
	epoch   time.Time
	nextID  atomic.Uint64
	session int
	agents  map[string]*agentTrace // fixed before a session starts, read-only while it runs
	stray   agentTrace             // sends by names outside the session's roster
	spans   []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// beginSession installs the roster of agent names the next session uses.
func (r *recorder) beginSession(names []string) {
	r.session++
	r.agents = make(map[string]*agentTrace, len(names))
	for _, n := range names {
		r.agents[n] = &agentTrace{}
	}
}

// endSession moves the session's spans into the run's list. Every runtime of
// the session has stopped by now, so the buffers are quiescent.
func (r *recorder) endSession() {
	for _, a := range r.agents {
		r.spans = append(r.spans, a.spans...)
	}
	r.spans = append(r.spans, r.stray.spans...)
	r.stray.spans = nil
	r.agents = nil
}

func (r *recorder) traceOf(name string) *agentTrace {
	if a, ok := r.agents[name]; ok {
		return a
	}
	return &r.stray
}

// tracedBus records one span per Send and stamps the envelope with the
// span's id, which is how the receiving handler's span names its cause.
// The envelope's trace fields are free for this: internal/trace is disabled,
// so the runtime ignores them.
type tracedBus struct {
	inner bus.Bus
	rec   *recorder
	label string
}

func (b *tracedBus) Register(name string, inboxSize int) (<-chan message.Envelope, error) {
	return b.inner.Register(name, inboxSize)
}
func (b *tracedBus) Unregister(name string) { b.inner.Unregister(name) }
func (b *tracedBus) Agents() []string       { return b.inner.Agents() }

func (b *tracedBus) Send(env message.Envelope) error {
	at := b.rec.traceOf(env.From)
	id := b.rec.nextID.Add(1)
	env.TraceID, env.SpanID = uint64(b.rec.session), id
	name := "send"
	if env.To == "" {
		name = "broadcast"
	}
	start := b.rec.now()
	err := b.inner.Send(env)
	end := b.rec.now()
	at.add(span{
		ID: id, Parent: at.open.Load(), Session: b.rec.session, Name: name, Layer: layerBus,
		Agent: env.From, Bus: b.label, Kind: string(env.Kind), StartNs: start, EndNs: end, body: env.Body,
	})
	return err
}

// tracedHandler records one span per OnStart and per OnMessage.
type tracedHandler struct {
	inner agent.Handler
	rec   *recorder
	at    *agentTrace
	name  string
	layer string
}

func (r *recorder) wrapHandler(name, layer string, h agent.Handler) agent.Handler {
	return &tracedHandler{inner: h, rec: r, at: r.traceOf(name), name: name, layer: layer}
}

func (h *tracedHandler) run(name string, env *message.Envelope, f func() error) error {
	id := h.rec.nextID.Add(1)
	s := span{ID: id, Session: h.rec.session, Name: name, Layer: h.layer, Agent: h.name}
	if env != nil {
		s.Cause, s.Kind, s.body = env.SpanID, string(env.Kind), env.Body
	}
	h.at.open.Store(id)
	s.StartNs = h.rec.now()
	err := f()
	s.EndNs = h.rec.now()
	h.at.open.Store(0)
	h.at.add(s)
	return err
}

func (h *tracedHandler) OnStart(rt *agent.Runtime) error {
	return h.run("start", nil, func() error { return h.inner.OnStart(rt) })
}

func (h *tracedHandler) OnMessage(rt *agent.Runtime, env message.Envelope) error {
	return h.run("handle", &env, func() error { return h.inner.OnMessage(rt, env) })
}

// roundOf reads the "round" field every negotiation payload carries, without
// decoding the whole body.
func roundOf(body json.RawMessage) int {
	i := bytes.Index(body, []byte(`"round":`))
	if i < 0 {
		return 0
	}
	n := 0
	for _, c := range bytes.TrimLeft(body[i+len(`"round":`):], " ") {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// finish resolves the rounds and returns the run's spans.
func (r *recorder) finish() []span {
	for i := range r.spans {
		if r.spans[i].body != nil {
			r.spans[i].Round = roundOf(r.spans[i].body)
			r.spans[i].body = nil
		}
	}
	return r.spans
}

// traceFile is the span file's document.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Sessions int    `json:"sessions"`
	Spans    []span `json:"spans"`
}

// writeTraceFile writes the run's spans to <outDir>/<workload>.trace.json.
func writeTraceFile(outDir, workload string, seed int64, sessions int, spans []span) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := json.NewEncoder(w).Encode(traceFile{Workload: workload, Seed: seed, Sessions: sessions, Spans: spans}); err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// layerRow is one line of the layer table.
type layerRow struct {
	layer       string
	calls       int
	self        time.Duration
	apportioned bool // split from a measured total by probe ratios, not measured itself
}

// layerTable is the per-workload attribution of busy time.
type layerTable struct {
	rows []layerRow
	busy time.Duration
}

func (t *layerTable) add(layer string, calls int, self time.Duration, apportioned bool) {
	if self < 0 {
		self = 0
	}
	t.rows = append(t.rows, layerRow{layer, calls, self, apportioned})
	t.busy += self
}

func (t *layerTable) share(layer string) float64 {
	if t.busy <= 0 {
		return 0
	}
	for _, r := range t.rows {
		if r.layer == layer {
			return float64(r.self) / float64(t.busy)
		}
	}
	return 0
}

func (t *layerTable) lines(title string) []string {
	out := []string{title, fmt.Sprintf("  %-16s %10s %14s %8s", "layer", "calls", "self time", "share")}
	for _, r := range t.rows {
		note := ""
		if r.apportioned {
			note = "  (apportioned by probe ratios)"
		}
		out = append(out, fmt.Sprintf("  %-16s %10d %14s %7.1f%%%s", r.layer, r.calls, r.self.Round(time.Microsecond), 100*t.share(r.layer), note))
	}
	out = append(out, fmt.Sprintf("  %-16s %10s %14s", "busy time", "", t.busy.Round(time.Microsecond)))
	return out
}

// Package trace is the observability spine of the reproduction: a
// low-overhead distributed-tracing recorder plus log-linear latency
// histograms, both rendered over HTTP by gridd.
//
// Spans cover a negotiation session end-to-end — session open, table
// announcements, bid rounds, award commit, journal appends, renegotiation
// decisions and replication apply — and cross process boundaries by riding
// a (trace id, span id) pair in message.Envelope. Each process keeps its
// completed spans in a fixed-size ring buffer; /trace serves the ring as
// JSON and the reader stitches the per-process rings into one tree per
// session by trace id.
//
// The package is built so that the disabled state (the default) costs a
// single atomic load on every instrumentation point: Root/Child return a
// zero Span whose End is a no-op, and no clock is read. Enabling tracing
// costs two clock reads and one ring write per span — no allocations on
// the span path.
package trace

import (
	"math/bits"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"loadbalance/internal/ring"
)

// Context is the propagated trace state: the trace a span belongs to and
// the span that caused the current work. It is stamped into
// message.Envelope and re-parented on receipt.
type Context struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether the context carries a trace.
func (c Context) Valid() bool { return c.Trace != 0 }

// Record is one completed span as stored in the ring and served on
// /trace. IDs are hex strings in JSON: uint64 values above 2^53 are not
// representable as JSON numbers.
type Record struct {
	Trace   string `json:"trace"`
	Span    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	Proc    string `json:"proc"`
	Agent   string `json:"agent,omitempty"`
	Session string `json:"session,omitempty"`
	Shard   string `json:"shard,omitempty"`
	StartUs int64  `json:"startUs"` // wall clock, microseconds since epoch
	DurUs   int64  `json:"durUs"`   // duration, microseconds
}

// Span is a live measurement. The zero Span (tracing disabled) is a valid
// no-op: Context returns an invalid context and End does nothing.
type Span struct {
	tr      *Tracer
	ctx     Context
	parent  uint64
	name    string
	agent   string
	session string
	shard   string
	start   time.Time
}

// Context returns the span's propagation context (invalid for no-ops).
func (s *Span) Context() Context { return s.ctx }

// SetAgent labels the span with the bus name of the agent doing the work.
func (s *Span) SetAgent(name string) {
	if s.tr != nil {
		s.agent = name
	}
}

// SetSession labels the span with a negotiation session id.
func (s *Span) SetSession(session string) {
	if s.tr != nil {
		s.session = session
	}
}

// SetShard labels the span with a shard/concentrator name for /trace
// filtering.
func (s *Span) SetShard(shard string) {
	if s.tr != nil {
		s.shard = shard
	}
}

// End completes the span and writes it into the tracer's ring.
func (s *Span) End() {
	if s.tr == nil {
		return
	}
	s.tr.record(s)
	s.tr = nil // double End stays a no-op
}

// ringRec is the in-ring representation of a completed span: ids stay
// numeric so recording never allocates; hex rendering happens at serve
// time in Records.
type ringRec struct {
	trace, span, parent uint64
	name                string
	agent               string
	session             string
	shard               string
	startUs             int64
	durUs               int64
}

// Tracer owns one process's span ring. All methods are safe for
// concurrent use.
type Tracer struct {
	proc string
	seed uint64
	ids  atomic.Uint64

	mu   sync.Mutex
	ring *ring.Buffer[ringRec]
}

// NewTracer builds a tracer with a fixed ring of ringSize completed spans
// (minimum 16). proc labels every record with the owning process.
func NewTracer(proc string, ringSize int) *Tracer {
	if ringSize < 16 {
		ringSize = 16
	}
	return &Tracer{
		proc: proc,
		seed: uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32,
		ring: ring.New[ringRec](ringSize),
	}
}

// Proc returns the tracer's process label.
func (t *Tracer) Proc() string { return t.proc }

// newID derives a fresh 64-bit id from the per-process seed and a counter
// (splitmix64 finalizer), so ids are unique within a process and collide
// across processes only with negligible probability.
func (t *Tracer) newID() uint64 {
	x := t.seed + t.ids.Add(1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// Root opens a span that starts a new trace.
func (t *Tracer) Root(name string) Span {
	if t == nil {
		return Span{}
	}
	id := t.newID()
	return Span{
		tr:    t,
		ctx:   Context{Trace: t.newID(), Span: id},
		name:  name,
		start: time.Now(),
	}
}

// Child opens a span under parent. An invalid parent starts a new trace,
// so instrumentation points never have to special-case "first hop".
func (t *Tracer) Child(parent Context, name string) Span {
	if t == nil {
		return Span{}
	}
	if !parent.Valid() {
		return t.Root(name)
	}
	return Span{
		tr:     t,
		ctx:    Context{Trace: parent.Trace, Span: t.newID()},
		parent: parent.Span,
		name:   name,
		start:  time.Now(),
	}
}

// record copies a finished span into the ring without allocating.
func (t *Tracer) record(s *Span) {
	rec := ringRec{
		trace:   s.ctx.Trace,
		span:    s.ctx.Span,
		parent:  s.parent,
		name:    s.name,
		agent:   s.agent,
		session: s.session,
		shard:   s.shard,
		startUs: s.start.UnixMicro(),
		durUs:   time.Since(s.start).Microseconds(),
	}
	t.mu.Lock()
	t.ring.Push(rec)
	t.mu.Unlock()
}

// Filter selects spans from the ring. Zero fields match everything.
type Filter struct {
	Session string
	Shard   string // matches the Shard label, or the Agent label containing it
	Trace   string // hex trace id
	Limit   int    // keep only the newest N matches (0 = all)
}

// Match reports whether a span of trace traceID, labelled session, shard and
// agent, passes the filter; a Shard passes the span's shard label or an agent
// name containing it (agent names embed shard tokens like "conc-s3-up"). It is
// the one span predicate: the tracer's ring and the fleet hub's merged rings
// both select through it. Limit is the caller's: keep the newest Limit
// matches.
func (f Filter) Match(traceID uint64, session, shard, agent string) bool {
	if f.Session != "" && session != f.Session {
		return false
	}
	if f.Trace != "" {
		if id, ok := ParseID(f.Trace); !ok || id != traceID {
			return false
		}
	}
	return f.Shard == "" || shard == f.Shard || strings.Contains(agent, f.Shard)
}

// render is the served form of a ring entry: ids to hex, proc attached.
func (t *Tracer) render(r *ringRec) Record {
	rec := Record{
		Trace:   hexID(r.trace),
		Span:    hexID(r.span),
		Name:    r.name,
		Proc:    t.proc,
		Agent:   r.agent,
		Session: r.session,
		Shard:   r.shard,
		StartUs: r.startUs,
		DurUs:   r.durUs,
	}
	if r.parent != 0 {
		rec.Parent = hexID(r.parent)
	}
	return rec
}

// Records returns matching spans oldest-first, rendering ids to hex.
func (t *Tracer) Records(f Filter) []Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Record, 0, t.ring.Len())
	for i := 0; i < t.ring.Len(); i++ {
		if r := t.ring.At(i); f.Match(r.trace, r.session, r.shard, r.agent) {
			out = append(out, t.render(&r))
		}
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// Stats reports ring occupancy: spans recorded and spans lost to wrap.
func (t *Tracer) Stats() (total, dropped uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Total(), t.ring.Dropped()
}

// DrainSince returns every span recorded after the cursor (a total-count
// position from a previous drain; 0 drains from the beginning), oldest
// first, plus the new cursor and the count of spans that wrapped out of the
// ring before this drain could reach them. It is the streaming export path:
// an obsplane emitter keeps the cursor between flushes and ships exactly
// the new spans, with losses accounted rather than silent.
func (t *Tracer) DrainSince(cursor uint64) (recs []Record, newCursor, missed uint64) {
	// Only the raw entry copy happens under the lock: hex rendering allocates
	// per record, and a full-ring drain must not stall Span.End on the hot
	// path. Entries are value types whose strings are never mutated in place,
	// so shallow copies stay valid after unlock.
	t.mu.Lock()
	raw, missed := t.ring.Since(cursor)
	newCursor = t.ring.Total()
	t.mu.Unlock()
	if len(raw) == 0 {
		return nil, newCursor, missed
	}
	recs = make([]Record, len(raw))
	for i := range raw {
		recs[i] = t.render(&raw[i])
	}
	return recs, newCursor, missed
}

const hexDigits = "0123456789abcdef"

// hexID renders an id as fixed-width lowercase hex without fmt.
func hexID(v uint64) string {
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[v&0xf]
		v >>= 4
	}
	// Fixed 16-digit width: lexicographic order equals numeric order, and
	// every id keys a map cell of the same size.
	return string(b[:])
}

// ParseID parses a hex id produced by hexID (used by tests and the
// /trace filter).
func ParseID(s string) (uint64, bool) {
	if s == "" {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		if bits.LeadingZeros64(v) < 4 {
			return 0, false // overflow
		}
		v = v<<4 | d
	}
	return v, true
}

// ----- package-level default tracer -----

var (
	enabled atomic.Bool
	active  atomic.Pointer[Tracer]
)

// Enable installs a process-wide tracer and returns it. Safe to call
// again (replaces the ring).
func Enable(proc string, ringSize int) *Tracer {
	t := NewTracer(proc, ringSize)
	active.Store(t)
	enabled.Store(true)
	return t
}

// Disable turns package-level tracing off. Outstanding spans still End
// into the old ring harmlessly.
func Disable() {
	enabled.Store(false)
	active.Store(nil)
}

// Enabled reports whether package-level tracing is on. This is the single
// atomic load paid by every instrumentation point when tracing is off.
func Enabled() bool { return enabled.Load() }

// Active returns the installed tracer, or nil when disabled.
func Active() *Tracer {
	if !enabled.Load() {
		return nil
	}
	return active.Load()
}

// Root opens a root span on the active tracer (no-op Span when disabled).
func Root(name string) Span {
	t := Active()
	if t == nil {
		return Span{}
	}
	return t.Root(name)
}

// Child opens a child span on the active tracer (no-op when disabled).
func Child(parent Context, name string) Span {
	t := Active()
	if t == nil {
		return Span{}
	}
	return t.Child(parent, name)
}

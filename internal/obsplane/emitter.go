package obsplane

import (
	"strings"
	"sync"
	"time"

	"loadbalance/internal/bus"
	"loadbalance/internal/health"
	"loadbalance/internal/message"
	"loadbalance/internal/trace"
)

// EmitterConfig parameterises one process's observability stream.
type EmitterConfig struct {
	// Hub is the root hub's dial address.
	Hub string
	// Proc is this process's label (trace proc, log proc) — it becomes the
	// wire connection name, so it must be unique across the fleet.
	Proc string
	// Role names what kind of process this is ("worker", "live", "standby",
	// "serve", ...), served verbatim on /fleet/status.
	Role string
	// Addr is this process's own serving address, if any (informational).
	Addr string
	// Interval is the flush cadence (default 250ms).
	Interval time.Duration
	// MinLevel is the lowest log level streamed (the zero value streams
	// Debug and up — the logger's own gate already bounds what the ring
	// holds).
	MinLevel health.Level
	// Window bounds unacked batches held for resend; when it fills the
	// emitter sheds flushes (counted in Stats) instead of growing without
	// bound (default 8).
	Window int
	// Redial is the reconnect backoff after a lost hub connection
	// (default 200ms).
	Redial time.Duration
	// Metrics is this process's registry; each flush streams what it
	// gathers (histogram _bucket series are skipped to keep batches lean).
	// Nil streams no metrics.
	Metrics *trace.Registry
	// Logger is the drained log ring (default health.Default()).
	Logger *health.Logger
	// Tracer returns the drained span ring per flush (default the
	// process-wide trace.Active, resolved at flush time so late Enable
	// still streams).
	Tracer func() *trace.Tracer
}

// withDefaults fills unset fields.
func (c EmitterConfig) withDefaults() EmitterConfig {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.Redial <= 0 {
		c.Redial = 200 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = health.Default()
	}
	if c.Tracer == nil {
		c.Tracer = trace.Active
	}
	return c
}

// EmitterStats counts the stream's life so far.
type EmitterStats struct {
	Batches      uint64 `json:"batches"`      // flushed batches (incl. resends once each)
	Acked        uint64 `json:"acked"`        // highest acked sequence
	Sheds        uint64 `json:"sheds"`        // flushes skipped because the resend window was full
	Dials        uint64 `json:"dials"`        // successful hub connections
	Resubscribes uint64 `json:"resubscribes"` // subscriptions after the first
	MissedLogs   uint64 `json:"missedLogs"`   // log events lost to ring wrap before draining
	MissedSpans  uint64 `json:"missedSpans"`  // spans lost to ring wrap before draining
}

// Emitter streams one process's observability state to the hub. Start it
// with StartEmitter; Close flushes once more (with the Closing mark) and
// waits briefly for the ack so final spans reach the root before exit.
type Emitter struct {
	cfg EmitterConfig

	mu      sync.Mutex
	stats   EmitterStats
	pending []message.ObsBatch // unacked, oldest first
	seq     uint64
	logCur  uint64
	spanCur uint64

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// StartEmitter begins streaming to cfg.Hub. The emitter survives hub
// restarts: it redials forever (until Close), re-subscribes, and resends
// its unacked window.
func StartEmitter(cfg EmitterConfig) *Emitter {
	e := &Emitter{
		cfg:  cfg.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go e.loop()
	return e
}

// Stats snapshots the stream counters.
func (e *Emitter) Stats() EmitterStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Close flushes a final Closing batch, waits briefly for its ack, and
// stops the stream.
func (e *Emitter) Close() {
	e.stopOnce.Do(func() { close(e.stop) })
	<-e.done
}

// loop is the emitter goroutine: dial, subscribe, resend, then flush on a
// ticker and trim on acks until the connection dies (redial) or Close.
func (e *Emitter) loop() {
	defer close(e.done)
	for {
		cli := e.dial()
		if cli == nil {
			return // closed while dialing
		}
		if !e.session(cli) {
			cli.Close()
			return // closed during the session
		}
		cli.Close()
		// Connection lost: back off, then redial and resume.
		select {
		case <-e.stop:
			return
		case <-time.After(e.cfg.Redial):
		}
	}
}

// dial connects to the hub, retrying until it succeeds or Close is called
// (nil return).
func (e *Emitter) dial() *bus.Client {
	for {
		cli, err := bus.Dial(e.cfg.Hub, e.cfg.Proc)
		if err == nil {
			e.mu.Lock()
			e.stats.Dials++
			dials := e.stats.Dials
			e.mu.Unlock()
			if dials > 1 {
				e.cfg.Logger.Log(health.Info, "obsplane", "hub reconnected",
					health.Str("proc", e.cfg.Proc), health.Str("hub", e.cfg.Hub))
			}
			return cli
		}
		select {
		case <-e.stop:
			return nil
		case <-time.After(e.cfg.Redial):
		}
	}
}

// session runs one connection's lifetime. It returns false when the
// emitter is closing (final flush already sent), true when the connection
// died and the loop should redial.
func (e *Emitter) session(cli *bus.Client) bool {
	if !e.subscribe(cli) {
		return true
	}
	// Resend the unacked window: the hub drops duplicates by sequence, so
	// racing a late ack is harmless.
	e.mu.Lock()
	resend := append([]message.ObsBatch(nil), e.pending...)
	e.mu.Unlock()
	for i := range resend {
		if e.send(cli, resend[i]) != nil {
			return true
		}
	}

	ticker := time.NewTicker(e.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			e.finalFlush(cli)
			return false
		case <-ticker.C:
			if err := e.flush(cli, false); err != nil {
				return true
			}
		case env, ok := <-cli.Inbox():
			if !ok {
				return true
			}
			e.handleAck(env)
		}
	}
}

// subscribe announces this process's identity.
func (e *Emitter) subscribe(cli *bus.Client) bool {
	e.mu.Lock()
	if e.stats.Dials > 1 {
		e.stats.Resubscribes++
	}
	e.mu.Unlock()
	return e.sendPayload(cli, message.ObsSubscribe{
		Proc:     e.cfg.Proc,
		Role:     e.cfg.Role,
		Addr:     e.cfg.Addr,
		MinLevel: e.cfg.MinLevel.String(),
	}) == nil
}

// handleAck trims the resend window up to the acked sequence.
func (e *Emitter) handleAck(env message.Envelope) {
	p, err := env.Decode()
	if err != nil {
		return
	}
	ack, ok := p.(message.ObsAck)
	if !ok {
		return
	}
	e.mu.Lock()
	if ack.Seq > e.stats.Acked {
		e.stats.Acked = ack.Seq
	}
	i := 0
	for i < len(e.pending) && e.pending[i].Seq <= ack.Seq {
		i++
	}
	e.pending = e.pending[i:]
	e.mu.Unlock()
}

// flush drains the rings into one batch and ships it. With the resend
// window full it sheds instead — the rings keep wrapping and the next
// successful drain ships the wrap losses as Missed counters, so
// backpressure degrades coverage, never memory.
func (e *Emitter) flush(cli *bus.Client, closing bool) error {
	e.mu.Lock()
	if !closing && len(e.pending) >= e.cfg.Window {
		e.stats.Sheds++
		e.mu.Unlock()
		return nil
	}
	e.seq++
	batch := message.ObsBatch{Seq: e.seq, Closing: closing}
	e.mu.Unlock()

	// Drain outside the emitter lock: ring drains take the ring locks.
	if t := e.cfg.Tracer(); t != nil {
		recs, cur, missed := t.DrainSince(e.loadSpanCur())
		e.storeSpanCur(cur)
		batch.MissedSpans = missed
		if len(recs) > 0 {
			batch.Spans = make([]message.ObsSpan, len(recs))
			for i, r := range recs {
				batch.Spans[i] = message.ObsSpan{
					Trace:   r.Trace,
					Span:    r.Span,
					Parent:  r.Parent,
					Name:    r.Name,
					Agent:   r.Agent,
					Session: r.Session,
					Shard:   r.Shard,
					StartUs: r.StartUs,
					DurUs:   r.DurUs,
				}
			}
		}
	}
	evs, cur, missedLogs := e.cfg.Logger.DrainSince(e.loadLogCur(), e.cfg.MinLevel)
	e.storeLogCur(cur)
	batch.MissedLogs = missedLogs
	if len(evs) > 0 {
		batch.Logs = make([]message.ObsLogEvent, len(evs))
		for i, ev := range evs {
			batch.Logs[i] = message.ObsLogEvent{
				TsUs:      ev.TimeUs,
				Level:     ev.Level,
				Component: ev.Component,
				Msg:       ev.Msg,
				Fields:    ev.Fields,
			}
		}
	}
	if e.cfg.Metrics != nil {
		batch.Metrics = wireSamples(e.cfg.Metrics.Gather())
	}

	e.mu.Lock()
	e.stats.Batches++
	e.stats.MissedLogs += batch.MissedLogs
	e.stats.MissedSpans += batch.MissedSpans
	e.pending = append(e.pending, batch)
	e.mu.Unlock()
	return e.send(cli, batch)
}

// finalFlush ships the Closing batch (window ignored — the last spans must
// go out) and waits briefly for its ack.
func (e *Emitter) finalFlush(cli *bus.Client) {
	if err := e.flush(cli, true); err != nil {
		return
	}
	e.mu.Lock()
	want := e.seq
	e.mu.Unlock()
	deadline := time.After(2 * time.Second)
	for {
		select {
		case <-deadline:
			return
		case env, ok := <-cli.Inbox():
			if !ok {
				return
			}
			e.handleAck(env)
			e.mu.Lock()
			acked := e.stats.Acked
			e.mu.Unlock()
			if acked >= want {
				return
			}
		}
	}
}

// Cursor accessors: the cursors are only touched by the emitter goroutine,
// but Stats readers share the mutex, so keep them under it for -race.
func (e *Emitter) loadSpanCur() uint64   { e.mu.Lock(); defer e.mu.Unlock(); return e.spanCur }
func (e *Emitter) storeSpanCur(v uint64) { e.mu.Lock(); e.spanCur = v; e.mu.Unlock() }
func (e *Emitter) loadLogCur() uint64    { e.mu.Lock(); defer e.mu.Unlock(); return e.logCur }
func (e *Emitter) storeLogCur(v uint64)  { e.mu.Lock(); e.logCur = v; e.mu.Unlock() }

// send ships one batch.
func (e *Emitter) send(cli *bus.Client, b message.ObsBatch) error {
	return e.sendPayload(cli, b)
}

// sendPayload wraps and ships one payload to the hub.
func (e *Emitter) sendPayload(cli *bus.Client, p message.Payload) error {
	env, err := message.NewEnvelope(e.cfg.Proc, hubName, obsSession, p)
	if err != nil {
		return err
	}
	return cli.Send(env)
}

// wireSamples names each gathered sample by its full series (labels
// included) for the wire. Histogram _bucket series stay home: the quantile
// gauges and _sum/_count travel instead.
func wireSamples(samples []trace.Sample) []message.ObsMetricSample {
	out := make([]message.ObsMetricSample, 0, len(samples))
	for _, s := range samples {
		if s.Kind == trace.KindHistogram && strings.HasSuffix(s.Family, "_bucket") {
			continue
		}
		out = append(out, message.ObsMetricSample{Name: s.Series(), Value: s.Value})
	}
	return out
}

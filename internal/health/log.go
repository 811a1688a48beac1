// Package health is the grid's self-observation layer: a structured,
// leveled event logger feeding an in-memory ring (served as JSON on /logs)
// and an optional file sink; a composite feedback score in [0,100] that a
// fronting load balancer can steer by; a rule-driven alert engine over the
// registered gauges and latency-histogram percentiles; and a flight
// recorder that dumps the process's full observability state — trace ring,
// log ring, metrics, alert state — as one atomic bundle when an alert fires
// or the process dies uncleanly.
//
// The logger is built so a disabled-level call costs a couple of atomic
// loads and nothing else: the level gate runs before any formatting, fields
// are passed as plain value structs (no boxing), and the fast path never
// allocates. Hot loops pay ~nanoseconds for a Debug call that nobody is
// listening to.
package health

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"loadbalance/internal/ring"
)

// Level orders event severities. The zero value is Debug so a zero Config
// records everything into the ring.
type Level int32

// Levels, least to most severe. Off disables every call site.
const (
	Debug Level = iota
	Info
	Warn
	Error
	Off
)

// levelNames renders levels in JSON and text output.
var levelNames = [...]string{"debug", "info", "warn", "error", "off"}

// String renders the level name.
func (l Level) String() string {
	if l < Debug || l > Off {
		return "unknown"
	}
	return levelNames[l]
}

// ParseLevel parses a level name (the -log-level flag and the /logs level
// filter).
func ParseLevel(s string) (Level, error) {
	for i, n := range levelNames {
		if s == n {
			return Level(i), nil
		}
	}
	return Off, fmt.Errorf("health: unknown log level %q (want debug|info|warn|error|off)", s)
}

// Field is one structured key/value on an event. Values are strings or
// int64s — the two shapes the hot paths need — so building a Field never
// boxes through an interface and a gated-off call site never allocates.
type Field struct {
	Key   string
	Str   string
	Int   int64
	isInt bool
}

// Str builds a string field.
func Str(k, v string) Field { return Field{Key: k, Str: v} }

// Int builds an integer field.
func Int(k string, v int64) Field { return Field{Key: k, Int: v, isInt: true} }

// Value renders the field's value as a string (JSON and text sinks).
func (f Field) Value() string {
	if f.isInt {
		return strconv.FormatInt(f.Int, 10)
	}
	return f.Str
}

// Event is one recorded log event as served on /logs. Fixed identity
// fields (component, role, shard, session, trace) get first-class JSON
// keys; everything else rides in Fields.
type Event struct {
	TimeUs    int64   `json:"tsUs"` // wall clock, microseconds since epoch
	Level     string  `json:"level"`
	Component string  `json:"component"`
	Msg       string  `json:"msg"`
	Fields    []Field `json:"-"`
}

// event is the in-ring representation: the level stays numeric for
// filtering, the fields slice is an owned copy.
type event struct {
	timeUs    int64
	level     Level
	component string
	msg       string
	fields    []Field
}

// Config parameterises a Logger.
type Config struct {
	// Proc labels the process in /logs output and the file sink (e.g.
	// "gridd-live", matching the trace package's process labels).
	Proc string
	// MinLevel is the recording gate: calls below it cost ~nanoseconds and
	// record nothing.
	MinLevel Level
	// RingSize is the in-memory ring capacity in events (default 2048,
	// minimum 16).
	RingSize int
	// FilePath, when non-empty, appends every recorded event as one JSON
	// line to this file (the durable sink under -data-dir).
	FilePath string
	// StderrLevel mirrors events at or above this level to stderr in a
	// human-readable line — the operator signal for processes without an
	// HTTP endpoint. Off (the default Config's value via DefaultStderr)
	// silences the mirror.
	StderrLevel Level
}

// Logger records structured events into a fixed ring, optionally mirroring
// them to a JSONL file and stderr. All methods are safe for concurrent use;
// a nil *Logger is a valid no-op.
type Logger struct {
	level atomic.Int32
	proc  string

	mu   sync.Mutex
	ring *ring.Buffer[event]
	sink *os.File

	counts [int(Off)]atomic.Uint64 // recorded events per level

	stderrLevel Level
}

// New builds a logger. A FilePath that cannot be opened is an error — a
// silently missing durable sink is worse than a failed start.
func New(cfg Config) (*Logger, error) {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 2048
	}
	if cfg.RingSize < 16 {
		cfg.RingSize = 16
	}
	l := &Logger{
		proc:        cfg.Proc,
		ring:        ring.New[event](cfg.RingSize),
		stderrLevel: cfg.StderrLevel,
	}
	l.level.Store(int32(cfg.MinLevel))
	if cfg.FilePath != "" {
		f, err := os.OpenFile(cfg.FilePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("health: log sink: %w", err)
		}
		l.sink = f
	}
	return l, nil
}

// Close releases the file sink, if any.
func (l *Logger) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sink == nil {
		return nil
	}
	err := l.sink.Close()
	l.sink = nil
	return err
}

// Proc returns the logger's process label.
func (l *Logger) Proc() string {
	if l == nil {
		return ""
	}
	return l.proc
}

// SetLevel moves the recording gate at runtime.
func (l *Logger) SetLevel(lv Level) {
	if l != nil {
		l.level.Store(int32(lv))
	}
}

// Enabled reports whether a level would record — the single atomic load a
// disabled call site pays.
func (l *Logger) Enabled(lv Level) bool {
	return l != nil && lv < Off && lv >= Level(l.level.Load())
}

// Log records one event. The level gate runs before anything else, so a
// disabled call returns in nanoseconds without touching the fields.
// Callers pass identity via well-known field keys ("role", "shard",
// "session", "trace") plus anything event-specific.
func (l *Logger) Log(lv Level, component, msg string, fields ...Field) {
	if !l.Enabled(lv) {
		return
	}
	l.record(lv, component, msg, fields)
}

// Logf records one formatted event (convenience for cold paths; hot paths
// should pass Fields so a disabled call never formats).
func (l *Logger) Logf(lv Level, component, format string, args ...any) {
	if !l.Enabled(lv) {
		return
	}
	l.record(lv, component, fmt.Sprintf(format, args...), nil)
}

// record copies the event into the ring and mirrors it to the sinks. It
// copies the fields rather than retaining the argument slice, which keeps
// the caller's variadic backing array off the heap on the disabled path.
func (l *Logger) record(lv Level, component, msg string, fields []Field) {
	ev := event{
		timeUs:    time.Now().UnixMicro(),
		level:     lv,
		component: component,
		msg:       msg,
	}
	if len(fields) > 0 {
		ev.fields = append(make([]Field, 0, len(fields)), fields...)
	}
	l.counts[lv].Add(1)

	var line []byte
	l.mu.Lock()
	l.ring.Push(ev)
	if l.sink != nil {
		line = appendEventJSON(nil, l.proc, &ev)
		line = append(line, '\n')
		_, _ = l.sink.Write(line)
	}
	l.mu.Unlock()

	if lv >= l.stderrLevel && l.stderrLevel < Off {
		fmt.Fprintf(os.Stderr, "%s %s %s: %s%s\n", //gridlint:allow structuredlog(this is the structured logger itself: its warn+ stderr mirror)
			time.UnixMicro(ev.timeUs).UTC().Format(time.RFC3339Nano),
			lv, component, msg, renderFields(ev.fields))
	}
}

// renderFields renders fields as " k=v k=v" for the stderr mirror.
func renderFields(fields []Field) string {
	if len(fields) == 0 {
		return ""
	}
	out := ""
	for _, f := range fields {
		out += " " + f.Key + "=" + f.Value()
	}
	return out
}

// Filter selects events from the ring. Zero fields match everything.
type LogFilter struct {
	MinLevel  Level
	Component string
	Limit     int // keep only the newest N matches (0 = all)
}

// Events returns matching ring events oldest-first.
func (l *Logger) Events(f LogFilter) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.ring.Len())
	for i := 0; i < l.ring.Len(); i++ {
		ev := l.ring.At(i)
		if ev.level < f.MinLevel {
			continue
		}
		if f.Component != "" && ev.component != f.Component {
			continue
		}
		out = append(out, Event{
			TimeUs:    ev.timeUs,
			Level:     ev.level.String(),
			Component: ev.component,
			Msg:       ev.msg,
			Fields:    ev.fields,
		})
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// StreamEvent is one log event rendered for cross-process streaming: the
// ring entry with its dynamic fields pre-rendered to a JSON object, so the
// transit payload and the receiver need no knowledge of the Field type.
type StreamEvent struct {
	TimeUs    int64
	Level     string
	Component string
	Msg       string
	Fields    []byte // JSON object, nil when the event has no fields
}

// DrainSince returns every event recorded after the cursor (a total-count
// position from a previous drain; 0 drains from the beginning) at or above
// min, oldest first, plus the new cursor and the count of events that
// wrapped out of the ring before this drain reached them. The streaming
// export path: an obsplane emitter keeps the cursor between flushes.
func (l *Logger) DrainSince(cursor uint64, min Level) (evs []StreamEvent, newCursor, missed uint64) {
	if l == nil {
		return nil, cursor, 0
	}
	// Copy raw entries under the lock, render outside it: field-JSON
	// encoding allocates, and a full-ring drain must not stall Log on the
	// hot path. Each entry owns its fields slice and nothing mutates it
	// after record, so shallow copies stay valid after unlock.
	l.mu.Lock()
	raw, missed := l.ring.Since(cursor)
	newCursor = l.ring.Total()
	l.mu.Unlock()
	if len(raw) == 0 {
		return nil, newCursor, missed
	}
	evs = make([]StreamEvent, 0, len(raw))
	for i := range raw {
		ev := &raw[i]
		if ev.level < min {
			continue
		}
		se := StreamEvent{
			TimeUs:    ev.timeUs,
			Level:     ev.level.String(),
			Component: ev.component,
			Msg:       ev.msg,
		}
		if len(ev.fields) > 0 {
			se.Fields = appendFieldsJSON(nil, ev.fields)
		}
		evs = append(evs, se)
	}
	return evs, newCursor, missed
}

// Stats reports ring occupancy and per-level counts.
func (l *Logger) Stats() (total, dropped uint64, perLevel [int(Off)]uint64) {
	if l == nil {
		return 0, 0, perLevel
	}
	l.mu.Lock()
	total, dropped = l.ring.Total(), l.ring.Dropped()
	l.mu.Unlock()
	for i := range l.counts {
		perLevel[i] = l.counts[i].Load()
	}
	return total, dropped, perLevel
}

// ----- package-level default logger -----

// def is the process-wide logger. It is never nil: the zero-config default
// records Info+ into a ring and mirrors Warn+ to stderr, so library call
// sites (bus, replica, telemetry) have somewhere sensible to log before —
// or without — a command installing its own.
var def atomic.Pointer[Logger]

func init() {
	l, _ := New(Config{Proc: "proc", MinLevel: Info, StderrLevel: Warn})
	def.Store(l)
}

// Init installs a process-wide logger built from cfg and returns it.
func Init(cfg Config) (*Logger, error) {
	l, err := New(cfg)
	if err != nil {
		return nil, err
	}
	def.Store(l)
	return l, nil
}

// Default returns the process-wide logger (never nil).
func Default() *Logger { return def.Load() }

// Enabled reports whether the process-wide logger records at lv.
func Enabled(lv Level) bool { return Default().Enabled(lv) }

// Log records one event on the process-wide logger. This is the call shape
// hot paths use; when the level is gated off it costs two atomic loads.
func Log(lv Level, component, msg string, fields ...Field) {
	Default().Log(lv, component, msg, fields...)
}

// Logf records one formatted event on the process-wide logger.
func Logf(lv Level, component, format string, args ...any) {
	Default().Logf(lv, component, format, args...)
}

package health

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"loadbalance/internal/trace"
)

func newTestLogger(t *testing.T, cfg Config) *Logger {
	t.Helper()
	if cfg.StderrLevel == Debug {
		cfg.StderrLevel = Off // keep test output quiet unless asked
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestLevelGate(t *testing.T) {
	l := newTestLogger(t, Config{MinLevel: Warn})
	l.Log(Debug, "c", "dropped")
	l.Log(Info, "c", "dropped")
	l.Log(Warn, "c", "kept")
	l.Log(Error, "c", "kept")
	evs := l.Events(LogFilter{})
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2: %+v", len(evs), evs)
	}
	if l.Enabled(Info) || !l.Enabled(Warn) {
		t.Fatalf("Enabled gate wrong: info=%v warn=%v", l.Enabled(Info), l.Enabled(Warn))
	}
	l.SetLevel(Debug)
	if !l.Enabled(Debug) {
		t.Fatal("SetLevel(Debug) did not open the gate")
	}
	l.SetLevel(Off)
	l.Log(Error, "c", "gated off")
	if got := len(l.Events(LogFilter{})); got != 2 {
		t.Fatalf("Off level still recorded: %d events", got)
	}
}

// TestGatedLogAllocs pins what a log site costs while its level is gated off,
// the default state of the Debug sites on the hot paths: one atomic load, and
// typed fields that keep the variadic slice off the heap. Exact — the logger
// runs no goroutine.
func TestGatedLogAllocs(t *testing.T) {
	l := newTestLogger(t, Config{MinLevel: Warn})
	var i int64
	got := testing.AllocsPerRun(1000, func() {
		i++
		l.Log(Debug, "bus", "client inbox full", Str("client", "c01"), Int("dropped", i))
	})
	if got != 0 {
		t.Errorf("a below-level Log with two fields allocates %v times, want 0", got)
	}
	if total, _, _ := l.Stats(); total != 0 {
		t.Errorf("a below-level Log recorded %d events", total)
	}
}

func TestRingWrapAndDropCount(t *testing.T) {
	l := newTestLogger(t, Config{MinLevel: Debug, RingSize: 16})
	for i := 0; i < 40; i++ {
		l.Log(Info, "c", "m", Int("i", int64(i)))
	}
	evs := l.Events(LogFilter{})
	if len(evs) != 16 {
		t.Fatalf("ring holds %d, want 16", len(evs))
	}
	// Oldest-first: the ring must hold events 24..39 in order.
	for i, ev := range evs {
		if want := int64(24 + i); ev.Fields[0].Int != want {
			t.Fatalf("event %d has i=%d, want %d", i, ev.Fields[0].Int, want)
		}
	}
	total, dropped, perLevel := l.Stats()
	if total != 40 || dropped != 24 {
		t.Fatalf("total=%d dropped=%d, want 40/24", total, dropped)
	}
	if perLevel[Info] != 40 {
		t.Fatalf("perLevel[info]=%d, want 40", perLevel[Info])
	}
}

func TestEventsFilter(t *testing.T) {
	l := newTestLogger(t, Config{MinLevel: Debug})
	l.Log(Debug, "bus", "d")
	l.Log(Info, "bus", "i")
	l.Log(Warn, "replica", "w")
	if got := len(l.Events(LogFilter{MinLevel: Info})); got != 2 {
		t.Fatalf("MinLevel filter: got %d, want 2", got)
	}
	if got := len(l.Events(LogFilter{Component: "bus"})); got != 2 {
		t.Fatalf("Component filter: got %d, want 2", got)
	}
	evs := l.Events(LogFilter{Limit: 1})
	if len(evs) != 1 || evs[0].Msg != "w" {
		t.Fatalf("Limit filter: got %+v, want newest (w)", evs)
	}
}

func TestFileSinkWritesJSONL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "grid.log")
	l := newTestLogger(t, Config{Proc: "test-proc", MinLevel: Debug, FilePath: path, StderrLevel: Off})
	l.Log(Info, "bus", "hello", Str("role", "primary"), Int("shard", 3))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read sink: %v", err)
	}
	line := strings.TrimSpace(string(data))
	var doc map[string]any
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		t.Fatalf("sink line not JSON: %v\n%s", err, line)
	}
	for k, want := range map[string]any{
		"level": "info", "proc": "test-proc", "component": "bus",
		"msg": "hello", "role": "primary", "shard": float64(3),
	} {
		if doc[k] != want {
			t.Fatalf("sink field %q = %v, want %v (line %s)", k, doc[k], want, line)
		}
	}
}

func TestLogHandler(t *testing.T) {
	l := newTestLogger(t, Config{MinLevel: Debug})
	l.Log(Info, "bus", "a")
	l.Log(Warn, "replica", "b")

	get := func(q string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		LogHandler(l)(rec, httptest.NewRequest("GET", "/logs"+q, nil))
		return rec
	}

	rec := get("")
	if rec.Code != 200 {
		t.Fatalf("GET /logs: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var doc struct {
		Total   uint64           `json:"total"`
		Dropped uint64           `json:"dropped"`
		Events  []map[string]any `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if doc.Total != 2 || len(doc.Events) != 2 {
		t.Fatalf("total=%d events=%d, want 2/2", doc.Total, len(doc.Events))
	}

	if rec := get("?level=warn&component=replica&limit=5"); rec.Code != 200 {
		t.Fatalf("filtered GET: %d", rec.Code)
	} else {
		var d struct {
			Events []map[string]any `json:"events"`
		}
		_ = json.Unmarshal(rec.Body.Bytes(), &d)
		if len(d.Events) != 1 || d.Events[0]["msg"] != "b" {
			t.Fatalf("filtered events = %+v", d.Events)
		}
	}

	for _, q := range []string{"?level=bogus", "?limit=xyz", "?limit=0", "?limit=-3"} {
		if rec := get(q); rec.Code != 400 {
			t.Fatalf("GET /logs%s = %d, want 400", q, rec.Code)
		}
	}
}

func TestDefaultLoggerInstall(t *testing.T) {
	old := Default()
	defer def.Store(old)
	l, err := Init(Config{Proc: "install-test", MinLevel: Debug, StderrLevel: Off})
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	Log(Debug, "c", "via package")
	if got := len(l.Events(LogFilter{})); got != 1 {
		t.Fatalf("package-level Log missed installed logger: %d events", got)
	}
}

func TestWriteLogMetrics(t *testing.T) {
	l := newTestLogger(t, Config{MinLevel: Debug})
	l.Log(Warn, "c", "w")
	samples := l.Samples(nil)
	for series, want := range map[string]float64{
		`health_log_events_total{level="warn"}`: 1,
		`health_log_events_total{level="info"}`: 0,
		"health_log_ring_total":                 1,
		"health_log_ring_dropped_total":         0,
	} {
		if got, ok := trace.Value(samples, series); !ok || got != want {
			t.Fatalf("%s = %g (found %v), want %g", series, got, ok, want)
		}
	}
	for _, s := range samples {
		if s.Kind != trace.KindCounter {
			t.Fatalf("%s has kind %v, want counter", s.Series(), s.Kind)
		}
	}
}

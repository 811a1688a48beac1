package health

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"loadbalance/internal/trace"
)

// Strings a peer or an operator can put into a log field, a dump reason or a
// rule name, and what a JSON reader must get back: everything but the invalid
// byte, which no JSON string can carry, intact.
const (
	hostileMsg  = "dial tcp: \x1b[31mrefused\a \"quoted\" back\\slash\v\x7f"
	hostileErr  = "bad \xff byte"
	readBackErr = "bad � byte"
)

// TestJSONSurfacesEscapeAsJSON holds every hand-rolled JSON document of the
// package to encoding/json: Go-syntax escapes (\x1b, \a, \xff) made each of
// them unparseable.
func TestJSONSurfacesEscapeAsJSON(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "gridd.log")
	l := newTestLogger(t, Config{Proc: hostileMsg, MinLevel: Debug, FilePath: logPath})
	l.Log(Info, "client", hostileMsg, Str("err", hostileErr), Str(hostileMsg, "v"))

	checkEvent := func(t *testing.T, where string, raw []byte) {
		t.Helper()
		var ev map[string]any
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatalf("%s is not JSON: %v\n%s", where, err, raw)
		}
		if ev["msg"] != hostileMsg || ev["err"] != readBackErr || ev[hostileMsg] != "v" {
			t.Errorf("%s read back msg %q, err %q, hostile key %q", where, ev["msg"], ev["err"], ev[hostileMsg])
		}
	}

	t.Run("logs", func(t *testing.T) {
		rec := httptest.NewRecorder()
		LogHandler(l)(rec, httptest.NewRequest("GET", "/logs", nil))
		var doc struct {
			Proc   string            `json:"proc"`
			Events []json.RawMessage `json:"events"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("/logs is not JSON: %v\n%s", err, rec.Body.Bytes())
		}
		if doc.Proc != hostileMsg || len(doc.Events) != 1 {
			t.Fatalf("/logs read back proc %q and %d events", doc.Proc, len(doc.Events))
		}
		checkEvent(t, "/logs event", doc.Events[0])
	})

	t.Run("log file", func(t *testing.T) {
		line, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		checkEvent(t, "gridd.log line", bytes.TrimSpace(line))
	})

	t.Run("streamed fields", func(t *testing.T) {
		evs, _, _ := l.DrainSince(0, Debug)
		var fields map[string]string
		if err := json.Unmarshal(evs[0].Fields, &fields); err != nil {
			t.Fatalf("StreamEvent.Fields is not JSON: %v\n%s", err, evs[0].Fields)
		}
		if fields["err"] != readBackErr || fields[hostileMsg] != "v" {
			t.Errorf("StreamEvent.Fields read back %q", fields)
		}
	})

	t.Run("meta.json", func(t *testing.T) {
		bundle, err := NewRecorder(filepath.Join(dir, "flightrec"), 1, l, trace.NewRegistry()).Dump(hostileMsg, hostileErr)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(bundle, "meta.json"))
		if err != nil {
			t.Fatal(err)
		}
		var meta BundleMeta
		if err := json.Unmarshal(raw, &meta); err != nil {
			t.Fatalf("meta.json is not JSON: %v\n%s", err, raw)
		}
		if meta.Proc != hostileMsg || meta.Reason != hostileMsg || meta.Detail != readBackErr {
			t.Errorf("meta.json read back %+v", meta)
		}
		if raw, err = os.ReadFile(filepath.Join(bundle, "logs.json")); err != nil || !json.Valid(raw) {
			t.Errorf("logs.json is not JSON (%v):\n%s", err, raw)
		}
	})

	t.Run("alerts", func(t *testing.T) {
		e := NewEngine([]RuleConfig{{Name: hostileMsg, Metric: hostileErr, Op: ">", Threshold: 1, For: 1}}, l)
		e.Metrics = trace.NewRegistry()
		rec := httptest.NewRecorder()
		AlertsHandler(e)(rec, httptest.NewRequest("GET", "/alerts", nil))
		var doc struct {
			Alerts []struct{ Name, Metric string } `json:"alerts"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("/alerts is not JSON: %v\n%s", err, rec.Body.Bytes())
		}
		if len(doc.Alerts) != 1 || doc.Alerts[0].Name != hostileMsg || doc.Alerts[0].Metric != readBackErr {
			t.Errorf("/alerts read back %+v", doc.Alerts)
		}
	})
}

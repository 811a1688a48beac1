package health

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"loadbalance/internal/trace"
)

func TestFlightRecorderBundle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "flightrec")
	l := newTestLogger(t, Config{Proc: "fr-test", MinLevel: Debug})
	l.Log(Warn, "alerts", "alert firing", Str("alert", "overload"))

	util := 2.0
	s := NewScorer(Sources{Utilization: func() float64 { return util }}, DefaultBudgets(), Weights{Utilization: 1})
	s.gcStats = func() (float64, float64) { return 0, 0 }
	s.Compute()

	reg := trace.NewRegistry()
	reg.Register(s.Samples)
	e := NewEngine([]RuleConfig{{Name: "overload", Metric: "feedback_score", Op: "<", Threshold: 40, For: 1}}, l)
	e.Metrics = reg
	reg.Register(e.Samples)
	e.Eval()

	r := NewRecorder(dir, 3, l, reg)
	r.Bind(s, e)
	bundle, err := r.Dump("alert", "overload")
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}

	for _, f := range []string{"meta.json", "trace.json", "logs.json", "metrics.prom", "alerts.json"} {
		if _, err := os.Stat(filepath.Join(bundle, f)); err != nil {
			t.Fatalf("bundle missing %s: %v", f, err)
		}
	}

	metaData, _ := os.ReadFile(filepath.Join(bundle, "meta.json"))
	var meta BundleMeta
	if err := json.Unmarshal(metaData, &meta); err != nil {
		t.Fatalf("meta.json: %v\n%s", err, metaData)
	}
	if meta.Reason != "alert" || meta.Detail != "overload" || meta.Proc != "fr-test" {
		t.Fatalf("meta = %+v", meta)
	}
	if meta.Score != 0 || meta.Firing != 1 {
		t.Fatalf("meta score/firing = %g/%d, want 0/1", meta.Score, meta.Firing)
	}

	logsData, _ := os.ReadFile(filepath.Join(bundle, "logs.json"))
	if !strings.Contains(string(logsData), "alert firing") {
		t.Fatalf("logs.json missing the alert-firing event:\n%s", logsData)
	}
	alertsData, _ := os.ReadFile(filepath.Join(bundle, "alerts.json"))
	if !strings.Contains(string(alertsData), `"state":"firing"`) {
		t.Fatalf("alerts.json missing firing state:\n%s", alertsData)
	}
	// metrics.prom is the registry's page.
	metricsData, _ := os.ReadFile(filepath.Join(bundle, "metrics.prom"))
	for _, want := range []string{"# TYPE feedback_score gauge\nfeedback_score 0\n", `health_alert_firing{alert="overload"} 1`} {
		if !strings.Contains(string(metricsData), want) {
			t.Fatalf("metrics.prom missing %q:\n%s", want, metricsData)
		}
	}
}

func TestFlightRecorderProfileCapture(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "flightrec")
	l := newTestLogger(t, Config{MinLevel: Off})
	r := NewRecorder(dir, 2, l, trace.NewRegistry())
	r.ProfileDur = 50 * time.Millisecond
	bundle, err := r.Dump("alert", "overload")
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	// The heap profile is written inline; the CPU profile lands async.
	if fi, err := os.Stat(filepath.Join(bundle, "heap.pprof")); err != nil || fi.Size() == 0 {
		t.Fatalf("heap.pprof: %v", err)
	}
	r.WaitProfiles()
	if fi, err := os.Stat(filepath.Join(bundle, "cpu.pprof")); err != nil || fi.Size() == 0 {
		t.Fatalf("cpu.pprof after WaitProfiles: %v", err)
	}
	metaData, _ := os.ReadFile(filepath.Join(bundle, "meta.json"))
	var meta BundleMeta
	if err := json.Unmarshal(metaData, &meta); err != nil {
		t.Fatalf("meta.json: %v", err)
	}
	if !strings.Contains(meta.Layout, "heap.pprof") || !strings.Contains(meta.Layout, "cpu.pprof") {
		t.Fatalf("layout missing profile entries: %q", meta.Layout)
	}
	// Keep-N pruning still applies to profiled bundles.
	for i := 0; i < 4; i++ {
		if _, err := r.Dump("test", ""); err != nil {
			t.Fatalf("Dump %d: %v", i, err)
		}
		r.WaitProfiles()
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Fatalf("profiled bundles escaped pruning: %d entries", len(entries))
	}
}

func TestFlightRecorderPrune(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "flightrec")
	l := newTestLogger(t, Config{MinLevel: Off})
	r := NewRecorder(dir, 2, l, trace.NewRegistry())
	for i := 0; i < 5; i++ {
		if _, err := r.Dump("test", ""); err != nil {
			t.Fatalf("Dump %d: %v", i, err)
		}
	}
	// A stale temp dir from a crashed dump gets swept too.
	stale := filepath.Join(dir, ".tmp-crashed")
	os.MkdirAll(stale, 0o755)
	if _, err := r.Dump("test", ""); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 2 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("after prune: %v, want 2 bundles", names)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp dir survived prune: %v", err)
	}
}

func TestCrashDumpHook(t *testing.T) {
	if dir := CrashDump("panic", "no recorder"); dir != "" {
		t.Fatalf("CrashDump without recorder wrote %q", dir)
	}
	dir := filepath.Join(t.TempDir(), "flightrec")
	r := NewRecorder(dir, 2, newTestLogger(t, Config{MinLevel: Off}), trace.NewRegistry())
	SetRecorder(r)
	defer SetRecorder(nil)
	bundle := CrashDump("panic", "boom")
	if bundle == "" {
		t.Fatal("CrashDump wrote nothing")
	}
	if _, err := os.Stat(filepath.Join(bundle, "meta.json")); err != nil {
		t.Fatalf("crash bundle incomplete: %v", err)
	}
}

func TestResponderLine(t *testing.T) {
	for score, want := range map[float64]string{0: "0%\n", 49.6: "50%\n", 100: "100%\n", 120: "100%\n", -3: "0%\n"} {
		if got := feedbackLine(score); got != want {
			t.Errorf("feedbackLine(%g) = %q, want %q", score, got, want)
		}
	}

	// /feedback serves that line for the scorer's current value.
	util := 0.5
	s := NewScorer(Sources{Utilization: func() float64 { return util }}, DefaultBudgets(), Weights{Utilization: 1})
	s.gcStats = func() (float64, float64) { return 0, 0 }
	get := func() string {
		s.Compute()
		rec := httptest.NewRecorder()
		FeedbackHandler(s)(rec, httptest.NewRequest("GET", "/feedback", nil))
		return rec.Body.String()
	}
	if got := get(); got != "100%\n" {
		t.Fatalf("healthy /feedback line = %q", got)
	}
	util = 2.0
	if got := get(); got != "0%\n" {
		t.Fatalf("overloaded /feedback line = %q", got)
	}
}

// TestBundlesSkipsStaging pins what a bundle lister may see: published
// bundles oldest first, never the .tmp- dir a dump is still assembling —
// whose name contains the final bundle's name.
func TestBundlesSkipsStaging(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "flightrec")
	if got, err := Bundles(dir); err != nil || len(got) != 0 {
		t.Fatalf("Bundles before any dump = %v, %v; want none", got, err)
	}
	r := NewRecorder(dir, 4, newTestLogger(t, Config{MinLevel: Off}), trace.NewRegistry())
	first, err := r.Dump("sigquit", "")
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Dump("sigquit", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, stagingPrefix+"20990101T000000Z-sigquit-009"), 0o755); err != nil {
		t.Fatal(err)
	}
	got, err := r.Bundles()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != first || got[1] != second {
		t.Fatalf("Bundles = %v, want [%s %s]", got, first, second)
	}
}

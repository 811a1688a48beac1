package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"loadbalance/internal/health"
	"loadbalance/internal/trace"
)

// startDrillGrid runs an in-process live grid with the given options and
// returns its HTTP address. The grid is cancelled (and its clean shutdown
// asserted) on test cleanup.
func startDrillGrid(t *testing.T, opts options) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	liveErr := make(chan error, 1)
	go func() { liveErr <- runLive(ctx, opts, ready) }()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-liveErr:
			if err != nil {
				t.Errorf("live grid returned %v, want nil on cancellation", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("live grid did not shut down on cancellation")
		}
	})
	select {
	case addr := <-ready:
		return addr
	case <-time.After(10 * time.Second):
		t.Fatal("live grid never became ready")
		return ""
	}
}

// TestEndpointContentTypes audits every HTTP endpoint's Content-Type:
// Prometheus exposition text on /metrics, JSON documents everywhere else,
// plain text on /feedback.
func TestEndpointContentTypes(t *testing.T) {
	addr := startDrillGrid(t, options{
		addr: "127.0.0.1:0", customers: 16, shards: 4,
		tick: 20 * time.Millisecond, seed: 1, spikeTick: -1,
		tsdbInterval: 50 * time.Millisecond,
	})
	auditEndpoints(t, addr, []endpointRow{
		{"/healthz", "application/json"},
		{"/metrics", "text/plain; version=0.0.4"},
		{"/replication", "application/json"},
		{"/awards", "application/json"},
		{"/trace", "application/json"},
		{"/logs", "application/json"},
		{"/alerts", "application/json"},
		{"/feedback", "text/plain; charset=utf-8"},
		{"/query?series=feedback_score", "application/json"},
		// This grid hosts no hub; -pprof is off.
		{"/fleet/status", ""},
		{"/debug/pprof/", ""},
	})
}

// endpointRow is one line of a role's endpoint contract: the Content-Type a
// path answers 200 with, or "" for a path the role must not serve (404).
type endpointRow struct{ path, contentType string }

// auditEndpoints checks one role's HTTP surface against its table and returns
// the bodies by path. endpoints.mux mounts every role's paths, so the three
// role tables differ only in their rows.
func auditEndpoints(t *testing.T, addr string, table []endpointRow) map[string]string {
	t.Helper()
	bodies := make(map[string]string, len(table))
	for _, row := range table {
		resp, err := http.Get("http://" + addr + row.path)
		if err != nil {
			t.Fatalf("GET %s: %v", row.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		bodies[row.path] = string(body)
		wantStatus := http.StatusOK
		if row.contentType == "" {
			wantStatus = http.StatusNotFound
		}
		if resp.StatusCode != wantStatus {
			t.Errorf("GET %s: status %d, want %d", row.path, resp.StatusCode, wantStatus)
		}
		if got := resp.Header.Get("Content-Type"); row.contentType != "" && got != row.contentType {
			t.Errorf("GET %s: Content-Type %q, want %q", row.path, got, row.contentType)
		}
	}
	return bodies
}

// TestOneMux keeps endpoints.go the only place in the command that builds an
// HTTP mux, binds an HTTP listener, hosts an obs hub or starts a replication
// sender — what makes a path's presence on a role a row of one function.
func TestOneMux(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, call := range []string{"http.NewServeMux(", `net.Listen("tcp"`, "obsplane.StartHub(", "replica.StartSender("} {
		var sites []string
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < strings.Count(string(src), call); i++ {
				sites = append(sites, f)
			}
		}
		if len(sites) != 1 || sites[0] != "endpoints.go" {
			t.Errorf("%s is called in %v, want only endpoints.go once", call, sites)
		}
	}
}

// drillAlert mirrors one /alerts entry (the hand-rolled JSON document).
type drillAlert struct {
	Name      string  `json:"name"`
	State     string  `json:"state"`
	Value     float64 `json:"value"`
	FireCount int     `json:"fireCount"`
}

// drillHealthz mirrors the /healthz fields the drill samples.
type drillHealthz struct {
	Score      float64 `json:"feedbackScore"`
	Components []struct {
		Name   string  `json:"name"`
		Raw    float64 `json:"raw"`
		Health float64 `json:"health"`
	} `json:"feedbackComponents"`
	AlertsFiring int `json:"alertsFiring"`
}

// TestOverloadDrill is the operational acceptance drill: a demand spike
// degrades the composite feedback score, the overload alert fires after its
// sustain window and writes a flight-recorder bundle, and once the spike
// ends and the grid re-negotiates, the score recovers and the alert
// resolves. Along the way the drill checks the score's utilization
// component maps load to health monotonically and that /feedback speaks the
// agent-check line protocol.
func TestOverloadDrill(t *testing.T) {
	trace.Disable()
	t.Cleanup(trace.Disable)
	trace.Enable("gridd-drill", 8192)

	// CI points GRIDD_DRILL_DIR at a directory it uploads as an artifact on
	// failure, so a red drill ships its flight-recorder bundles and log dump
	// with the run. Without it the drill uses a scratch dir.
	dataDir := os.Getenv("GRIDD_DRILL_DIR")
	if dataDir == "" {
		dataDir = t.TempDir()
	} else if err := os.MkdirAll(dataDir, 0o755); err != nil {
		t.Fatalf("GRIDD_DRILL_DIR: %v", err)
	}
	addr := startDrillGrid(t, options{
		addr: "127.0.0.1:0", customers: 16, shards: 4,
		tick: 20 * time.Millisecond, seed: 3,
		dataDir:      dataDir,
		spikeShards:  []int{1, 2},
		spikeTick:    3,
		spikeEndTick: 10,
		spikeFactor:  3.0,
		// The drill threshold sits between the healthy score (~100) and the
		// spike-degraded score (utilization health 0 caps it near 57 under
		// the default weights), so it must fire during the spike and
		// resolve after it.
		alerts: "overload:feedback_score<80:for=2",
	})

	// On failure, capture the daemon's /logs next to the flightrec bundles
	// while the grid is still serving (cleanups run LIFO, so this precedes
	// the shutdown registered by startDrillGrid).
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		resp, err := http.Get("http://" + addr + "/logs")
		if err != nil {
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		_ = os.WriteFile(filepath.Join(dataDir, "logs-dump.json"), body, 0o644)
	})

	getJSON := func(path string, into any) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	overload := func() drillAlert {
		t.Helper()
		var doc struct {
			Alerts []drillAlert `json:"alerts"`
		}
		getJSON("/alerts", &doc)
		for _, a := range doc.Alerts {
			if a.Name == "overload" {
				return a
			}
		}
		t.Fatal("/alerts does not list the overload rule")
		return drillAlert{}
	}

	// Sample /healthz and /alerts until the alert has fired AND resolved.
	// Each sample contributes a (raw, health) utilization pair for the
	// monotonicity check.
	type sample struct{ raw, health float64 }
	var samples []sample
	minScore := 101.0
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("drill timed out: overload=%+v minScore=%g", overload(), minScore)
		}
		var hz drillHealthz
		getJSON("/healthz", &hz)
		// Skip the window before the first score computation (no
		// components yet, score still zero-valued).
		if len(hz.Components) > 0 {
			if hz.Score < minScore {
				minScore = hz.Score
			}
			for _, c := range hz.Components {
				if c.Name == "utilization" {
					samples = append(samples, sample{c.Raw, c.Health})
				}
			}
		}
		// FireCount, not the transient state: at fast ticks the alert can
		// fire and resolve between two polls.
		if a := overload(); a.FireCount >= 1 && a.State == "ok" {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}

	if minScore >= 80 {
		t.Fatalf("score never degraded below the alert threshold: min %g", minScore)
	}

	// The utilization component's health mapping is pure, so sorted by
	// offered load the health values must be non-increasing: more load
	// never reads as healthier.
	sort.Slice(samples, func(i, j int) bool { return samples[i].raw < samples[j].raw })
	for i := 1; i < len(samples); i++ {
		if samples[i].health > samples[i-1].health+1e-9 {
			t.Fatalf("health not monotone in load: %+v then %+v", samples[i-1], samples[i])
		}
	}

	// The firing transition must have produced a flight-recorder bundle
	// holding the slowest session's spans and the alert-firing log event.
	frDir := filepath.Join(dataDir, "flightrec")
	bundles, err := health.Bundles(frDir)
	if err != nil {
		t.Fatalf("flightrec dir: %v", err)
	}
	var bundle string
	for _, b := range bundles {
		if strings.Contains(filepath.Base(b), "-alert-") {
			bundle = b
		}
	}
	if bundle == "" {
		t.Fatalf("no alert bundle under %s (bundles %v)", frDir, bundles)
	}
	traceData, err := os.ReadFile(filepath.Join(bundle, "trace.json"))
	if err != nil {
		t.Fatalf("bundle trace.json: %v", err)
	}
	if !strings.Contains(string(traceData), `"session.open"`) {
		t.Fatalf("bundle trace.json has no session spans:\n%.2000s", traceData)
	}
	logsData, err := os.ReadFile(filepath.Join(bundle, "logs.json"))
	if err != nil {
		t.Fatalf("bundle logs.json: %v", err)
	}
	if !strings.Contains(string(logsData), "alert firing") {
		t.Fatalf("bundle logs.json missing the alert-firing event:\n%.2000s", logsData)
	}
	var meta struct {
		Reason  string `json:"reason"`
		Slowest string `json:"slowestSession"`
	}
	metaData, _ := os.ReadFile(filepath.Join(bundle, "meta.json"))
	if err := json.Unmarshal(metaData, &meta); err != nil {
		t.Fatalf("bundle meta.json: %v", err)
	}
	if meta.Reason != "alert" || meta.Slowest == "" {
		t.Fatalf("bundle meta = %+v, want reason=alert and a slowest session", meta)
	}

	// A live grid's bundles carry runtime profiles. The heap is written
	// inline; the CPU capture is skipped when one is already running.
	if _, err := os.Stat(filepath.Join(bundle, "heap.pprof")); err != nil {
		t.Errorf("alert bundle has no heap profile: %v", err)
	}

	// /feedback answers the agent-check line protocol: one "NN%" line.
	resp, err := http.Get("http://" + addr + "/feedback")
	if err != nil {
		t.Fatalf("GET /feedback: %v", err)
	}
	defer resp.Body.Close()
	line, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read feedback line: %v", err)
	}
	if !regexp.MustCompile(`^\d{1,3}%\n$`).Match(line) {
		t.Fatalf("feedback line = %q, want NN%%\\n", line)
	}
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"loadbalance/internal/health"
	"loadbalance/internal/obsplane"
	"loadbalance/internal/trace"
)

// fleetRun is one full distributed deployment streamed onto a single obs
// hub: the serve daemon (hub host) plus exec'd concentrator workers and an
// exec'd hot standby, all pointed at -obs. The serve daemon lingers after
// the session so tests can scrape the merged /fleet view once every process
// has flushed its final spans.
type fleetRun struct {
	addrs   serveAddrs
	procs   []string // every fleet proc label expected on the hub
	release func(t *testing.T)
}

// startFleet boots the deployment and blocks until the negotiation is done,
// every worker and the standby have exited (final obs batches flushed), and
// the hub has merged their Closing marks. The returned release func ends
// the serve daemon's linger window.
func startFleet(t *testing.T, customers, shards int, base string) *fleetRun {
	t.Helper()
	dirP := filepath.Join(base, "primary")
	dirS := filepath.Join(base, "standby")
	if err := os.MkdirAll(dirP, 0o755); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	linger := make(chan struct{})
	ready := make(chan serveAddrs, 1)
	serverErr := make(chan error, 1)
	go func() {
		serverErr <- serve(ctx, options{
			addr:        "127.0.0.1:0",
			rootAddr:    "127.0.0.1:0",
			metricsAddr: "127.0.0.1:0",
			obsAddr:     "127.0.0.1:0",
			customers:   customers,
			shards:      shards,
			timeout:     60 * time.Second,
			dataDir:     dirP,
			replAddr:    "127.0.0.1:0",
			linger:      linger,
		}, ready)
	}()
	var addrs serveAddrs
	select {
	case addrs = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	if addrs.obs == "" {
		t.Fatal("serve bound no obs hub address")
	}
	replAddr := waitReplAddr(t, dirP, 30*time.Second)

	// Hot standby: a separate OS process tailing the journal and streaming
	// its own observability state (proc gridd-live-r0) to the hub.
	standby := exec.Command(os.Args[0],
		"-serve", "127.0.0.1:0", "-live",
		"-customers", "16", "-shards", "4",
		"-tick", "50ms", "-seed", "1",
		"-data-dir", dirS,
		"-replica-of", replAddr, "-replica-id", "r0",
		"-failover-timeout", "60s",
		"-trace", "-trace-ring", "16384",
		"-obs", addrs.obs,
	)
	standby.Env = append(os.Environ(), "GRIDD_HELPER=1")
	standby.Stdout = os.Stdout
	standby.Stderr = os.Stderr
	if err := standby.Start(); err != nil {
		t.Fatalf("standby: %v", err)
	}

	// Concentrator workers: separate OS processes, each streaming spans and
	// logs to the hub instead of dumping rings to files.
	workers := make([]*exec.Cmd, shards)
	for i := range workers {
		cmd := exec.Command(os.Args[0],
			"-role", "concentrator",
			"-up", addrs.root,
			"-down", addrs.member,
			"-shard", strconv.Itoa(i),
			"-shards", strconv.Itoa(shards),
			"-customers", strconv.Itoa(customers),
			"-trace", "-trace-ring", "16384",
			"-obs", addrs.obs,
		)
		cmd.Env = append(os.Environ(), "GRIDD_HELPER=1")
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		workers[i] = cmd
	}
	t.Cleanup(func() {
		for _, w := range workers {
			if w.Process != nil {
				_ = w.Process.Kill()
			}
		}
		if standby.Process != nil {
			_ = standby.Process.Kill()
		}
	})

	var wg sync.WaitGroup
	clientErrs := make([]error, customers)
	for i := 0; i < customers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clientErrs[i] = runClient(ctx, addrs.member, fmt.Sprintf("c%02d", i+1), int64(i+1))
		}(i)
	}
	wg.Wait()
	for i, err := range clientErrs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	for i, w := range workers {
		done := make(chan error, 1)
		go func(w *exec.Cmd) { done <- w.Wait() }(w)
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("worker %d exited: %v", i, err)
			}
		case <-time.After(15 * time.Second):
			_ = w.Process.Kill()
			t.Errorf("worker %d never exited", i)
		}
	}
	// The sealed journal reaches the standby, which exits cleanly — its
	// deferred emitter Close ships the final Closing batch first.
	standbyDone := make(chan error, 1)
	go func() { standbyDone <- standby.Wait() }()
	select {
	case err := <-standbyDone:
		if err != nil {
			t.Errorf("standby exited: %v", err)
		}
	case <-time.After(30 * time.Second):
		_ = standby.Process.Kill()
		t.Error("standby never saw the sealed journal")
	}

	run := &fleetRun{addrs: addrs}
	for i := 0; i < shards; i++ {
		run.procs = append(run.procs, fmt.Sprintf("gridd-cc-%03d", i))
	}
	run.procs = append(run.procs, "gridd-live-r0")

	// Wait for the hub to merge every process's Closing batch: only then is
	// the /fleet view complete.
	waitDeadline := time.Now().Add(15 * time.Second)
	for {
		var status struct {
			Procs []obsplane.ProcStatus `json:"procs"`
		}
		fleetGetJSON(t, run.addrs.metrics, "/fleet/status", &status)
		closed := map[string]bool{}
		for _, p := range status.Procs {
			if p.Closed {
				closed[p.Proc] = true
			}
		}
		allClosed := true
		for _, want := range run.procs {
			if !closed[want] {
				allClosed = false
			}
		}
		if allClosed {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatalf("fleet procs never all closed on the hub: %+v", status.Procs)
		}
		time.Sleep(20 * time.Millisecond)
	}

	released := false
	run.release = func(t *testing.T) {
		if released {
			return
		}
		released = true
		close(linger)
		select {
		case err := <-serverErr:
			if err != nil {
				t.Fatalf("server: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("server never finished after linger release")
		}
	}
	return run
}

// fleetGetJSON fetches one /fleet document from the serve daemon's metrics
// endpoint.
func fleetGetJSON(t *testing.T, addr, path string, out any) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s: %s", path, resp.Status, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}

// TestFleetStitchedTrace is the fleet observability acceptance run: the full
// distributed deployment — root tier, four concentrator worker processes,
// eight TCP customers and a hot standby — streams spans to the root's obs
// hub, and the root's /fleet/trace endpoint alone must serve exactly one
// stitched session trace with every parent resolving and spans from all six
// processes, no in-test ring merging.
func TestFleetStitchedTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	trace.Disable()
	t.Cleanup(trace.Disable)
	trace.Enable("gridd-fleet", 16384)

	const (
		customers = 8
		shards    = 4
	)
	run := startFleet(t, customers, shards, t.TempDir())

	// The full merged view spans all six processes: the serve daemon and
	// its in-process customers (the local "gridd-fleet" ring the hub folds
	// in), the four streamed workers, and the streamed standby.
	var full obsplane.FleetTraceDoc
	fleetGetJSON(t, run.addrs.metrics, "/fleet/trace", &full)
	wantProcs := append([]string{"gridd-fleet"}, run.procs...)
	got := map[string]bool{}
	for _, p := range full.Procs {
		got[p] = true
	}
	for _, want := range wantProcs {
		if !got[want] {
			t.Errorf("/fleet/trace procs %v missing %q", full.Procs, want)
		}
	}
	if len(full.Procs) != len(wantProcs) {
		t.Errorf("/fleet/trace spans %d processes (%v), want %d", len(full.Procs), full.Procs, len(wantProcs))
	}
	var gotApply bool
	for _, r := range full.Spans {
		if r.Name == "replication.apply" && r.Proc == "gridd-live-r0" {
			gotApply = true
		}
	}
	if !gotApply {
		t.Error("standby streamed no replication.apply span to the hub")
	}

	// The session-filtered view stitches into exactly one tree: one trace
	// id, one root, every parent resolving inside the document, spanning
	// the daemon-side ring and all four workers.
	var doc obsplane.FleetTraceDoc
	fleetGetJSON(t, run.addrs.metrics, "/fleet/trace?session=gridd", &doc)
	byTrace := make(map[string][]trace.Record)
	for _, r := range doc.Spans {
		if r.Session != "gridd" {
			t.Fatalf("session filter leaked span %+v", r)
		}
		byTrace[r.Trace] = append(byTrace[r.Trace], r)
	}
	if len(byTrace) != 1 {
		t.Fatalf("got %d session traces, want exactly 1 tree for the gridd session", len(byTrace))
	}
	for id, recs := range byTrace {
		spanSet := make(map[string]bool, len(recs))
		for _, r := range recs {
			spanSet[r.Span] = true
		}
		roots := 0
		procs := make(map[string]bool)
		for _, r := range recs {
			procs[r.Proc] = true
			if r.Parent == "" {
				roots++
			} else if !spanSet[r.Parent] {
				t.Errorf("trace %s: span %s (%s in %s) has parent %s served by no process", id, r.Span, r.Name, r.Proc, r.Parent)
			}
		}
		if roots != 1 {
			t.Errorf("trace %s stitches into %d roots, want 1", id, roots)
		}
		if len(procs) != shards+1 {
			t.Errorf("trace %s spans %d processes (%v), want %d", id, len(procs), procKeys(procs), shards+1)
		}
	}

	// The status rows carry the fleet identities and their clean closes.
	var status struct {
		Procs []obsplane.ProcStatus `json:"procs"`
	}
	fleetGetJSON(t, run.addrs.metrics, "/fleet/status", &status)
	roles := map[string]string{}
	for _, p := range status.Procs {
		roles[p.Proc] = p.Role
	}
	for i := 0; i < shards; i++ {
		if r := roles[fmt.Sprintf("gridd-cc-%03d", i)]; r != "worker" {
			t.Errorf("worker %d role = %q, want worker", i, r)
		}
	}
	if roles["gridd-live-r0"] != "standby" {
		t.Errorf("standby role = %q, want standby", roles["gridd-live-r0"])
	}

	run.release(t)
}

// TestFleetDrill is the CI fleet drill: a smaller deployment — root, two
// TCP workers, a standby — checked on the merged /fleet/logs and
// /fleet/metrics surfaces. GRIDD_FLEET_DIR points at a directory CI uploads
// on failure; the drill dumps the fleet view there when it goes red.
func TestFleetDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	trace.Disable()
	t.Cleanup(trace.Disable)
	trace.Enable("gridd-fleet", 16384)

	base := os.Getenv("GRIDD_FLEET_DIR")
	if base == "" {
		base = t.TempDir()
	} else if err := os.MkdirAll(base, 0o755); err != nil {
		t.Fatalf("GRIDD_FLEET_DIR: %v", err)
	}
	run := startFleet(t, 4, 2, base)
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		for _, path := range []string{"/fleet/status", "/fleet/logs", "/fleet/trace"} {
			resp, err := http.Get("http://" + run.addrs.metrics + path)
			if err != nil {
				continue
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			name := strings.ReplaceAll(strings.TrimPrefix(path, "/"), "/", "-") + ".json"
			_ = os.WriteFile(filepath.Join(base, name), body, 0o644)
		}
	})

	// Merged logs: every streamed process present, events from more than
	// one process in one document, level filter narrowing it.
	var logs obsplane.FleetLogsDoc
	fleetGetJSON(t, run.addrs.metrics, "/fleet/logs", &logs)
	for _, want := range run.procs {
		found := false
		for _, p := range logs.Procs {
			if p == want {
				found = true
			}
		}
		if !found {
			t.Errorf("/fleet/logs procs %v missing %q", logs.Procs, want)
		}
	}
	eventProcs := map[string]bool{}
	for _, ev := range logs.Events {
		eventProcs[ev.Proc] = true
	}
	if len(eventProcs) < 2 {
		t.Errorf("/fleet/logs merged events from %d processes (%v), want >= 2", len(eventProcs), procKeys(eventProcs))
	}
	fleetGetJSON(t, run.addrs.metrics, "/fleet/logs?level=warn", &logs)
	for _, ev := range logs.Events {
		if ev.Level != "warn" && ev.Level != "error" {
			t.Errorf("level filter leaked %+v", ev)
		}
	}

	// Stitched trace: the session tree crosses the daemon ring and both
	// workers.
	var doc obsplane.FleetTraceDoc
	fleetGetJSON(t, run.addrs.metrics, "/fleet/trace?session=gridd", &doc)
	procs := map[string]bool{}
	spanSet := map[string]bool{}
	for _, r := range doc.Spans {
		procs[r.Proc] = true
		spanSet[r.Span] = true
	}
	for _, r := range doc.Spans {
		if r.Parent != "" && !spanSet[r.Parent] {
			t.Errorf("span %s (%s in %s) has unresolved parent %s", r.Span, r.Name, r.Proc, r.Parent)
		}
	}
	if len(procs) != 3 {
		t.Errorf("session trace spans %d processes (%v), want 3", len(procs), procKeys(procs))
	}

	// The fleet metrics page serves the hub summary and relayed, relabelled
	// process samples.
	resp, err := http.Get("http://" + run.addrs.metrics + "/fleet/metrics")
	if err != nil {
		t.Fatalf("GET /fleet/metrics: %v", err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4" {
		t.Errorf("/fleet/metrics Content-Type = %q", got)
	}
	for _, want := range []string{
		"fleet_procs 3",
		`obs_batches_total{proc="gridd-cc-000"}`,
		`obs_spans_total{proc="gridd-live-r0"}`,
		`log_events_total{proc="gridd-cc-001",level="info"}`,
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/fleet/metrics missing %q", want)
		}
	}

	run.release(t)
}

// TestSigquitFlightRecorder sends SIGQUIT to a running serve-mode daemon:
// it must dump a flight-recorder bundle under <data-dir>/flightrec/ and
// keep running — the on-demand bundle trigger on roles without an alert
// engine.
func TestSigquitFlightRecorder(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a daemon process")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0],
		"-serve", "127.0.0.1:0",
		"-customers", "1",
		"-timeout", "60s",
		"-data-dir", dir,
		"-repl-addr", "127.0.0.1:0",
	)
	cmd.Env = append(os.Environ(), "GRIDD_HELPER=1")
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})

	// The repl-addr file publishing means the daemon is fully up (and the
	// SIGQUIT handler installed — that happens before any serving starts).
	waitReplAddr(t, dir, 30*time.Second)
	if err := cmd.Process.Signal(syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}

	frDir := filepath.Join(dir, "flightrec")
	deadline := time.Now().Add(10 * time.Second)
	// health.Bundles lists published bundles only: the recorder stages a
	// bundle as .tmp-<name> (which also contains "-sigquit-") and renames it
	// once every file is written.
	var bundle string
	for {
		bundles, err := health.Bundles(frDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bundles {
			if strings.Contains(filepath.Base(b), "-sigquit-") {
				bundle = b
			}
		}
		if bundle != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no sigquit bundle under %s", frDir)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, f := range []string{"meta.json", "logs.json", "metrics.prom"} {
		if _, err := os.Stat(filepath.Join(bundle, f)); err != nil {
			t.Errorf("bundle missing %s: %v", f, err)
		}
	}
	var meta struct {
		Reason string `json:"reason"`
	}
	data, err := os.ReadFile(filepath.Join(bundle, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Reason != "sigquit" {
		t.Errorf("bundle reason = %q, want sigquit", meta.Reason)
	}

	// The daemon must still be alive after the dump (signal 0 probes it).
	if err := cmd.Process.Signal(syscall.Signal(0)); err != nil {
		t.Fatalf("daemon died after SIGQUIT: %v", err)
	}
}

// TestWorkerEndpointContentTypes audits the worker role's endpoint parity:
// a concentrator with -metrics serves the same /healthz, /metrics, /logs
// and /trace contract as the server roles, and its /metrics page is pinned.
func TestWorkerEndpointContentTypes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ready := make(chan serveAddrs, 1)
	serverErr := make(chan error, 1)
	go func() {
		serverErr <- serve(ctx, options{
			addr:        "127.0.0.1:0",
			rootAddr:    "127.0.0.1:0",
			metricsAddr: "127.0.0.1:0",
			customers:   4,
			shards:      2,
			timeout:     30 * time.Second,
		}, ready)
	}()
	var addrs serveAddrs
	select {
	case addrs = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	// The daemon the workers dial hosts no hub: no /fleet view either.
	auditEndpoints(t, addrs.metrics, []endpointRow{
		{"/healthz", "application/json"},
		{"/fleet/status", ""},
		{"/awards", ""},
		{"/debug/pprof/", ""},
	})

	// Both workers in-process; the first one serves HTTP. The daemon waits
	// for customers that never come, so the endpoints stay scrapeable until
	// the context unwinds everything.
	workerReady := make(chan string, 1)
	workerErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		opts := options{
			up: addrs.root, down: addrs.member,
			shard: i, shards: 2, customers: 4,
		}
		var ready chan<- string
		if i == 0 {
			opts.metricsAddr = "127.0.0.1:0"
			opts.tsdbInterval = goldenHistory
			opts.metrics = trace.NewRegistry()
			observeFixed(opts.metrics)
			ready = workerReady
		}
		go func(opts options, ready chan<- string) {
			workerErrs <- runConcentrator(ctx, opts, ready)
		}(opts, ready)
	}
	var workerAddr string
	select {
	case workerAddr = <-workerReady:
	case <-time.After(5 * time.Second):
		t.Fatal("worker metrics endpoint never became ready")
	}

	bodies := auditEndpoints(t, workerAddr, []endpointRow{
		{"/healthz", "application/json"},
		{"/metrics", "text/plain; version=0.0.4"},
		{"/logs", "application/json"},
		{"/trace", "application/json"},
		{"/query?series=tsdb_points", "application/json"},
		// A worker hosts no hub and runs no live grid; -pprof is off.
		{"/fleet/status", ""},
		{"/awards", ""},
		{"/debug/pprof/", ""},
	})
	checkGolden(t, "worker", bodies["/metrics"])
	var doc struct {
		Role  string `json:"role"`
		Shard int    `json:"shard"`
	}
	if err := json.Unmarshal([]byte(bodies["/healthz"]), &doc); err != nil {
		t.Fatalf("/healthz: %v", err)
	}
	if doc.Role != "worker" || doc.Shard != 0 {
		t.Errorf("/healthz = %s, want role worker shard 0", bodies["/healthz"])
	}

	// Unwind: cancelled workers and daemon all return nil.
	cancel()
	for i := 0; i < 2; i++ {
		select {
		case err := <-workerErrs:
			if err != nil {
				t.Errorf("worker returned %v, want nil on cancellation", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("worker did not shut down on cancellation")
		}
	}
	select {
	case err := <-serverErr:
		if err != nil {
			t.Errorf("server returned %v, want nil on cancellation", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down on cancellation")
	}
}

// parityDoc mirrors the /query and /fleet/query response document.
type parityDoc struct {
	Series string `json:"series"`
	Points []struct {
		TsUs  int64   `json:"tsUs"`
		Value float64 `json:"value"`
	} `json:"points"`
}

// TestFleetQueryParity is the metrics-history acceptance check: the hub's
// streamed history behind /fleet/query must agree with the worker's locally
// scraped history behind /query on the worker's own negotiation counter
// rate, to within one scrape interval of skew — the fleet view is the local
// view, one hop later.
func TestFleetQueryParity(t *testing.T) {
	const scrape = 50 * time.Millisecond

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan serveAddrs, 1)
	serverErr := make(chan error, 1)
	go func() {
		serverErr <- serve(ctx, options{
			addr:         "127.0.0.1:0",
			rootAddr:     "127.0.0.1:0",
			metricsAddr:  "127.0.0.1:0",
			obsAddr:      "127.0.0.1:0",
			customers:    4,
			shards:       2,
			timeout:      60 * time.Second,
			tsdbInterval: scrape,
		}, ready)
	}()
	var addrs serveAddrs
	select {
	case addrs = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}

	// In-process workers as in TestWorkerEndpointContentTypes; the first one
	// serves HTTP with a local history scraper. No customers connect, so the
	// fleet idles while both histories fill.
	workerReady := make(chan string, 1)
	workerErrs := make(chan error, 2)
	workerMetrics := trace.DefaultRegistry().Scope()
	for i := 0; i < 2; i++ {
		opts := options{
			up: addrs.root, down: addrs.member,
			shard: i, shards: 2, customers: 4,
		}
		var ready chan<- string
		if i == 0 {
			opts.metricsAddr = "127.0.0.1:0"
			opts.tsdbInterval = scrape
			opts.metrics = workerMetrics
			ready = workerReady
		}
		go func(opts options, ready chan<- string) {
			workerErrs <- runConcentrator(ctx, opts, ready)
		}(opts, ready)
	}
	var workerAddr string
	select {
	case workerAddr = <-workerReady:
	case <-time.After(5 * time.Second):
		t.Fatal("worker metrics endpoint never became ready")
	}

	// Stream the worker's observability state to the hub exactly as the -obs
	// flag wires it: same proc label, same registry. The hub stamps each
	// arriving sample into the store behind /fleet/query.
	em := obsplane.StartEmitter(obsplane.EmitterConfig{
		Hub:      addrs.obs,
		Proc:     "gridd-cc-000",
		Role:     "worker",
		Interval: scrape,
		Metrics:  workerMetrics,
	})
	defer em.Close()

	// Steady negotiation traffic: the session histogram advances at a fixed
	// pace so both stores record the same counter slope.
	driveCtx, stopDrive := context.WithCancel(ctx)
	defer stopDrive()
	go func() {
		h := trace.GetHistogram("negotiation_session_seconds")
		tk := time.NewTicker(5 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-driveCtx.Done():
				return
			case <-tk.C:
				h.Observe(2 * time.Millisecond)
			}
		}
	}()

	queryHistory := func(addr, path, series string) (parityDoc, error) {
		v := url.Values{}
		v.Set("series", series)
		v.Set("from", "-5s")
		v.Set("to", "0s")
		v.Set("step", "1s")
		resp, err := http.Get("http://" + addr + path + "?" + v.Encode())
		if err != nil {
			return parityDoc{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			return parityDoc{}, fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
		}
		var doc parityDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			return parityDoc{}, err
		}
		return doc, nil
	}
	last := func(doc parityDoc) float64 {
		if len(doc.Points) == 0 {
			return 0
		}
		return doc.Points[len(doc.Points)-1].Value
	}

	// Poll until both histories evaluate a positive rate at the latest step
	// and the two agree. Both stores sample the same monotone counter; once
	// each holds a full 2s window (~40 samples at the 50ms cadence) the
	// windows are offset by at most one scrape interval at each edge, so the
	// rates must come well inside 20% of each other even with scheduler
	// jitter on top. The first positive readings are not compared on their
	// own: each store then holds two or three samples taken at its own
	// start, and 3/s beside 5/s is the offset of those starts, not parity.
	localSeries := "rate(negotiation_session_seconds_count[2s])"
	fleetSeries := `rate(negotiation_session_seconds_count{proc="gridd-cc-000"}[2s])`
	var local, fleet parityDoc
	deadline := time.Now().Add(20 * time.Second)
	for {
		l, lerr := queryHistory(workerAddr, "/query", localSeries)
		f, ferr := queryHistory(addrs.metrics, "/fleet/query", fleetSeries)
		lv, fv := last(l), last(f)
		if lerr == nil && ferr == nil && lv > 0 && fv > 0 && math.Abs(lv-fv) <= 0.2*math.Max(lv, fv) {
			local, fleet = l, f
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("histories never agreed: fleet rate %g, local rate %g\nlocal: %+v (%v)\nfleet: %+v (%v)", fv, lv, l, lerr, f, ferr)
		}
		time.Sleep(scrape)
	}
	if !strings.Contains(local.Series, "negotiation_session_seconds_count") ||
		!strings.Contains(fleet.Series, `proc="gridd-cc-000"`) {
		t.Fatalf("series round-trip: local %q, fleet %q", local.Series, fleet.Series)
	}

	stopDrive()
	cancel()
	for i := 0; i < 2; i++ {
		select {
		case err := <-workerErrs:
			if err != nil {
				t.Errorf("worker returned %v, want nil on cancellation", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("worker did not shut down on cancellation")
		}
	}
	select {
	case err := <-serverErr:
		if err != nil {
			t.Errorf("server returned %v, want nil on cancellation", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down on cancellation")
	}
}

// TestServeEndpointContentTypes audits the serve role's endpoint contract,
// the /fleet surfaces included when the daemon hosts the obs hub.
func TestServeEndpointContentTypes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan serveAddrs, 1)
	serverErr := make(chan error, 1)
	go func() {
		serverErr <- serve(ctx, options{
			addr:         "127.0.0.1:0",
			metricsAddr:  "127.0.0.1:0",
			obsAddr:      "127.0.0.1:0",
			customers:    4,
			shards:       1,
			timeout:      30 * time.Second,
			tsdbInterval: 50 * time.Millisecond,
		}, ready)
	}()
	var addrs serveAddrs
	select {
	case addrs = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}

	auditEndpoints(t, addrs.metrics, []endpointRow{
		{"/healthz", "application/json"},
		{"/metrics", "text/plain; version=0.0.4"},
		{"/logs", "application/json"},
		{"/trace", "application/json"},
		{"/fleet/status", "application/json"},
		{"/fleet/logs", "application/json"},
		{"/fleet/trace", "application/json"},
		{"/fleet/metrics", "text/plain; version=0.0.4"},
		{"/query?series=tsdb_points", "application/json"},
		{"/fleet/query?series=tsdb_points", "application/json"},
		// A serve daemon runs no live grid; -pprof is off.
		{"/awards", ""},
		{"/debug/pprof/", ""},
	})

	cancel()
	select {
	case err := <-serverErr:
		if err != nil {
			t.Errorf("server returned %v, want nil on cancellation", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down on cancellation")
	}
}

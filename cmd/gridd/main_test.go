package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"loadbalance/internal/bus"
	"loadbalance/internal/cluster"
	"loadbalance/internal/customeragent"
	"loadbalance/internal/message"
	"loadbalance/internal/store"
	"loadbalance/internal/trace"
)

// TestMain doubles as the worker-process entry point: spawned copies of the
// test binary with GRIDD_HELPER=1 run gridd's real main path instead of the
// test suite, which is how the multi-process tests exercise true os/exec
// concentrator workers without building the binary first.
func TestMain(m *testing.M) {
	if os.Getenv("GRIDD_HELPER") == "1" {
		if err := run(context.Background(), os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "gridd helper:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestClientPreferencesDeterministic(t *testing.T) {
	p1, err := clientPreferences(3)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := clientPreferences(3)
	if err != nil {
		t.Fatal(err)
	}
	if p1.RequiredFor(0.4) != p2.RequiredFor(0.4) {
		t.Fatal("same seed must give identical preferences")
	}
	p3, err := clientPreferences(4)
	if err != nil {
		t.Fatal(err)
	}
	if p1.RequiredFor(0.4) == p3.RequiredFor(0.4) {
		t.Fatal("different seeds should scale the table differently")
	}
	if p1.ExpectedUse != 13.5 {
		t.Fatalf("expected use = %v", p1.ExpectedUse)
	}
}

func TestWindowNow(t *testing.T) {
	iv := windowNow()
	if iv.Duration() != 2*time.Hour {
		t.Fatalf("duration = %v", iv.Duration())
	}
	if !iv.Start.After(time.Now()) {
		t.Fatal("window should start in the future")
	}
}

// TestServerClientEndToEnd runs the daemon and three customer processes'
// worth of clients inside one test over real TCP.
func TestServerClientEndToEnd(t *testing.T) {
	ctx := context.Background()
	ready := make(chan serveAddrs, 1)
	serverErr := make(chan error, 1)
	go func() {
		serverErr <- serve(ctx, options{addr: "127.0.0.1:0", customers: 3, shards: 1, timeout: 30 * time.Second}, ready)
	}()
	var addr string
	select {
	case a := <-ready:
		addr = a.member
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}

	var wg sync.WaitGroup
	clientErrs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clientErrs[i] = runClient(ctx, addr, []string{"c01", "c02", "c03"}[i], int64(i+1))
		}(i)
	}
	wg.Wait()
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	select {
	case err := <-serverErr:
		if err != nil {
			t.Fatalf("server: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never finished")
	}
}

// TestShardedServerEndToEnd runs the daemon with -shards 2 and four TCP
// clients: the fleet negotiates through concentrators and every client must
// still see its session end.
func TestShardedServerEndToEnd(t *testing.T) {
	ctx := context.Background()
	ready := make(chan serveAddrs, 1)
	serverErr := make(chan error, 1)
	go func() {
		serverErr <- serve(ctx, options{addr: "127.0.0.1:0", customers: 4, shards: 2, timeout: 30 * time.Second}, ready)
	}()
	var addr string
	select {
	case a := <-ready:
		addr = a.member
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}

	names := []string{"c01", "c02", "c03", "c04"}
	var wg sync.WaitGroup
	clientErrs := make([]error, len(names))
	for i := range names {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clientErrs[i] = runClient(ctx, addr, names[i], int64(i+1))
		}(i)
	}
	wg.Wait()
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	select {
	case err := <-serverErr:
		if err != nil {
			t.Fatalf("server: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never finished")
	}
}

// TestDistributedServerEndToEnd is the full multi-process deployment: the
// daemon hosts the member and root tiers, four concentrator workers run as
// separate OS processes (exec'd copies of this binary), and eight customers
// dial in over TCP. Every client must see its session end, every worker must
// exit cleanly, and the /metrics endpoint must account for the four worker
// handshakes on the root tier.
func TestDistributedServerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const (
		customers = 8
		shards    = 4
	)
	ctx := context.Background()
	ready := make(chan serveAddrs, 1)
	serverErr := make(chan error, 1)
	go func() {
		serverErr <- serve(ctx, options{
			addr:        "127.0.0.1:0",
			rootAddr:    "127.0.0.1:0",
			metricsAddr: "127.0.0.1:0",
			customers:   customers,
			shards:      shards,
			timeout:     60 * time.Second,
		}, ready)
	}()
	var addrs serveAddrs
	select {
	case addrs = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}

	// Concentrator workers: separate OS processes.
	workers := make([]*exec.Cmd, shards)
	for i := range workers {
		cmd := exec.Command(os.Args[0],
			"-role", "concentrator",
			"-up", addrs.root,
			"-down", addrs.member,
			"-shard", strconv.Itoa(i),
			"-shards", strconv.Itoa(shards),
			"-customers", strconv.Itoa(customers),
		)
		cmd.Env = append(os.Environ(), "GRIDD_HELPER=1")
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		workers[i] = cmd
	}
	defer func() {
		for _, w := range workers {
			if w.Process != nil {
				_ = w.Process.Kill()
			}
		}
	}()

	// The workers dial the root tier immediately; /metrics must account for
	// all four handshakes while the daemon is still waiting for customers.
	scrape := func() string {
		resp, err := http.Get("http://" + addrs.metrics + "/metrics")
		if err != nil {
			return ""
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	metricsDeadline := time.Now().Add(10 * time.Second)
	var metrics string
	for {
		metrics = scrape()
		if strings.Contains(metrics, `bus_wire_hellos_total{transport="root"} 4`) {
			break
		}
		if time.Now().After(metricsDeadline) {
			t.Fatalf("root tier never saw 4 worker handshakes:\n%s", metrics)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, want := range []string{
		`bus_wire_hellos_total{transport="member"}`,
		`bus_wire_rejected_total{transport="root"} 0`,
		`bus_wire_frames_out_total{transport="member"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Customers: in-process clients over real TCP.
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
	select {
	case err := <-serverErr:
		if err != nil {
			t.Fatalf("server: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server never finished")
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
}

// TestDistributedTraceStitch is the observability acceptance run: the full
// distributed deployment — root tier, four concentrator worker processes,
// eight TCP customers and a hot standby replicating the journal — with
// tracing on everywhere. The workers export their rings via -trace-dump, the
// daemon serves its ring on /trace, and the merged spans must stitch into
// one tree per negotiation session: exactly one root, every parent id
// resolving within the trace, across all processes.
func TestDistributedTraceStitch(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	tr := trace.Enable("gridd-test", 16384)
	defer trace.Disable()

	const (
		customers = 8
		shards    = 4
	)
	base := t.TempDir()
	dirP := filepath.Join(base, "primary")
	dirS := filepath.Join(base, "standby")
	if err := os.MkdirAll(dirP, 0o755); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	ready := make(chan serveAddrs, 1)
	serverErr := make(chan error, 1)
	// The session takes milliseconds; the daemon's endpoints stay up after it
	// until /trace has been read.
	linger := make(chan struct{})
	go func() {
		serverErr <- serve(ctx, options{
			addr:        "127.0.0.1:0",
			rootAddr:    "127.0.0.1:0",
			metricsAddr: "127.0.0.1:0",
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
	replAddr := waitReplAddr(t, dirP, 30*time.Second)

	// Hot standby following the daemon's journal stream. It never promotes
	// (the primary seals cleanly); its replication.apply spans land in the
	// shared in-process ring.
	standbyErr := make(chan error, 1)
	go func() {
		standbyErr <- runLive(ctx, options{
			addr: "127.0.0.1:0", customers: 16, shards: 4,
			tick: 50 * time.Millisecond, seed: 1, spikeTick: -1,
			dataDir: dirS, replicaOf: []string{replAddr}, replicaID: "r0",
			failoverTimeout: time.Minute,
		}, nil)
	}()

	// Concentrator workers: separate OS processes, each dumping its span
	// ring to a file on exit.
	dumps := make([]string, shards)
	workers := make([]*exec.Cmd, shards)
	for i := range workers {
		dumps[i] = filepath.Join(base, fmt.Sprintf("cc-%d-trace.json", i))
		cmd := exec.Command(os.Args[0],
			"-role", "concentrator",
			"-up", addrs.root,
			"-down", addrs.member,
			"-shard", strconv.Itoa(i),
			"-shards", strconv.Itoa(shards),
			"-customers", strconv.Itoa(customers),
			"-trace", "-trace-ring", "16384",
			"-trace-dump", dumps[i],
		)
		cmd.Env = append(os.Environ(), "GRIDD_HELPER=1")
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		workers[i] = cmd
	}
	defer func() {
		for _, w := range workers {
			if w.Process != nil {
				_ = w.Process.Kill()
			}
		}
	}()

	var wg sync.WaitGroup
	clientErrs := make([]error, customers)
	for i := 0; i < customers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clientErrs[i] = runClient(ctx, addrs.member, fmt.Sprintf("c%02d", i+1), int64(i+1))
		}(i)
	}

	// Once the session has run, /trace must answer with session-filtered spans.
	traceDeadline := time.Now().Add(30 * time.Second)
	for {
		var dump trace.Dump
		resp, err := http.Get("http://" + addrs.metrics + "/trace?session=gridd")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if jerr := json.Unmarshal(body, &dump); jerr != nil {
				t.Fatalf("/trace is not valid JSON: %v\n%s", jerr, body)
			}
		}
		if dump.Enabled && len(dump.Spans) > 0 {
			for _, sp := range dump.Spans {
				if sp.Session != "gridd" {
					t.Fatalf("/trace?session=gridd returned span %+v of session %q", sp, sp.Session)
				}
			}
			break
		}
		if time.Now().After(traceDeadline) {
			t.Fatal("/trace never served a session span")
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(linger)

	wg.Wait()
	for i, err := range clientErrs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	select {
	case err := <-serverErr:
		if err != nil {
			t.Fatalf("server: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server never finished")
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
	// The sealed journal reached the standby, which shuts down cleanly.
	select {
	case err := <-standbyErr:
		if err != nil {
			t.Fatalf("standby: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("standby never saw the sealed journal")
	}
	rec, err := store.ReadDir(dirS)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Sealed || rec.LastSeq < 2 {
		t.Fatalf("standby journal sealed=%v lastSeq=%d, want the replicated session", rec.Sealed, rec.LastSeq)
	}

	// Merge every process's spans: the in-process ring (daemon, customers,
	// standby) plus the four worker dumps.
	all := tr.Records(trace.Filter{})
	var gotApply bool
	for _, r := range all {
		if r.Name == "replication.apply" {
			gotApply = true
		}
	}
	if !gotApply {
		t.Error("standby recorded no replication.apply span")
	}
	for i, path := range dumps {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("worker %d dump: %v", i, err)
		}
		var d trace.Dump
		if err := json.Unmarshal(data, &d); err != nil {
			t.Fatalf("worker %d dump: %v", i, err)
		}
		want := fmt.Sprintf("gridd-cc-%03d", i)
		if d.Proc != want || !d.Enabled {
			t.Fatalf("worker %d dump proc=%q enabled=%v, want %q", i, d.Proc, d.Enabled, want)
		}
		if d.Dropped != 0 {
			t.Fatalf("worker %d ring dropped %d spans; the stitch check needs the full tree", i, d.Dropped)
		}
		if len(d.Spans) == 0 {
			t.Fatalf("worker %d recorded no spans", i)
		}
		all = append(all, d.Spans...)
	}

	// Stitch: every trace holding session spans forms one tree — a single
	// root, every parent id resolving inside the trace, across processes.
	byTrace := make(map[string][]trace.Record)
	for _, r := range all {
		byTrace[r.Trace] = append(byTrace[r.Trace], r)
	}
	sessionTraces := 0
	for id, recs := range byTrace {
		session := false
		spanSet := make(map[string]bool, len(recs))
		for _, r := range recs {
			spanSet[r.Span] = true
			if r.Session == "gridd" {
				session = true
			}
		}
		if !session {
			continue
		}
		sessionTraces++
		roots := 0
		procs := make(map[string]bool)
		for _, r := range recs {
			procs[r.Proc] = true
			if r.Parent == "" {
				roots++
			} else if !spanSet[r.Parent] {
				t.Errorf("trace %s: span %s (%s in %s) has parent %s recorded in no process", id, r.Span, r.Name, r.Proc, r.Parent)
			}
		}
		if roots != 1 {
			t.Errorf("trace %s stitches into %d roots, want 1", id, roots)
		}
		// The session tree must cross every process: the daemon-side ring
		// and all four workers.
		if len(procs) != shards+1 {
			t.Errorf("trace %s spans %d processes (%v), want %d", id, len(procs), procKeys(procs), shards+1)
		}
	}
	if sessionTraces != 1 {
		t.Errorf("got %d session traces, want exactly 1 tree for the gridd session", sessionTraces)
	}
}

// procKeys lists a proc set for failure messages.
func procKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestShardsFlagValidation rejects nonsensical shard counts.
func TestShardsFlagValidation(t *testing.T) {
	err := run(context.Background(), []string{"-serve", ":0", "-shards", "0"})
	if err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Fatalf("error = %v, want -shards validation", err)
	}
}

// TestServeShutsDownOnCancel covers graceful shutdown: a cancelled context
// unwinds the daemon while it waits for customers, with a nil error.
func TestServeShutsDownOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan serveAddrs, 1)
	serverErr := make(chan error, 1)
	go func() {
		serverErr <- serve(ctx, options{addr: "127.0.0.1:0", customers: 3, shards: 1, timeout: 30 * time.Second}, ready)
	}()
	select {
	case <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	cancel()
	select {
	case err := <-serverErr:
		if err != nil {
			t.Fatalf("interrupted serve returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down on cancellation")
	}
}

// TestLiveGridServesHealthAndMetrics boots the live grid, scrapes both HTTP
// endpoints while it ticks, and shuts it down via context cancellation.
func TestLiveGridServesHealthAndMetrics(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	liveErr := make(chan error, 1)
	go func() {
		liveErr <- runLive(ctx, options{
			addr: "127.0.0.1:0", customers: 16, shards: 4,
			tick: 20 * time.Millisecond, seed: 1, spikeTick: -1,
		}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("live grid never became ready")
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	health := get("/healthz")
	for _, want := range []string{`"status":"ok"`, `"role":"primary"`, `"tick"`} {
		if !strings.Contains(health, want) {
			t.Fatalf("healthz missing %s: %s", want, health)
		}
	}

	// Let a few ticks elapse so the gauges carry real measurements.
	time.Sleep(150 * time.Millisecond)
	metrics := get("/metrics")
	for _, want := range []string{
		"grid_tick ",
		"grid_readings_total ",
		"grid_renegotiations_total 0",
		"grid_fleet_load_kwh ",
		"grid_fleet_target_kwh ",
		`grid_shard_load_kwh{shard="0"}`,
		`grid_shard_breached{shard="3"} 0`,
		`grid_shard_renegotiations_total{shard="0"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	cancel()
	select {
	case err := <-liveErr:
		if err != nil {
			t.Fatalf("live grid returned %v, want nil on cancellation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live grid did not shut down on cancellation")
	}
}

// liveArgs renders the durable live-grid flag set the recovery test runs
// three times (reference, victim, recovery) — identical every time, which is
// the recovery contract.
func liveArgs(dataDir string) []string {
	return []string{
		"-serve", "127.0.0.1:0", "-live",
		"-customers", "16", "-shards", "4",
		"-tick", "25ms", "-live-ticks", "20", "-seed", "3",
		"-data-dir", dataDir,
		"-spike-shards", "1,2", "-spike-tick", "4", "-spike-factor", "2.5",
		"-snapshot-every", "6",
	}
}

// TestRecoveryByteIdenticalAwards is the durability headline: a gridd
// killed (SIGKILL, no chance to flush or seal) in the middle of its live
// loop and restarted from the same -data-dir finishes the run with awards
// and shard profiles byte-identical to an uninterrupted run's.
func TestRecoveryByteIdenticalAwards(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a victim process")
	}
	base := t.TempDir()
	dirU := filepath.Join(base, "uninterrupted")
	dirC := filepath.Join(base, "crashed")

	// Reference: the same run, uninterrupted.
	if err := run(context.Background(), liveArgs(dirU)); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want, err := os.ReadFile(filepath.Join(dirU, "awards.json"))
	if err != nil {
		t.Fatalf("reference awards: %v", err)
	}
	var wantProfile struct {
		Tick           int `json:"tick"`
		Renegotiations int `json:"renegotiations"`
	}
	if err := json.Unmarshal(want, &wantProfile); err != nil {
		t.Fatal(err)
	}
	if wantProfile.Tick != 20 || wantProfile.Renegotiations == 0 {
		t.Fatalf("reference run reached tick %d with %d renegotiations; the spike must force at least one",
			wantProfile.Tick, wantProfile.Renegotiations)
	}

	// Victim: the same run as a separate OS process, killed mid-loop.
	cmd := exec.Command(os.Args[0], liveArgs(dirC)...)
	cmd.Env = append(os.Environ(), "GRIDD_HELPER=1")
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait until at least 8 ticks are durable (registration is 2 records,
	// the initial session 1, then one record per tick), then SIGKILL.
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec, err := store.ReadDir(dirC)
		if err == nil && rec.LastSeq >= 11 {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatal("victim never journaled 8 ticks")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err == nil {
		t.Fatal("victim exited cleanly; the test needed to kill it mid-loop")
	}
	if _, err := os.Stat(filepath.Join(dirC, "awards.json")); !os.IsNotExist(err) {
		t.Fatalf("killed victim left awards.json (err %v); it must only appear after a completed run", err)
	}

	// Recovery: restart from the same data dir and let it finish.
	if err := run(context.Background(), liveArgs(dirC)); err != nil {
		t.Fatalf("recovery run: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dirC, "awards.json"))
	if err != nil {
		t.Fatalf("recovered awards: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered run diverged from the uninterrupted run\n got: %s\nwant: %s", got, want)
	}
	// The recovered journal must now be sealed.
	rec, err := store.ReadDir(dirC)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Sealed {
		t.Fatal("recovered run did not seal the journal on exit")
	}
}

// TestServeDrainsClientsOnInterrupt covers the SIGTERM drain fix: a daemon
// interrupted with customers connected broadcasts an aborting session end —
// every client exits cleanly instead of erroring on a dead TCP connection —
// and journals the session as aborted.
func TestServeDrainsClientsOnInterrupt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dataDir := t.TempDir()
	ready := make(chan serveAddrs, 1)
	serverErr := make(chan error, 1)
	go func() {
		serverErr <- serve(ctx, options{
			addr: "127.0.0.1:0", customers: 3, shards: 1,
			timeout: 30 * time.Second, dataDir: dataDir,
		}, ready)
	}()
	var addr string
	select {
	case a := <-ready:
		addr = a.member
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}

	// Two of three expected customers connect; the negotiation never starts.
	clientErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			clientErrs <- runClient(context.Background(), addr, fmt.Sprintf("c%02d", i+1), int64(i+1))
		}(i)
	}
	// Let the clients register, then interrupt the daemon.
	time.Sleep(500 * time.Millisecond)
	cancel()

	for i := 0; i < 2; i++ {
		select {
		case err := <-clientErrs:
			if err != nil {
				t.Fatalf("client saw %v; the drain must deliver a session end", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("client hung after server interrupt")
		}
	}
	select {
	case err := <-serverErr:
		if err != nil {
			t.Fatalf("interrupted serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
	rec, err := store.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	var aborted bool
	for _, r := range rec.Records {
		if r.Kind == store.KindAborted {
			aborted = true
		}
	}
	if !aborted {
		t.Fatalf("journal holds no aborted-session record (got %d records)", len(rec.Records))
	}
}

// TestServeJournalsOutcome checks the one-shot daemon journals its session
// outcome and seals the journal.
func TestServeJournalsOutcome(t *testing.T) {
	dataDir := t.TempDir()
	ctx := context.Background()
	ready := make(chan serveAddrs, 1)
	serverErr := make(chan error, 1)
	go func() {
		serverErr <- serve(ctx, options{
			addr: "127.0.0.1:0", customers: 2, shards: 1,
			timeout: 30 * time.Second, dataDir: dataDir,
		}, ready)
	}()
	var addr string
	select {
	case a := <-ready:
		addr = a.member
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := runClient(ctx, addr, fmt.Sprintf("c%02d", i+1), int64(i+1)); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-serverErr:
		if err != nil {
			t.Fatalf("server: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never finished")
	}
	rec, err := store.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Sealed {
		t.Fatal("journal not sealed after a completed session")
	}
	var outcome *store.SessionOutcome
	for _, r := range rec.Records {
		if r.Kind == store.KindSession {
			o, err := store.DecodeSession(r)
			if err != nil {
				t.Fatal(err)
			}
			outcome = &o
		}
	}
	if outcome == nil || outcome.SessionID != "gridd" || len(outcome.Awards) == 0 {
		t.Fatalf("journaled outcome = %+v, want the gridd session with awards", outcome)
	}
}

// startServe runs serve under ctx and returns its member address and the
// channel its error arrives on.
func startServe(t *testing.T, ctx context.Context, opts options) (string, <-chan error) {
	t.Helper()
	ready := make(chan serveAddrs, 1)
	serverErr := make(chan error, 1)
	go func() { serverErr <- serve(ctx, opts, ready) }()
	select {
	case a := <-ready:
		return a.member, serverErr
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
		return "", nil
	}
}

// journalRecords reads a data dir's records of one kind.
func journalRecords(t *testing.T, dir string, kind store.Kind) []store.Record {
	t.Helper()
	rec, err := store.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []store.Record
	for _, r := range rec.Records {
		if r.Kind == kind {
			out = append(out, r)
		}
	}
	return out
}

// TestShardedServeJournalsTheEngineRecord: serve -shards 2 journals each
// member's bid and award as its in-process tier delivered them — the record
// cluster.Run writes over the same roster and client preferences, byte for
// byte — and not the two concentrators' aggregates as if they were customers.
func TestShardedServeJournalsTheEngineRecord(t *testing.T) {
	const customers, shards = 4, 2
	dataDir := t.TempDir()
	ctx := context.Background()
	addr, serverErr := startServe(t, ctx, options{
		addr: "127.0.0.1:0", customers: customers, shards: shards,
		timeout: 30 * time.Second, dataDir: dataDir,
	})
	var wg sync.WaitGroup
	for i := 0; i < customers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := runClient(ctx, addr, fmt.Sprintf("c%02d", i+1), int64(i+1)); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if err := <-serverErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	served := journalRecords(t, dataDir, store.KindSession)

	fleet := fleetScenario(customers)
	for i := range fleet.Customers {
		prefs, err := clientPreferences(int64(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		fleet.Customers[i].Prefs, fleet.Customers[i].Strategy = prefs, customeragent.StrategyGreedy
	}
	refDir := t.TempDir()
	st, _, err := store.Open(refDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Run(cluster.Config{Scenario: fleet, Shards: shards, Journal: st}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ran := journalRecords(t, refDir, store.KindSession)
	if len(served) != 1 || len(ran) != 1 || !bytes.Equal(served[0].Body, ran[0].Body) {
		t.Fatalf("session records differ:\nserve       %s\ncluster.Run %s", served, ran)
	}
}

// TestServeAbortsMidNegotiation: a -shards 2 serve cancelled after its first
// announcement ends through the engine's one error path — every client gets
// the aborting session end and returns nil, and the journal holds one aborted
// record naming the session and the reason.
func TestServeAbortsMidNegotiation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dataDir := t.TempDir()
	addr, serverErr := startServe(t, ctx, options{
		addr: "127.0.0.1:0", customers: 4, shards: 2,
		timeout: 30 * time.Second, dataDir: dataDir,
	})
	clientErrs := make(chan error, 4)
	for i := 0; i < 3; i++ {
		go func(i int) {
			clientErrs <- runClient(context.Background(), addr, fmt.Sprintf("c%02d", i+1), int64(i+1))
		}(i)
	}
	// c04 never bids, so its shard's first round stays open (for half the
	// 5 s round timeout) and the session with it.
	silent, err := bus.Dial(addr, "c04")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	select {
	case env := <-silent.Inbox():
		if env.Kind != message.KindRewardTable {
			t.Fatalf("first envelope to c04 is a %s, want the announcement", env.Kind)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the first announcement never reached c04")
	}
	cancel()
	go func() {
		for env := range silent.Inbox() {
			if env.Kind != message.KindSessionEnd {
				continue
			}
			p, err := env.Decode()
			if end, ok := p.(message.SessionEnd); err == nil && !(ok && strings.HasPrefix(end.Reason, "aborted: ")) {
				err = fmt.Errorf("session end %+v, want an aborting one", p)
			}
			clientErrs <- err
			return
		}
		clientErrs <- fmt.Errorf("c04's connection closed before the session end")
	}()
	for i := 0; i < 4; i++ {
		select {
		case err := <-clientErrs:
			if err != nil {
				t.Fatalf("client: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a client hung after the abort")
		}
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("interrupted serve returned %v", err)
	}
	aborted := journalRecords(t, dataDir, store.KindAborted)
	if len(aborted) != 1 || len(journalRecords(t, dataDir, store.KindSession)) != 0 {
		t.Fatalf("journal holds %d aborted records, want 1 and no session record", len(aborted))
	}
	info, err := store.DecodeAbort(aborted[0])
	if err != nil || info.SessionID != "gridd" || info.Reason != context.Canceled.Error() {
		t.Fatalf("aborted record %+v, %v: want session gridd, reason %q", info, err, context.Canceled.Error())
	}
}

// failoverArgs renders the replicated live-grid flag set shared by the
// reference, victim-primary and standby runs of the failover tests. The grid
// parameters are identical everywhere (the recovery contract); only the
// replication role flags differ per process.
func failoverArgs(dataDir string, extra ...string) []string {
	args := []string{
		"-serve", "127.0.0.1:0", "-live",
		"-customers", "16", "-shards", "4",
		"-tick", "50ms", "-live-ticks", "30", "-seed", "5",
		"-data-dir", dataDir,
		"-spike-shards", "1,2", "-spike-tick", "4", "-spike-factor", "2.5",
		"-snapshot-every", "8",
	}
	return append(args, extra...)
}

// waitReplAddr polls for the <data-dir>/repl-addr file a replicating daemon
// publishes once its stream listener is bound.
func waitReplAddr(t *testing.T, dataDir string, d time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if b, err := os.ReadFile(filepath.Join(dataDir, "repl-addr")); err == nil && len(b) > 0 {
			return string(b)
		}
		if time.Now().After(deadline) {
			t.Fatal("replication address file never appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFailoverByteIdenticalAwards is the high-availability headline: a
// primary gridd streaming its journal to a hot standby is SIGKILLed in the
// middle of its live loop; the standby detects the silence, promotes, and
// finishes the run with awards and shard profiles byte-identical to an
// uninterrupted single-node run — no committed negotiation outcome is lost
// across the failover.
func TestFailoverByteIdenticalAwards(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a victim process")
	}
	base := t.TempDir()
	dirU := filepath.Join(base, "uninterrupted")
	dirP := filepath.Join(base, "primary")
	dirS := filepath.Join(base, "standby")

	// Reference: the same run, uninterrupted, unreplicated.
	if err := run(context.Background(), failoverArgs(dirU)); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want, err := os.ReadFile(filepath.Join(dirU, "awards.json"))
	if err != nil {
		t.Fatalf("reference awards: %v", err)
	}
	var wantProfile struct {
		Tick           int `json:"tick"`
		Renegotiations int `json:"renegotiations"`
	}
	if err := json.Unmarshal(want, &wantProfile); err != nil {
		t.Fatal(err)
	}
	if wantProfile.Tick != 30 || wantProfile.Renegotiations == 0 {
		t.Fatalf("reference run reached tick %d with %d renegotiations; the spike must force at least one",
			wantProfile.Tick, wantProfile.Renegotiations)
	}

	// Victim primary: a separate OS process streaming its journal.
	if err := os.MkdirAll(dirP, 0o755); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], failoverArgs(dirP, "-repl-addr", "127.0.0.1:0")...)
	cmd.Env = append(os.Environ(), "GRIDD_HELPER=1")
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
	}()
	replAddr := waitReplAddr(t, dirP, 30*time.Second)

	// Hot standby in this process, with a short failover timeout.
	standbyErr := make(chan error, 1)
	go func() {
		standbyErr <- run(context.Background(), failoverArgs(dirS,
			"-replica-of", replAddr, "-replica-id", "r0", "-failover-timeout", "750ms"))
	}()

	// Wait until the standby has replicated at least 8 ticks (registration
	// is 2 records, the initial session 1, then one per tick), then SIGKILL
	// the primary mid-loop.
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec, err := store.ReadDir(dirS)
		if err == nil && rec.LastSeq >= 11 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("standby never replicated 8 ticks")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err == nil {
		t.Fatal("victim exited cleanly; the test needed to kill it mid-loop")
	}

	// The promoted standby must finish the run and write its awards.
	select {
	case err := <-standbyErr:
		if err != nil {
			t.Fatalf("standby run: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("standby never finished after the primary was killed")
	}
	got, err := os.ReadFile(filepath.Join(dirS, "awards.json"))
	if err != nil {
		t.Fatalf("promoted standby awards: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("failed-over run diverged from the uninterrupted run\n got: %s\nwant: %s", got, want)
	}

	// The standby journal seals the divergence point and the final state.
	rec, err := store.ReadDir(dirS)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Sealed {
		t.Fatal("promoted standby did not seal its journal on exit")
	}
}

// TestFailoverDrillServesAwards is the CI failover drill: kill the primary,
// assert the standby's /healthz flips from standby to primary and /awards
// keeps answering, all within 5 seconds of the kill.
func TestFailoverDrillServesAwards(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a victim process")
	}
	base := t.TempDir()
	dirP := filepath.Join(base, "primary")
	dirS := filepath.Join(base, "standby")
	if err := os.MkdirAll(dirP, 0o755); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], failoverArgs(dirP, "-repl-addr", "127.0.0.1:0", "-live-ticks", "0")...)
	cmd.Env = append(os.Environ(), "GRIDD_HELPER=1")
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
	}()
	replAddr := waitReplAddr(t, dirP, 30*time.Second)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	standbyErr := make(chan error, 1)
	go func() {
		standbyErr <- runLive(ctx, options{
			addr: "127.0.0.1:0", customers: 16, shards: 4,
			tick: 50 * time.Millisecond, maxTicks: 0, seed: 5,
			dataDir: dirS, snapshotEvery: 8,
			spikeShards: []int{1, 2}, spikeTick: 4, spikeFactor: 2.5,
			replicaOf: []string{replAddr}, replicaID: "r0",
			failoverTimeout: 750 * time.Millisecond,
		}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("standby never became ready")
	}

	get := func(path string) (string, error) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return string(body), err
	}

	// Read replica: /healthz reports the standby role and replication
	// state; /awards answers from the replica state. Wait until the initial
	// negotiation outcome has replicated (registration is 2 records, the
	// session outcome the 3rd) so the kill lands on a standby that holds
	// committed state.
	deadline := time.Now().Add(15 * time.Second)
	for {
		health, err := get("/healthz")
		if err == nil && strings.Contains(health, `"role":"standby"`) && strings.Contains(health, `"sourceUp":true`) {
			var doc struct {
				LastAppliedSeq uint64 `json:"lastAppliedSeq"`
			}
			if jerr := json.Unmarshal([]byte(health), &doc); jerr != nil {
				t.Fatalf("standby healthz not JSON: %v\n%s", jerr, health)
			}
			if doc.LastAppliedSeq >= 3 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby healthz never reported a caught-up stream: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if awards, err := get("/awards"); err != nil || !strings.Contains(awards, `"awards"`) {
		t.Fatalf("read replica /awards = %q, %v", awards, err)
	}
	if repl, err := get("/replication"); err != nil || !strings.Contains(repl, `"role":"standby"`) {
		t.Fatalf("/replication = %q, %v", repl, err)
	}

	// Kill the primary; the standby must promote and serve /awards as
	// primary within 5 seconds.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
	killAt := time.Now()
	for {
		health, err := get("/healthz")
		if err == nil && strings.Contains(health, `"role":"primary"`) {
			break
		}
		if time.Since(killAt) > 5*time.Second {
			t.Fatalf("standby did not promote within 5s of the kill (healthz: %v %v)", health, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if awards, err := get("/awards"); err != nil || !strings.Contains(awards, `"awards"`) {
		t.Fatalf("promoted /awards = %q, %v", awards, err)
	}
	t.Logf("standby promoted and serving %v after the kill", time.Since(killAt).Round(time.Millisecond))

	cancel()
	select {
	case err := <-standbyErr:
		if err != nil {
			t.Fatalf("promoted standby shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("promoted standby did not shut down on cancellation")
	}
}

// TestLiveGridBoundedTicks runs the live grid to its -live-ticks limit.
func TestLiveGridBoundedTicks(t *testing.T) {
	err := runLive(context.Background(), options{
		addr: "127.0.0.1:0", customers: 8, shards: 2,
		tick: time.Millisecond, maxTicks: 3, seed: 1, spikeTick: -1,
	}, nil)
	if err != nil {
		t.Fatalf("bounded live run: %v", err)
	}
}

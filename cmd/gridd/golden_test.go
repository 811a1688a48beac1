package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"loadbalance/internal/bus"
	"loadbalance/internal/health"
	"loadbalance/internal/obsplane"
	"loadbalance/internal/replica"
	"loadbalance/internal/store"
	"loadbalance/internal/telemetry"
	"loadbalance/internal/trace"
)

// The golden page tests pin what each role publishes: every # TYPE line and
// series name, in order, with values wherever they are a function of the
// fixture. Each page is built by the role's own registration code over a
// fresh registry, so the process-wide histograms other tests observe into
// stay out of it. Regenerate with: go test ./cmd/gridd -run TestGolden -update

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files")

// ageSeries derive from time.Since at render time and are masked to their
// sign, which the fixture does fix (-1 marks "never happened").
var ageSeries = regexp.MustCompile(`^(store_snapshot_age_seconds|store_last_append_age_seconds|journal_append_age_seconds|` +
	`replica_standby_last_ack_age_seconds|replica_last_contact_age_seconds|replica_last_applied_age_seconds|fleet_last_batch_age_seconds)`)

// volatileSeries are not a function of the fixture at all and are masked
// whole.
var volatileSeries = regexp.MustCompile(`^(` + strings.Join([]string{
	// the process-wide log ring, shared with every other test in the package
	`health_log_`,
	// runtime stats and the process-wide session histogram feed the score
	`feedback_score$`, `feedback_component_health\{component="(gc_pause_ms|goroutines|heap_mib|session_p95_s)"\}`,
	// how the stream batches records, and what a batch weighs, is timing
	`replica_batches_shipped_total`, `bus_wire_bytes_(in|out)_total\{transport="obs"\}`,
	// wall-clock scrape latency
	`tsdb_scrape_duration_seconds`,
}, "|") + `)`)

// canonicalPage masks a rendered page's age and volatile series, and drops
// the volatile histograms' finite buckets (which are occupied is timing too).
func canonicalPage(page string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(page, "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || sp < 0 {
			b.WriteString(line)
			continue
		}
		series, value := line[:sp], strings.TrimSpace(line[sp+1:])
		switch {
		case volatileSeries.MatchString(series):
			if strings.Contains(series, "_bucket{") && !strings.Contains(series, `le="+Inf"`) {
				continue
			}
			value = "~"
		case ageSeries.MatchString(series):
			switch {
			case strings.HasPrefix(value, "-"):
				value = "-"
			case value != "0":
				value = "+"
			}
		}
		b.WriteString(series + " " + value + "\n")
	}
	return b.String()
}

// renderPage gathers and renders a registry the way /metrics does.
func renderPage(reg *trace.Registry) string {
	var b strings.Builder
	_ = trace.WriteMetrics(&b, reg.Gather())
	return b.String()
}

// checkGolden compares a canonical page with testdata/<name>.golden and
// checks every non-histogram family on it against the README reference.
func checkGolden(t *testing.T, name, page string) {
	t.Helper()
	got := canonicalPage(page)
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s page differs from %s (-update rewrites it):\n--- got\n%s--- want\n%s", name, path, got, want)
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, reference, _ := strings.Cut(string(readme), "### Metrics reference")
	reference, _, _ = strings.Cut(reference, "\n## ")
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) (counter|gauge)$`).FindAllStringSubmatch(got, -1) {
		if strings.HasSuffix(m[1], "_p50") || strings.HasSuffix(m[1], "_p95") || strings.HasSuffix(m[1], "_p99") {
			continue // a histogram's quantile gauges are documented with the histogram
		}
		row := regexp.MustCompile("(?m)^\\|.*`" + m[1] + "[`{].*\\| " + m[2] + " \\|")
		if !row.MatchString(reference) {
			t.Errorf("README \"Metrics reference\" has no %s row for %s", m[2], m[1])
		}
	}
}

// goldenFleet is the set of live dependencies the pages are built over, each
// driven to a deterministic state: a journal of three ticks streamed to one
// standby, a member server with one customer, an idle root server, and a hub
// that merged one closing batch from one worker.
type goldenFleet struct {
	st           *store.Store
	sender       *replica.Sender
	member, root *bus.Server
	hub          *obsplane.Hub
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func newGoldenFleet(t *testing.T) *goldenFleet {
	t.Helper()
	f := &goldenFleet{}
	dir := t.TempDir()
	var err error
	if f.st, _, err = store.Open(dir, store.Options{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.st.Close() })
	for tick := 0; tick < 3; tick++ {
		if err := f.st.AppendTick(store.TickCheckpoint{Tick: tick, Shard: []float64{1.5, 2.5}, Readings: 16, Batches: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.st.Sync(); err != nil {
		t.Fatal(err)
	}
	if f.sender, err = replica.StartSender(replica.SenderConfig{Dir: dir, Addr: "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.sender.Close)
	follower, _, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { follower.Close() })
	rx, err := replica.StartReceiver(replica.ReceiverConfig{ID: "r1", Addrs: []string{f.sender.Addr()}}, &replica.StoreTap{St: follower})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rx.Close)
	waitUntil(t, "the standby to ack the journal", func() bool {
		sb := f.sender.Status().Standbys
		return len(sb) == 1 && sb[0].AckedSeq == 3
	})

	serve := func() *bus.Server {
		inner, err := bus.NewInProc(bus.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(inner.Close)
		srv, err := bus.ListenAndServe("127.0.0.1:0", inner)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv
	}
	f.member, f.root = serve(), serve()
	cli, err := bus.Dial(f.member.Addr(), "c01")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)

	quiet, err := health.New(health.Config{Proc: "hub", MinLevel: health.Off, StderrLevel: health.Off})
	if err != nil {
		t.Fatal(err)
	}
	if f.hub, err = obsplane.StartHub(obsplane.HubConfig{Addr: "127.0.0.1:0", Logger: quiet}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.hub.Close)
	workerLog, err := health.New(health.Config{Proc: "w1", MinLevel: health.Info, StderrLevel: health.Off})
	if err != nil {
		t.Fatal(err)
	}
	workerLog.Log(health.Info, "golden", "one event")
	tr := trace.NewTracer("w1", 16)
	sp := tr.Root("one.span")
	sp.End()
	workerMetrics := trace.NewRegistry()
	workerMetrics.RegisterGauge("feedback_score", func() float64 { return 80 })
	// An hour between flushes: the only batch is the closing one.
	obsplane.StartEmitter(obsplane.EmitterConfig{
		Hub: f.hub.Addr(), Proc: "w1", Role: "worker", Interval: time.Hour,
		Logger: workerLog, Tracer: func() *trace.Tracer { return tr }, Metrics: workerMetrics,
	}).Close()
	waitUntil(t, "the hub to merge and ack the worker's closing batch", func() bool {
		st := f.hub.Status()
		return len(st) == 1 && st[0].Closed && f.hub.WireStats().FramesOut == 2
	})
	return f
}

// goldenHistory is a scrape schedule that never fires on its own.
const goldenHistory = time.Hour

// observeFixed puts one observed and one idle histogram on a fresh registry,
// so each page pins where the histogram block and its quantile gauges go.
func observeFixed(reg *trace.Registry) {
	reg.Histogram("grid_tick_seconds").Observe(3 * time.Millisecond)
	reg.Histogram("grid_tick_seconds").Observe(5 * time.Millisecond)
	reg.Histogram("negotiation_session_seconds")
}

// liveGolden assembles the live role's health layer over state exactly as
// runLive and runStandby do, evaluates it once and scrapes it once.
func liveGolden(t *testing.T, state *gridState, dataDir string) *liveHealth {
	t.Helper()
	reg := trace.NewRegistry()
	observeFixed(reg)
	h, err := newLiveHealth(options{dataDir: dataDir, metrics: reg, tsdbInterval: goldenHistory}, state)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.close)
	state.health = h
	h.evalTick()
	h.scraper.ScrapeAt(1_000_000)
	return h
}

func TestGoldenLivePrimaryPage(t *testing.T) {
	f := newGoldenFleet(t)
	state := &gridState{obs: f.hub, gridView: gridView{
		role: "primary", start: time.Now(), st: f.st, sender: f.sender,
		snap: telemetry.Snapshot{
			Tick: 3, FleetKWh: 108.5, TargetKWh: 1234567.25, Readings: 48, Renegotiations: 1,
			ShardMeasured: []float64{54.25, 54.25}, ShardExpected: []float64{50, 60},
			ShardBreached: []bool{false, true}, ShardRenegotiations: []int{0, 1},
		},
	}}
	dataDir := t.TempDir()
	h := liveGolden(t, state, dataDir)
	page := renderPage(h.metrics)
	checkGolden(t, "live_primary", page)

	// The flight recorder's metrics.prom is the same document.
	bundle, err := h.recorder.Dump("golden", "")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := os.ReadFile(filepath.Join(bundle, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if canonicalPage(string(prom)) != canonicalPage(page) {
		t.Errorf("metrics.prom differs from /metrics:\n--- metrics.prom\n%s--- /metrics\n%s", canonicalPage(string(prom)), canonicalPage(page))
	}
}

func TestGoldenLiveStandbyPage(t *testing.T) {
	cfg, err := options{customers: 8, shards: 2, seed: 1, spikeTick: -1}.liveConfig()
	if err != nil {
		t.Fatal(err)
	}
	// Nothing listens on port 1: the standby stays idle at journal seq 0.
	stby, _, err := replica.StartStandby(replica.StandbyConfig{
		ID: "r1", PrimaryAddrs: []string{"127.0.0.1:1"}, Live: cfg,
		Durable: telemetry.DurableConfig{Dir: t.TempDir()}, FailoverTimeout: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stby.Close() })
	state := &gridState{gridView: gridView{role: "standby", start: time.Now(), stby: stby}}
	checkGolden(t, "live_standby", renderPage(liveGolden(t, state, "").metrics))
}

func TestGoldenServePage(t *testing.T) {
	f := newGoldenFleet(t)
	reg := trace.NewRegistry()
	observeFixed(reg)
	registerServeMetrics(reg, f.member, f.root, f.hub, f.sender)
	_, sc := startHistory(goldenHistory, reg)
	t.Cleanup(sc.Close)
	sc.ScrapeAt(1_000_000)
	checkGolden(t, "serve", renderPage(reg))
}

package obsplane

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"loadbalance/internal/bus"
	"loadbalance/internal/health"
	"loadbalance/internal/message"
	"loadbalance/internal/trace"
	"loadbalance/internal/tsdb"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

// testLogger builds a quiet ring-only logger for one fake process.
func testLogger(t *testing.T, proc string, ring int) *health.Logger {
	t.Helper()
	l, err := health.New(health.Config{Proc: proc, MinLevel: health.Debug, RingSize: ring, StderrLevel: health.Off})
	if err != nil {
		t.Fatalf("health.New: %v", err)
	}
	return l
}

// fixedMetrics builds a registry publishing exactly these samples.
func fixedMetrics(samples ...trace.Sample) *trace.Registry {
	reg := trace.NewRegistry()
	reg.Register(func(dst []trace.Sample) []trace.Sample { return append(dst, samples...) })
	return reg
}

// getJSON fetches one fleet document from the test server.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

// TestHubMergeAndEndpoints drives two emitters into a hub and checks every
// /fleet surface: status rows, merged logs with all filters, the stitched
// trace with session and trace-id filters, and the relabelled metrics page.
func TestHubMergeAndEndpoints(t *testing.T) {
	hub, err := StartHub(HubConfig{Addr: "127.0.0.1:0", Logger: testLogger(t, "hub", 256)})
	if err != nil {
		t.Fatalf("StartHub: %v", err)
	}
	defer hub.Close()

	// Process w1: a session trace, an info log, and metrics with labels and
	// a histogram bucket (must be skipped).
	log1 := testLogger(t, "w1", 256)
	tr1 := trace.NewTracer("w1", 256)
	root := tr1.Root("session.run")
	root.SetSession("s1")
	child := tr1.Child(root.Context(), "phase.negotiate")
	child.SetSession("s1")
	child.End()
	root.End()
	other := tr1.Root("background.tick")
	other.End()
	log1.Log(health.Info, "comp1", "hello from w1", health.Str("k", "v"))
	e1 := StartEmitter(EmitterConfig{
		Hub: hub.Addr(), Proc: "w1", Role: "worker", Addr: "127.0.0.1:1111",
		Interval: 10 * time.Millisecond,
		Logger:   log1,
		Tracer:   func() *trace.Tracer { return tr1 },
		Metrics: fixedMetrics(
			trace.Gauge("feedback_score", "", 90),
			trace.Gauge("replica_lag_records", "", 3),
			trace.Gauge("grid_tick_seconds_p95", "", 0.01),
			trace.Gauge("shard_load", `shard="2"`, 5),
			trace.Sample{Family: "tick_seconds_bucket", Labels: `le="0.1"`, Kind: trace.KindHistogram, Value: 7}),
	})
	defer e1.Close()

	// Process w2: a warn log and a plain score.
	log2 := testLogger(t, "w2", 256)
	tr2 := trace.NewTracer("w2", 256)
	sp := tr2.Root("apply.journal")
	sp.End()
	log2.Log(health.Warn, "comp2", "warn from w2")
	e2 := StartEmitter(EmitterConfig{
		Hub: hub.Addr(), Proc: "w2", Role: "standby",
		Interval: 10 * time.Millisecond,
		Logger:   log2,
		Tracer:   func() *trace.Tracer { return tr2 },
		Metrics:  fixedMetrics(trace.Gauge("feedback_score", "", 70)),
	})
	defer e2.Close()

	waitFor(t, 5*time.Second, func() bool {
		st := hub.Status()
		if len(st) != 2 {
			return false
		}
		return st[0].Spans >= 3 && st[0].Logs >= 1 && st[0].Score == 90 &&
			st[1].Spans >= 1 && st[1].Logs >= 1 && st[1].Score == 70
	}, "both processes merged")

	if got := hub.FleetScore(); got != 80 {
		t.Fatalf("FleetScore = %v, want 80 (mean of 90 and 70)", got)
	}
	st := hub.Status()
	if st[0].Proc != "w1" || st[1].Proc != "w2" {
		t.Fatalf("Status not sorted by proc: %+v", st)
	}
	if st[0].Role != "worker" || st[0].Addr != "127.0.0.1:1111" || st[0].Lag != 3 || st[0].TickP95 != 0.01 {
		t.Fatalf("w1 row wrong: %+v", st[0])
	}

	mux := http.NewServeMux()
	hub.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// /fleet/status carries the score and both rows.
	var status struct {
		FleetScore float64      `json:"fleetScore"`
		Procs      []ProcStatus `json:"procs"`
	}
	getJSON(t, srv.URL+"/fleet/status", &status)
	if status.FleetScore != 80 || len(status.Procs) != 2 {
		t.Fatalf("/fleet/status = score %v, %d procs", status.FleetScore, len(status.Procs))
	}

	// /fleet/logs merges both processes; filters narrow it.
	var logs FleetLogsDoc
	getJSON(t, srv.URL+"/fleet/logs", &logs)
	if len(logs.Procs) != 2 || len(logs.Events) < 2 {
		t.Fatalf("/fleet/logs: procs %v, %d events", logs.Procs, len(logs.Events))
	}
	getJSON(t, srv.URL+"/fleet/logs?proc=w1", &logs)
	for _, ev := range logs.Events {
		if ev.Proc != "w1" {
			t.Fatalf("proc filter leaked %+v", ev)
		}
	}
	getJSON(t, srv.URL+"/fleet/logs?level=warn", &logs)
	if len(logs.Events) != 1 || logs.Events[0].Msg != "warn from w2" {
		t.Fatalf("level filter: %+v", logs.Events)
	}
	getJSON(t, srv.URL+"/fleet/logs?component=comp1", &logs)
	if len(logs.Events) != 1 || logs.Events[0].Component != "comp1" {
		t.Fatalf("component filter: %+v", logs.Events)
	}
	if len(logs.Events[0].Fields) == 0 || !strings.Contains(string(logs.Events[0].Fields), `"k"`) {
		t.Fatalf("fields not carried: %s", logs.Events[0].Fields)
	}
	// afterUs is the follow cursor: everything at or before it is excluded.
	getJSON(t, srv.URL+"/fleet/logs", &logs)
	last := logs.Events[len(logs.Events)-1].TsUs
	getJSON(t, fmt.Sprintf("%s/fleet/logs?afterUs=%d", srv.URL, last), &logs)
	if len(logs.Events) != 0 {
		t.Fatalf("afterUs cursor returned %d old events", len(logs.Events))
	}
	getJSON(t, srv.URL+"/fleet/logs?limit=1", &logs)
	if len(logs.Events) != 1 {
		t.Fatalf("limit=1 returned %d events", len(logs.Events))
	}

	// /fleet/trace stitches: the session filter keeps only s1's tree, with
	// the child's parent resolving inside the document.
	var tdoc FleetTraceDoc
	getJSON(t, srv.URL+"/fleet/trace", &tdoc)
	if len(tdoc.Spans) < 4 {
		t.Fatalf("unfiltered trace has %d spans", len(tdoc.Spans))
	}
	getJSON(t, srv.URL+"/fleet/trace?session=s1", &tdoc)
	if len(tdoc.Spans) != 2 {
		t.Fatalf("session filter: %d spans, want 2", len(tdoc.Spans))
	}
	have := map[string]bool{}
	for _, r := range tdoc.Spans {
		have[r.Span] = true
		if r.Proc != "w1" {
			t.Fatalf("session span from wrong proc: %+v", r)
		}
	}
	for _, r := range tdoc.Spans {
		if r.Parent != "" && !have[r.Parent] {
			t.Fatalf("unresolved parent %s", r.Parent)
		}
	}
	// A trace id with leading zeros stripped still matches (ParseID
	// normalisation on the filter side).
	id := tdoc.Spans[0].Trace
	getJSON(t, srv.URL+"/fleet/trace?trace="+strings.TrimLeft(id, "0"), &tdoc)
	if len(tdoc.Spans) != 2 {
		t.Fatalf("trace-id filter: %d spans, want 2", len(tdoc.Spans))
	}

	// /fleet/metrics: hub summary plus relayed samples relabelled with
	// their sender; bucket series never travel.
	resp, err := http.Get(srv.URL + "/fleet/metrics")
	if err != nil {
		t.Fatalf("GET /fleet/metrics: %v", err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"fleet_procs 2",
		"fleet_feedback_score 80",
		`obs_batches_total{proc="w1"}`,
		`obs_spans_total{proc="w2"}`,
		`feedback_score{proc="w1"} 90`,
		`shard_load{proc="w1",shard="2"} 5`,
		`feedback_score{proc="w2"} 70`,
	} {
		if !strings.Contains(string(page), want) {
			t.Fatalf("/fleet/metrics missing %q:\n%s", want, page)
		}
	}
	if strings.Contains(string(page), "_bucket") {
		t.Fatalf("/fleet/metrics carries a histogram bucket:\n%s", page)
	}

	// Malformed query params are 400s, not silent full dumps — and the
	// parameters /fleet/logs and /fleet/trace share with /logs and /trace are
	// refused in the local endpoint's words: one parser per filter type.
	mux.HandleFunc("/logs", health.LogHandler(log2))
	mux.Handle("/trace", trace.Handler())
	for _, path := range []string{
		"/fleet/logs?level=nope",
		"/fleet/logs?afterUs=abc",
		"/fleet/logs?limit=-1",
		"/fleet/trace?trace=zzz",
		"/fleet/trace?limit=0",
	} {
		refusal := func(path string) string {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("GET %s = %s, want 400", path, resp.Status)
			}
			body, _ := io.ReadAll(resp.Body)
			return string(body)
		}
		fleet := refusal(path)
		if local := strings.TrimPrefix(path, "/fleet"); !strings.Contains(path, "afterUs") && refusal(local) != fleet {
			t.Errorf("GET %s refused with %q, GET %s with %q", path, fleet, local, refusal(local))
		}
	}

	// Clean emitter shutdown ships a Closing batch: the silence gauge must
	// ignore closed processes.
	e1.Close()
	e2.Close()
	waitFor(t, 5*time.Second, func() bool {
		st := hub.Status()
		return len(st) == 2 && st[0].Closed && st[1].Closed
	}, "closing batches merged")
	if age := hub.SilenceAge(); age != 0 {
		t.Fatalf("SilenceAge = %v after clean close, want 0", age)
	}
	s1 := e1.Stats()
	if s1.Batches == 0 || s1.Acked == 0 || s1.Dials != 1 || s1.Resubscribes != 0 || s1.Sheds != 0 {
		t.Fatalf("w1 stats: %+v", s1)
	}
}

// TestEmitterReconnectAfterHubRestart kills the hub mid-stream, restarts it
// on the same address, and checks the emitter redials, re-subscribes and
// resumes shipping — the root-restart failure mode.
func TestEmitterReconnectAfterHubRestart(t *testing.T) {
	hub, err := StartHub(HubConfig{Addr: "127.0.0.1:0", Logger: testLogger(t, "hub", 256)})
	if err != nil {
		t.Fatalf("StartHub: %v", err)
	}
	addr := hub.Addr()

	logger := testLogger(t, "w1", 256)
	logger.Log(health.Info, "boot", "before restart")
	em := StartEmitter(EmitterConfig{
		Hub: addr, Proc: "w1", Role: "worker",
		Interval: 10 * time.Millisecond,
		Redial:   20 * time.Millisecond,
		Logger:   logger,
		Tracer:   func() *trace.Tracer { return nil },
	})
	defer em.Close()

	waitFor(t, 5*time.Second, func() bool {
		st := hub.Status()
		return len(st) == 1 && st[0].Logs >= 1
	}, "first hub merged the boot log")
	hub.Close()

	logger.Log(health.Warn, "boot", "after restart")

	// Rebind the same address; the listener may linger briefly.
	var hub2 *Hub
	waitFor(t, 5*time.Second, func() bool {
		h, err := StartHub(HubConfig{Addr: addr, Logger: testLogger(t, "hub2", 256)})
		if err != nil {
			return false
		}
		hub2 = h
		return true
	}, "rebinding the hub address")
	defer hub2.Close()

	waitFor(t, 5*time.Second, func() bool {
		doc := hub2.mergedLogs(logFilter{})
		for _, ev := range doc.Events {
			if ev.Msg == "after restart" {
				return true
			}
		}
		return false
	}, "post-restart event reaching the new hub")

	st := em.Stats()
	if st.Dials < 2 {
		t.Fatalf("Dials = %d, want >= 2 after hub restart", st.Dials)
	}
	if st.Resubscribes < 1 {
		t.Fatalf("Resubscribes = %d, want >= 1 after hub restart", st.Resubscribes)
	}
}

// TestHostileLogFieldDoesNotWedgeTheStream streams an event whose field holds
// an escape byte and an invalid one — a peer-influenced err.Error() — and a
// clean event after it. Rendered in Go syntax the field was not JSON, the
// batch carrying it could not be enveloped, and the emitter redialled and
// resent that batch for good: nothing after it ever reached the hub.
func TestHostileLogFieldDoesNotWedgeTheStream(t *testing.T) {
	hub, err := StartHub(HubConfig{Addr: "127.0.0.1:0", Logger: testLogger(t, "hub", 16)})
	if err != nil {
		t.Fatalf("StartHub: %v", err)
	}
	defer hub.Close()
	logger := testLogger(t, "w1", 16)
	logger.Log(health.Warn, "client", "dial tcp: \x1b[31mrefused", health.Str("err", "bad \xff \a"))
	em := StartEmitter(EmitterConfig{
		Hub: hub.Addr(), Proc: "w1", Role: "client",
		Interval: 10 * time.Millisecond, Redial: 20 * time.Millisecond,
		Logger: logger, Tracer: func() *trace.Tracer { return nil },
	})
	defer em.Close()
	waitFor(t, 5*time.Second, func() bool { return len(hub.mergedLogs(logFilter{}).Events) == 1 }, "the hostile event reaching the hub")
	logger.Log(health.Info, "client", "clean")
	waitFor(t, 5*time.Second, func() bool { return len(hub.mergedLogs(logFilter{}).Events) == 2 }, "the clean event after it reaching the hub")

	evs := hub.mergedLogs(logFilter{}).Events
	var fields map[string]string
	if err := json.Unmarshal(evs[0].Fields, &fields); err != nil || fields["err"] != "bad \ufffd \a" || evs[0].Msg != "dial tcp: \x1b[31mrefused" {
		t.Errorf("hostile event arrived as msg %q fields %s (%v)", evs[0].Msg, evs[0].Fields, err)
	}
	waitFor(t, 5*time.Second, func() bool { st := em.Stats(); return st.Acked == st.Batches }, "every batch acked")
	if st := em.Stats(); st.Dials != 1 || st.Resubscribes != 0 {
		t.Errorf("emitter stats %+v: want one connection, every batch acked", st)
	}
}

// TestEmitterShedsUnderBackpressure points an emitter at a hub that never
// acks: the resend window must fill, further flushes must shed (counted),
// and the pending buffer must stay bounded at the window size.
func TestEmitterShedsUnderBackpressure(t *testing.T) {
	inner, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatalf("NewInProc: %v", err)
	}
	srv, err := bus.ListenAndServeConfig("127.0.0.1:0", inner, bus.ServerConfig{})
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	inbox, err := inner.Register(hubName, 1024)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	// Drain so sends never block, but never ack.
	go func() {
		for range inbox {
		}
	}()

	em := StartEmitter(EmitterConfig{
		Hub: srv.Addr(), Proc: "w1", Role: "worker",
		Interval: 5 * time.Millisecond,
		Window:   2,
		Logger:   testLogger(t, "w1", 256),
		Tracer:   func() *trace.Tracer { return nil },
	})

	waitFor(t, 5*time.Second, func() bool { return em.Stats().Sheds >= 3 }, "sheds under backpressure")
	em.mu.Lock()
	pending := len(em.pending)
	em.mu.Unlock()
	if pending > 2 {
		t.Fatalf("pending window grew to %d, want <= 2", pending)
	}
	if st := em.Stats(); st.Acked != 0 {
		t.Fatalf("Acked = %d with a mute hub", st.Acked)
	}

	// Tear the fake hub down first so the emitter's final flush fails fast
	// instead of waiting out its ack deadline.
	srv.Close()
	inner.Close()
	em.Close()
}

// TestMissedCountersAccounted wraps the source rings before the first drain
// and checks the losses are shipped and served as Missed counts — the
// lossy-but-accounted contract.
func TestMissedCountersAccounted(t *testing.T) {
	hub, err := StartHub(HubConfig{Addr: "127.0.0.1:0", Logger: testLogger(t, "hub", 256)})
	if err != nil {
		t.Fatalf("StartHub: %v", err)
	}
	defer hub.Close()

	// Ring size 16 is the logger minimum; 100 events wrap 84 past it.
	logger := testLogger(t, "w1", 16)
	for i := 0; i < 100; i++ {
		logger.Log(health.Info, "burst", "event", health.Int("i", int64(i)))
	}
	tr := trace.NewTracer("w1", 16)
	for i := 0; i < 40; i++ {
		sp := tr.Root("burst.span")
		sp.End()
	}

	em := StartEmitter(EmitterConfig{
		Hub: hub.Addr(), Proc: "w1", Role: "worker",
		Interval: 10 * time.Millisecond,
		Logger:   logger,
		Tracer:   func() *trace.Tracer { return tr },
	})
	defer em.Close()

	waitFor(t, 5*time.Second, func() bool {
		st := hub.Status()
		return len(st) == 1 && st[0].Batches >= 1
	}, "first batch merged")

	st := hub.Status()[0]
	if st.MissedLogs != 84 {
		t.Fatalf("MissedLogs = %d, want 84 (100 events through a 16-ring)", st.MissedLogs)
	}
	if st.MissedSpans != 24 {
		t.Fatalf("MissedSpans = %d, want 24 (40 spans through a 16-ring)", st.MissedSpans)
	}
	if st.Logs != 16 || st.Spans != 16 {
		t.Fatalf("merged %d logs / %d spans, want 16/16", st.Logs, st.Spans)
	}
	if doc := hub.mergedLogs(logFilter{}); doc.Missed != 84 {
		t.Fatalf("/fleet/logs missed = %d, want 84", doc.Missed)
	}
	es := em.Stats()
	if es.MissedLogs != 84 || es.MissedSpans != 24 {
		t.Fatalf("emitter stats missed = %d/%d, want 84/24", es.MissedLogs, es.MissedSpans)
	}
}

// TestHubLogRingWrapCountsMissed covers the loss the hub itself causes: a
// process that streams more events than its hub-side ring holds has the
// overwritten ones reported in /fleet/logs' missed, beside the newest
// logRingSize.
func TestHubLogRingWrapCountsMissed(t *testing.T) {
	hub, err := StartHub(HubConfig{Addr: "127.0.0.1:0", Logger: testLogger(t, "hub", 16)})
	if err != nil {
		t.Fatalf("StartHub: %v", err)
	}
	defer hub.Close()
	const over = 5
	batch := message.ObsBatch{Seq: 1, MissedLogs: 2}
	for i := 0; i < logRingSize+over; i++ {
		batch.Logs = append(batch.Logs, message.ObsLogEvent{TsUs: int64(i), Level: "info", Component: "burst", Msg: "event"})
	}
	hub.merge("w1", batch)
	doc := hub.mergedLogs(logFilter{})
	if doc.Missed != 2+over {
		t.Errorf("/fleet/logs missed = %d, want %d (2 lost at the sender + %d overwritten here)", doc.Missed, 2+over, over)
	}
	if len(doc.Events) != logRingSize || doc.Events[0].TsUs != over {
		t.Errorf("/fleet/logs holds %d events from ts %d, want the newest %d from ts %d", len(doc.Events), doc.Events[0].TsUs, logRingSize, over)
	}
}

// TestSilentWorkerAlertDrill subscribes a raw wire client that goes silent
// without a Closing batch, then drives the alert engine on the hub's
// silence gauge: the worker_silent rule must fire and the bound flight
// recorder must write a bundle.
func TestSilentWorkerAlertDrill(t *testing.T) {
	logger := testLogger(t, "root", 256)
	hub, err := StartHub(HubConfig{Addr: "127.0.0.1:0", Logger: logger})
	if err != nil {
		t.Fatalf("StartHub: %v", err)
	}
	defer hub.Close()

	cli, err := bus.DialConfig(hub.Addr(), "w-silent", bus.ClientConfig{InboxSize: 8})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	send := func(p message.Payload) {
		t.Helper()
		env, err := message.NewEnvelope("w-silent", hubName, obsSession, p)
		if err != nil {
			t.Fatalf("NewEnvelope: %v", err)
		}
		if err := cli.Send(env); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	send(message.ObsSubscribe{Proc: "w-silent", Role: "worker"})
	send(message.ObsBatch{Seq: 1})
	waitFor(t, 5*time.Second, func() bool {
		st := hub.Status()
		return len(st) == 1 && st[0].LastSeq == 1
	}, "silent worker's first batch")
	// Abrupt close: no Closing batch, so the process stays in the silence
	// gauge and its age starts growing.
	cli.Close()

	dir := t.TempDir()
	reg := trace.NewRegistry()
	reg.Register(hub.Samples)
	rec := health.NewRecorder(dir, 4, logger, reg)
	engine := health.NewEngine([]health.RuleConfig{{
		Name: "worker_silent", Metric: "fleet_last_batch_age_seconds",
		Op: ">", Threshold: 0.01, For: 2,
	}}, logger)
	engine.Metrics = reg
	engine.OnFire = func(a health.AlertStatus) { rec.Dump("alert", a.Rule.Name) }

	time.Sleep(30 * time.Millisecond) // let the batch age past the threshold
	engine.Eval()
	engine.Eval()
	if n := engine.FiringCount(); n != 1 {
		t.Fatalf("FiringCount = %d, want 1", n)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no flight-recorder bundle written (err=%v)", err)
	}
	if !strings.Contains(entries[0].Name(), "-alert-") {
		t.Fatalf("bundle %q not an alert bundle", entries[0].Name())
	}
}

// TestWireSamples checks what a gathered snapshot becomes on the wire:
// labelled series named whole, histogram buckets left behind, _sum/_count and
// quantile gauges kept.
func TestWireSamples(t *testing.T) {
	reg := fixedMetrics(
		trace.Counter("foo", "", 1),
		trace.Gauge("bar", `a="b",c="d"`, 2.5))
	reg.Histogram("baz_seconds").Observe(400 * time.Millisecond)
	got := wireSamples(reg.Gather())
	p50, _ := trace.Value(reg.Gather(), "baz_seconds_p50")
	want := []message.ObsMetricSample{
		{Name: "foo", Value: 1},
		{Name: `bar{a="b",c="d"}`, Value: 2.5},
		{Name: "baz_seconds_sum", Value: 0.4},
		{Name: "baz_seconds_count", Value: 1},
		{Name: "baz_seconds_p50", Value: p50},
		{Name: "baz_seconds_p95", Value: got[len(got)-2].Value},
		{Name: "baz_seconds_p99", Value: got[len(got)-1].Value},
	}
	if len(got) != len(want) {
		t.Fatalf("%d wire samples, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestFleetQueryFromHubHistory wires a hub with a history store, streams a
// worker's metrics into it, and checks /fleet/query serves proc-labelled
// range queries over the retained samples — including the same 400
// discipline as the other fleet endpoints.
func TestFleetQueryFromHubHistory(t *testing.T) {
	hist := tsdb.New(tsdb.Config{})
	hub, err := StartHub(HubConfig{Addr: "127.0.0.1:0", Logger: testLogger(t, "hub", 256), History: hist})
	if err != nil {
		t.Fatalf("StartHub: %v", err)
	}
	defer hub.Close()

	var flushes atomic.Int64
	em := StartEmitter(EmitterConfig{
		Hub: hub.Addr(), Proc: "w1", Role: "worker",
		Interval: 10 * time.Millisecond,
		Logger:   testLogger(t, "w1", 256),
		Metrics: func() *trace.Registry {
			reg := fixedMetrics(trace.Gauge("feedback_score", "", 90))
			reg.Register(func(dst []trace.Sample) []trace.Sample {
				return append(dst, trace.Counter("session_count", "", uint64(5*flushes.Add(1))))
			})
			return reg
		}(),
	})
	defer em.Close()

	series := `feedback_score{proc="w1"}`
	waitFor(t, 5*time.Second, func() bool {
		pts := hist.Query(tsdb.Expr{Series: series}, time.Now().Add(-time.Minute).UnixMicro(), time.Now().UnixMicro(), 1000)
		return len(pts) >= 3
	}, "streamed samples retained in hub history")

	mux := http.NewServeMux()
	hub.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var doc struct {
		Series string       `json:"series"`
		Points []tsdb.Point `json:"points"`
	}
	getJSON(t, srv.URL+"/fleet/query?"+url.Values{"series": {series}, "step": {"10ms"}}.Encode(), &doc)
	if doc.Series != series || len(doc.Points) == 0 {
		t.Fatalf("/fleet/query = %+v", doc)
	}
	if last := doc.Points[len(doc.Points)-1].Value; last != 90 {
		t.Fatalf("last feedback_score point = %g, want 90", last)
	}

	// A derived query over the streamed counter works and never dips
	// negative (the counter only climbs).
	rateSeries := `rate(session_count{proc="w1"}[1s])`
	getJSON(t, srv.URL+"/fleet/query?"+url.Values{"series": {rateSeries}, "step": {"100ms"}}.Encode(), &doc)
	for _, p := range doc.Points {
		if p.Value < 0 {
			t.Fatalf("negative fleet rate %g", p.Value)
		}
	}

	// The shared 400 discipline: malformed series/from/to/step/limit fail
	// like the other fleet endpoints, with a reasoned body.
	for _, q := range []string{
		"", "series=rate(x", "series=g&from=nope", "series=g&to=nope",
		"series=g&step=0s", "series=g&limit=0", "series=g&from=0s&to=-10s",
	} {
		resp, err := http.Get(srv.URL + "/fleet/query?" + q)
		if err != nil {
			t.Fatalf("GET ?%s: %v", q, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || len(body) == 0 {
			t.Fatalf("GET ?%s = %s %q, want 400 with body", q, resp.Status, body)
		}
	}
}

// TestFleetQueryUnmountedWithoutHistory checks a hub with no history store
// serves 404 on /fleet/query rather than an empty result.
func TestFleetQueryUnmountedWithoutHistory(t *testing.T) {
	hub, err := StartHub(HubConfig{Addr: "127.0.0.1:0", Logger: testLogger(t, "hub", 256)})
	if err != nil {
		t.Fatalf("StartHub: %v", err)
	}
	defer hub.Close()
	mux := http.NewServeMux()
	hub.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/fleet/query?series=feedback_score")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("historyless /fleet/query = %s, want 404", resp.Status)
	}
}

// TestFleetTraceMatchesTracerRecords: /fleet/trace over a process's streamed
// spans selects exactly what that process's Tracer.Records selects under the
// same filter — one span predicate (trace.Filter.Match) behind both, where the
// hub used to re-implement it on rendered records.
func TestFleetTraceMatchesTracerRecords(t *testing.T) {
	tr := trace.NewTracer("w1", 256)
	var traces []string
	// Spans end in the order they start, at distinct microseconds, so the
	// ring's order (by end) and the hub's (by start) agree and Limit keeps the
	// same newest spans on both sides.
	span := func(parent trace.Context, name, session, shard, agent string) trace.Context {
		sp := tr.Child(parent, name)
		sp.SetSession(session)
		sp.SetShard(shard)
		sp.SetAgent(agent)
		sp.End()
		time.Sleep(2 * time.Microsecond)
		return sp.Context()
	}
	for i, session := range []string{"s1", "s2", "s1"} {
		root := span(trace.Context{}, "session.open", session, "", "ua")
		traces = append(traces, fmt.Sprintf("%016x", root.Trace))
		for shard := 0; shard < 3; shard++ {
			span(root, "round.announce", session, fmt.Sprint(shard), "")
			span(root, "handle.cutdown_bid", session, "", fmt.Sprintf("conc-s%d-up", shard+i))
		}
	}

	hub, err := StartHub(HubConfig{Addr: "127.0.0.1:0", Logger: testLogger(t, "hub", 16)})
	if err != nil {
		t.Fatalf("StartHub: %v", err)
	}
	defer hub.Close()
	batch := message.ObsBatch{Seq: 1}
	for _, r := range tr.Records(trace.Filter{}) {
		batch.Spans = append(batch.Spans, message.ObsSpan{Trace: r.Trace, Span: r.Span, Parent: r.Parent, Name: r.Name,
			Agent: r.Agent, Session: r.Session, Shard: r.Shard, StartUs: r.StartUs, DurUs: r.DurUs})
	}
	hub.merge("w1", batch)
	mux := http.NewServeMux()
	hub.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	spanIDs := func(recs []trace.Record) []string {
		ids := make([]string, len(recs))
		for i, r := range recs {
			ids[i] = r.Span
		}
		return ids
	}
	for _, f := range []trace.Filter{
		{},
		{Session: "s1"},
		{Trace: traces[1]},
		{Trace: strings.TrimLeft(traces[2], "0")},
		{Shard: "1"},
		{Shard: "s2"},
		{Session: "s1", Shard: "s3"},
		{Limit: 4},
		{Session: "s2", Limit: 2},
	} {
		q := url.Values{}
		for k, v := range map[string]string{"session": f.Session, "trace": f.Trace, "shard": f.Shard} {
			if v != "" {
				q.Set(k, v)
			}
		}
		if f.Limit > 0 {
			q.Set("limit", fmt.Sprint(f.Limit))
		}
		var doc FleetTraceDoc
		getJSON(t, srv.URL+"/fleet/trace?"+q.Encode(), &doc)
		want, got := spanIDs(tr.Records(f)), spanIDs(doc.Spans)
		if len(want) == 0 || strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("filter %+v: /fleet/trace %v, Tracer.Records %v", f, got, want)
		}
	}
}

// TestRelabel checks proc-label injection on plain and labelled series.
func TestRelabel(t *testing.T) {
	if got := relabel(message.ObsMetricSample{Name: "foo", Value: 2}, "w1"); got.Series() != `foo{proc="w1"}` || got.Value != 2 || got.Kind != trace.KindUntyped {
		t.Fatalf("relabel plain = %+v", got)
	}
	if got := relabel(message.ObsMetricSample{Name: `foo{a="b"}`}, "w1").Series(); got != `foo{proc="w1",a="b"}` {
		t.Fatalf("relabel labelled = %s", got)
	}
	if got := relabel(message.ObsMetricSample{Name: `obs_logs_total{proc="w2"}`}, "w1").Series(); got != `obs_logs_total{proc="w1",exported_proc="w2"}` {
		t.Fatalf("relabel of a proc-labelled series = %s", got)
	}
}

// TestWorkloadAllocs pins the instrumented per-tick path — a session-labelled
// root span, four shard children, one histogram observation and, one operation
// in 64, an Info event (the path's one allocation) — at zero allocations an
// operation by AllocsPerRun's integer division: bare, and while a live Emitter
// drains the same rings to a Hub over loopback. Streamed, 0 is a ceiling: the
// emitter's and the hub's goroutines allocate each batch on the counter
// AllocsPerRun reads (about a thousand a batch of these small rings, against
// tens of thousands of operations), and the division drops that share too.
func TestWorkloadAllocs(t *testing.T) {
	for _, mode := range []string{"bare", "streamed"} {
		t.Run(mode, func(t *testing.T) {
			streamed := mode == "streamed"
			tr, l := trace.NewTracer("alloc", 64), testLogger(t, "alloc", 16)
			defer l.Close()
			h := trace.NewRegistry().Histogram("obs_alloc_seconds")
			batches := func() uint64 { return 0 }
			if streamed {
				hub, err := StartHub(HubConfig{Addr: "127.0.0.1:0"})
				if err != nil {
					t.Fatal(err)
				}
				defer hub.Close()
				em := StartEmitter(EmitterConfig{Hub: hub.Addr(), Proc: "alloc", Role: "test", Interval: 100 * time.Millisecond,
					Logger: l, Tracer: func() *trace.Tracer { return tr }})
				defer em.Close()
				batches = func() uint64 { return em.Stats().Batches }
			}
			i := 0
			// Measure until a drain has landed inside a measured window.
			for before, windows := batches(), 0; windows < 1000; windows++ {
				got := testing.AllocsPerRun(20000, func() {
					sp := tr.Root("alloc.tick")
					sp.SetSession("alloc")
					for s := 0; s < 4; s++ {
						child := tr.Child(sp.Context(), "alloc.shard")
						child.End()
					}
					h.Observe(time.Duration(1000 + i%1000))
					if i%64 == 0 {
						l.Log(health.Info, "alloc", "op complete", health.Int("op", int64(i)))
					}
					sp.End()
					i++
				})
				if got != 0 {
					t.Fatalf("the traced and logged workload allocates %v times an operation, want 0", got)
				}
				if !streamed || batches() > before {
					return
				}
			}
			t.Fatal("the emitter never drained")
		})
	}
}

// TestHubStartCloseBytes: the hub's control handler is an agent whose
// pending envelopes wait on a ring, not in a 1 024-envelope channel (128 KB),
// so a hub started and closed costs a few KB. The first start pays the
// package's one-time setup and is not measured.
func TestHubStartCloseBytes(t *testing.T) {
	startClose := func() {
		hub, err := StartHub(HubConfig{Addr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		hub.Close()
	}
	startClose()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	startClose()
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b >= 32<<10 {
		t.Fatalf("a second StartHub + Close allocated %d B, want under 32 KB", b)
	}
}

// Package benchrun hosts the repo's perf-trajectory benchmark bodies: the
// hot paths whose floors the project tracks release over release in
// BENCH_gridd.json. Each body is an ordinary func(*testing.B), so the same
// code runs under `go test -bench` (via the wrappers in bench_test.go) and
// under cmd/benchrec, which executes them with testing.Benchmark and appends
// the machine-readable results CI gates on.
//
// The _traced variants run the identical workload with the trace subsystem
// enabled (package trace's global switch on, ring allocated). They exist to
// hold the tracing tentpole to its overhead budget: enabling tracing must
// not move the journal-append or wire-codec floors by more than a few
// percent, because the disabled-path cost is one atomic load and untraced
// envelopes encode byte-identically. The _ctx wire-codec variants carry a
// stamped trace context in the envelope — the true cost of tracing a frame
// (18 extra bytes on the wire), reported for the trajectory but not gated
// against the untraced floor.
package benchrun

import (
	"fmt"
	"os"
	"testing"
	"time"

	"loadbalance/internal/bus"
	"loadbalance/internal/customeragent"
	"loadbalance/internal/health"
	"loadbalance/internal/kb"
	"loadbalance/internal/message"
	"loadbalance/internal/obsplane"
	"loadbalance/internal/protocol"
	"loadbalance/internal/store"
	"loadbalance/internal/trace"
	"loadbalance/internal/tsdb"
	"loadbalance/internal/units"
)

// Result is one benchmark body's measured floor.
type Result struct {
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	N           int     `json:"n"` // iterations of the selected (fastest) run
	// PairOverheadPct is set only on a RunPair traced result: the best
	// same-round overhead vs the untraced twin, in percent. Per-round ratios
	// cancel machine noise that drifts between rounds, so this — not the
	// ratio of the recorded floors — is what an overhead gate should read.
	PairOverheadPct *float64 `json:"pairOverheadPct,omitempty"`
}

// Def names one registered benchmark body.
type Def struct {
	Name string
	F    func(*testing.B)
}

// Defs lists the tracked benchmark bodies in reporting order.
func Defs() []Def {
	return []Def{
		{"journal_append", JournalAppend},
		{"journal_append_traced", JournalAppendTraced},
		{"wire_codec_table", WireCodecTable},
		{"wire_codec_table_traced", WireCodecTableTraced},
		{"wire_codec_table_ctx", WireCodecTableCtx},
		{"wire_codec_bid", WireCodecBid},
		{"wire_codec_bid_traced", WireCodecBidTraced},
		{"wire_codec_bid_ctx", WireCodecBidCtx},
		{"span_start_end", SpanStartEnd},
		{"span_disabled", SpanDisabled},
		{"histogram_observe", HistogramObserve},
		{"log_event_disabled", LogEventDisabled},
		{"feedback_score_compute", FeedbackScoreCompute},
		{"obs_workload", ObsWorkload},
		{"obs_workload_streamed", ObsWorkloadStreamed},
		{"tsdb_append", TsdbAppend},
		{"tsdb_range_query", TsdbRangeQuery},
		{"tsdb_workload", TsdbWorkload},
		{"tsdb_workload_scraped", TsdbWorkloadScraped},
		{"kb_infer_ca_round", KBInferCARound},
		{"ca_react", CAReact},
	}
}

// Run executes one body under testing.Benchmark `rounds` times and keeps the
// fastest round — the floor, which is what a regression gate should compare
// (the slower rounds measure scheduler noise, not the code). A discarded
// warm-up round runs first so the recorded rounds never pay cold page-cache
// or frequency-scaling costs that would skew pairwise overhead comparisons.
func Run(def Def, rounds int) Result {
	if rounds < 1 {
		rounds = 1
	}
	testing.Benchmark(def.F)
	var best testing.BenchmarkResult
	for i := 0; i < rounds; i++ {
		r := testing.Benchmark(def.F)
		if i == 0 || nsPerOp(r) < nsPerOp(best) {
			best = r
		}
	}
	return Result{
		NsPerOp:     nsPerOp(best),
		AllocsPerOp: best.AllocsPerOp(),
		BytesPerOp:  best.AllocedBytesPerOp(),
		N:           best.N,
	}
}

// RunPair measures an overhead pair (an untraced floor and its traced twin)
// with the rounds interleaved — plain, traced, plain, traced — so a noisy
// neighbour or frequency dip hits both sides of the comparison instead of
// biasing one. The floors are the per-side minima, like Run's.
func RunPair(plain, traced Def, rounds int) (Result, Result) {
	if rounds < 1 {
		rounds = 1
	}
	testing.Benchmark(plain.F)
	testing.Benchmark(traced.F)
	var bestP, bestT testing.BenchmarkResult
	bestRatio := 0.0
	for i := 0; i < rounds; i++ {
		rp := testing.Benchmark(plain.F)
		rt := testing.Benchmark(traced.F)
		if i == 0 || nsPerOp(rp) < nsPerOp(bestP) {
			bestP = rp
		}
		if i == 0 || nsPerOp(rt) < nsPerOp(bestT) {
			bestT = rt
		}
		if p := nsPerOp(rp); p > 0 {
			if r := nsPerOp(rt) / p; i == 0 || r < bestRatio {
				bestRatio = r
			}
		}
	}
	toResult := func(r testing.BenchmarkResult) Result {
		return Result{NsPerOp: nsPerOp(r), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp(), N: r.N}
	}
	resP, resT := toResult(bestP), toResult(bestT)
	if bestRatio > 0 {
		over := (bestRatio - 1) * 100
		resT.PairOverheadPct = &over
	}
	return resP, resT
}

// nsPerOp is the float ns/op (testing's integer NsPerOp truncates sub-ns
// differences that matter on the 8ns disabled-span path).
func nsPerOp(r testing.BenchmarkResult) float64 {
	if r.N <= 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// withTracing runs f with the global tracer enabled, restoring the disabled
// default after.
func withTracing(b *testing.B, f func(*testing.B)) {
	trace.Enable("bench", 4096)
	defer trace.Disable()
	f(b)
}

// JournalAppend measures the durability hot path: meter-batch checkpoint
// records appended to the write-ahead journal with the live loop's commit
// cadence (one flush per 64 records) and a final fsync — the same workload
// as bench_test.go's BenchmarkJournalAppend.
func JournalAppend(b *testing.B) {
	dir, err := os.MkdirTemp("", "benchrun-journal-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	cp := store.TickCheckpoint{Readings: 512, Batches: 4, Shard: make([]float64, 16)}
	for i := range cp.Shard {
		cp.Shard[i] = 10 + float64(i)/16
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp.Tick = i
		if err := st.AppendTick(cp); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			if err := st.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := st.Sync(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// JournalAppendTraced is JournalAppend with tracing enabled — the overhead
// gate for the trace subsystem on the durability path.
func JournalAppendTraced(b *testing.B) { withTracing(b, JournalAppend) }

// codecEnvelope builds one of the two envelope shapes that dominate wire
// traffic: the UA's reward-table announcement (largest frame) or a
// customer's cut-down bid (smallest, highest count). withCtx stamps a trace
// context, growing the binary frame by the 18-byte trace field.
func codecEnvelope(b *testing.B, kind string, withCtx bool) message.Envelope {
	b.Helper()
	var env message.Envelope
	var err error
	switch kind {
	case "table":
		tab, terr := protocol.StandardTable(42.5)
		if terr != nil {
			b.Fatal(terr)
		}
		start := time.Unix(1700000000, 0)
		env, err = message.NewEnvelope("ua", "", "s", tab.Message(units.Interval{Start: start, End: start.Add(2 * time.Hour)}, 1))
	case "bid":
		env, err = message.NewEnvelope("c01", "ua", "s", message.CutDownBid{Round: 1, CutDown: 0.2})
	default:
		b.Fatalf("unknown envelope kind %q", kind)
	}
	if err != nil {
		b.Fatal(err)
	}
	if withCtx {
		env.TraceID, env.SpanID = 0x1122334455667788, 0x99aabbccddeeff00
	}
	return env
}

// runWireCodec measures one encode+decode round trip through the binary TCP
// framing.
func runWireCodec(b *testing.B, env message.Envelope) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := bus.EncodeEnvelopeFrame(nil, env)
		got, n, err := bus.DecodeEnvelopeFrame(data)
		if err != nil || n != len(data) || got.Kind != env.Kind {
			b.Fatalf("decode: %v (%d of %d bytes)", err, n, len(data))
		}
		b.SetBytes(int64(len(data)))
	}
}

// WireCodecTable measures the reward-table announcement frame, untraced.
func WireCodecTable(b *testing.B) { runWireCodec(b, codecEnvelope(b, "table", false)) }

// WireCodecTableTraced is WireCodecTable with tracing enabled but the
// envelope untraced — the always-on cost, which must be zero because an
// untraced envelope encodes byte-identically.
func WireCodecTableTraced(b *testing.B) {
	withTracing(b, func(b *testing.B) { runWireCodec(b, codecEnvelope(b, "table", false)) })
}

// WireCodecTableCtx carries a stamped trace context in the frame.
func WireCodecTableCtx(b *testing.B) {
	withTracing(b, func(b *testing.B) { runWireCodec(b, codecEnvelope(b, "table", true)) })
}

// WireCodecBid measures the cut-down bid frame, untraced.
func WireCodecBid(b *testing.B) { runWireCodec(b, codecEnvelope(b, "bid", false)) }

// WireCodecBidTraced is WireCodecBid with tracing enabled, envelope untraced.
func WireCodecBidTraced(b *testing.B) {
	withTracing(b, func(b *testing.B) { runWireCodec(b, codecEnvelope(b, "bid", false)) })
}

// WireCodecBidCtx carries a stamped trace context in the bid frame.
func WireCodecBidCtx(b *testing.B) {
	withTracing(b, func(b *testing.B) { runWireCodec(b, codecEnvelope(b, "bid", true)) })
}

// SpanStartEnd measures one root-span open+close on an enabled tracer —
// the per-span cost every instrumented operation pays when tracing is on.
func SpanStartEnd(b *testing.B) {
	withTracing(b, func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp := trace.Root("bench.op")
			sp.End()
		}
	})
}

// SpanDisabled measures the same call pair with tracing off — the cost the
// whole instrumented stack pays in the default configuration.
func SpanDisabled(b *testing.B) {
	trace.Disable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := trace.Root("bench.op")
		sp.End()
	}
}

// HistogramObserve measures one latency observation — paid per round,
// session, tick and sampled journal append whether or not tracing is on.
func HistogramObserve(b *testing.B) {
	h := trace.GetHistogram("benchrun_observe_seconds")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(1000 + i%1000))
	}
}

// LogEventDisabled measures a below-threshold structured log call — the
// cost every migrated log site pays when its level is gated off, which is
// the default state of the debug-level sites on the hot paths. The gate is
// one atomic load and the typed fields keep the variadic slice off the
// heap, so this floor carries an absolute budget (25ns/op) in benchrec
// -check rather than only a relative one.
func LogEventDisabled(b *testing.B) {
	l, err := health.New(health.Config{Proc: "bench", MinLevel: health.Warn, StderrLevel: health.Off})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Log(health.Debug, "bus", "client inbox full",
			health.Str("client", "c01"), health.Int("dropped", int64(i)))
	}
	if b.N > 0 {
		if total, _, _ := l.Stats(); total != 0 {
			b.Fatalf("disabled level recorded %d events", total)
		}
	}
}

// FeedbackScoreCompute measures one composite-score recomputation — runtime
// stats read, histogram percentile lookup and the clamp-linear weighting —
// the work the live loop adds to every tick.
func FeedbackScoreCompute(b *testing.B) {
	s := health.NewScorer(health.Sources{
		Utilization:    func() float64 { return 1.1 },
		ReplicationLag: func() float64 { return 12 },
	}, health.DefaultBudgets(), health.DefaultWeights())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Compute()
	}
}

// obsWorkloadBody runs the instrumented hot path the fleet observability
// plane ships: per op, a session-labelled root span with four shard
// children, one histogram observation and a sampled Info log event — the
// per-tick shape of a live daemon. streamed additionally runs a real hub
// and emitter over loopback TCP draining the same rings, so the pair holds
// the streaming tentpole to its overhead budget: the emitter drains on its
// own ticker, and the instrumented path must not slow down because its
// rings are being shipped.
func obsWorkloadBody(b *testing.B, streamed bool) {
	// A deliberately small ring: the benchmark produces spans ~1000x
	// faster than a live daemon, so the ring wraps between drains no
	// matter its size and each drain ships one full ring as its batch.
	// The ring size is therefore the drain batch size, and a live-daemon
	// default (4096+) would turn the pair into a single-core batch-encode
	// stress test. 1024 keeps the shipped volume proportionate while the
	// wrap losses exercise the missed accounting the plane is built on.
	tr := trace.Enable("bench", 1024)
	defer trace.Disable()
	l, err := health.New(health.Config{Proc: "bench", MinLevel: health.Info, StderrLevel: health.Off})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	h := trace.GetHistogram("benchrun_observe_seconds")
	if streamed {
		hub, err := obsplane.StartHub(obsplane.HubConfig{Addr: "127.0.0.1:0"})
		if err != nil {
			b.Fatal(err)
		}
		defer hub.Close()
		// The production-default drain interval (250ms): a one-second
		// benchmark round ships the full wrapped ring several times, which
		// is the shape a live daemon streams at. Tightening the interval
		// turns the pair into a drain stress test instead of an overhead
		// gate — the workload generates spans ~1000x faster than a real
		// tick loop, so each drain already carries a maximal batch.
		em := obsplane.StartEmitter(obsplane.EmitterConfig{
			Hub:    hub.Addr(),
			Proc:   "bench",
			Role:   "bench",
			Logger: l,
			Tracer: func() *trace.Tracer { return tr },
		})
		defer em.Close()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Root("bench.tick")
		sp.SetSession("bench")
		for s := 0; s < 4; s++ {
			child := tr.Child(sp.Context(), "bench.shard")
			child.End()
		}
		h.Observe(time.Duration(1000 + i%1000))
		if i%64 == 0 {
			l.Log(health.Info, "bench", "op complete", health.Int("op", int64(i)))
		}
		sp.End()
	}
	b.StopTimer()
}

// ObsWorkload measures the instrumented per-tick path with tracing and
// logging on but nothing consuming the rings — the local-only floor.
func ObsWorkload(b *testing.B) { obsWorkloadBody(b, false) }

// ObsWorkloadStreamed is ObsWorkload with a live obs hub and emitter
// streaming the rings over loopback — the overhead gate for the fleet
// observability plane.
func ObsWorkloadStreamed(b *testing.B) { obsWorkloadBody(b, true) }

// TsdbAppend measures one history-store append — the per-sample cost every
// scrape pays, times the series count, once per interval. Round-robins over
// 16 series so the map lookup and per-series ring both stay on the path.
func TsdbAppend(b *testing.B) {
	st := tsdb.New(tsdb.Config{})
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("bench_series_%02d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Append(names[i%len(names)], int64(i/len(names)+1), float64(i))
	}
	b.StopTimer()
}

// TsdbRangeQuery measures one derived range query — a rate() over a full
// raw ring at the default 1s step, the shape /query and gridctl plot issue.
func TsdbRangeQuery(b *testing.B) {
	st := tsdb.New(tsdb.Config{})
	const n = 1024
	const stepUs = int64(time.Second / time.Microsecond)
	for i := 0; i < n; i++ {
		st.Append("bench_counter", int64(i+1)*stepUs, float64(i*3))
	}
	e, err := tsdb.ParseExpr("rate(bench_counter[10s])")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := st.Query(e, 0, n*stepUs, stepUs); len(pts) == 0 {
			b.Fatal("empty query result")
		}
	}
	b.StopTimer()
}

// tsdbWorkloadBody runs the instrumented hot path the history scraper
// samples: per op, one histogram observation into a private registry.
// scraped additionally runs a live Scraper snapshotting that registry into
// a store on a tight interval, so the pair holds the metrics-history
// tentpole to its overhead budget: the observe path must not slow down
// because a scraper is reading the registry concurrently.
func tsdbWorkloadBody(b *testing.B, scraped bool) {
	reg := trace.NewRegistry()
	h := reg.Histogram("tsdb_bench_seconds")
	if scraped {
		st := tsdb.New(tsdb.Config{})
		// 50ms: ~20 scrapes per one-second round — far denser than the 1s
		// production default, so the pair overstates contention rather than
		// missing it.
		sc := tsdb.NewScraper(tsdb.ScrapeConfig{Store: st, Interval: 50 * time.Millisecond, Registry: reg})
		sc.Start()
		defer sc.Close()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(1000 + i%1000))
	}
	b.StopTimer()
}

// TsdbWorkload measures the instrumented observe path with no scraper — the
// unscraped floor.
func TsdbWorkload(b *testing.B) { tsdbWorkloadBody(b, false) }

// TsdbWorkloadScraped is TsdbWorkload with a live history scraper
// snapshotting the registry — the overhead gate for metrics history.
func TsdbWorkloadScraped(b *testing.B) { tsdbWorkloadBody(b, true) }

// elasticCustomer is a customer whose requirements stay finite through all
// ten standard cut-down levels (the live fleet's shape), and the tables of a
// two-round negotiation: the standard table and one concession step up.
func elasticCustomer(b *testing.B) (customeragent.Preferences, [2]protocol.Table) {
	b.Helper()
	first, err := protocol.StandardTable(42.5)
	if err != nil {
		b.Fatal(err)
	}
	required := make(map[float64]float64, len(first.Entries))
	for i, l := range first.Levels() {
		required[l] = float64(i*(i+7)) / 2 // 0, 4, 9, 15, 22, 30, 39, 49, 60, 72
	}
	prefs, err := customeragent.NewPreferences(first.Levels(), required)
	if err != nil {
		b.Fatal(err)
	}
	second, _ := first.Update(0.35, protocol.Params{Beta: 1.85, MaxRewardSlope: 125, Epsilon: 1, AllowedOveruseRatio: 0.13})
	return prefs.WithExpectedUse(13.5), [2]protocol.Table{first, second}
}

// KBInferCARound measures the inference a knowledge-based Customer Agent (the
// reference oracle, internal/desiremodel; production decides by
// customeragent.DecideCutDown) runs in the second round of a negotiation, on
// the knowledge base alone: ten required_reward facts, the announced_reward
// facts of two ten-entry tables, the one acceptability rule. Each iteration
// clones the store (as a reasoning component refills its working state) and
// runs Engine.Infer to its fixpoint.
// Allocations per operation are the tracked quantity.
func KBInferCARound(b *testing.B) {
	prefs, tables := elasticCustomer(b)
	base, err := kb.NewBase("acceptability", kb.Rule{
		Name: "acceptable_if_offer_clears_requirement",
		If: []kb.Literal{
			kb.Pos(kb.A("required_reward", kb.V("Cut"), kb.V("Req"))),
			kb.Pos(kb.A("announced_reward", kb.V("Cut"), kb.V("Off"))),
		},
		Guards: []kb.Guard{{Op: kb.OpGeq, Left: kb.V("Off"), Right: kb.V("Req")}},
		Then:   []kb.Atom{kb.A("acceptable_cutdown", kb.V("Cut"))},
	})
	if err != nil {
		b.Fatal(err)
	}
	store := kb.NewStore(nil)
	for _, l := range prefs.Levels {
		if err := store.AssertTrue(kb.A("required_reward", kb.N(l), kb.N(prefs.RequiredFor(l)))); err != nil {
			b.Fatal(err)
		}
	}
	for _, t := range tables {
		for _, e := range t.Entries {
			if err := store.AssertTrue(kb.A("announced_reward", kb.N(e.CutDown), kb.N(e.Reward))); err != nil {
				b.Fatal(err)
			}
		}
	}
	engine := kb.NewEngine(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		derived, err := engine.Infer(store.Clone())
		if err != nil || len(derived) == 0 {
			b.Fatalf("Infer derived %d facts: %v", len(derived), err)
		}
	}
}

// CAReact measures what one customer costs a two-round session: constructing
// the Customer Agent and its React to the round-1 and the round-2 table, from
// the table its in-process envelope carries to the bid.
func CAReact(b *testing.B) {
	prefs, tables := elasticCustomer(b)
	start := time.Unix(1700000000, 0)
	window := units.Interval{Start: start, End: start.Add(2 * time.Hour)}
	var envs [2]message.Envelope
	for i, t := range tables {
		env, err := message.NewEnvelope("ua", "", "s", t.Message(window, i+1))
		if err != nil {
			b.Fatal(err)
		}
		envs[i] = env
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ca, err := customeragent.New("c", prefs, customeragent.StrategyGreedy)
		if err != nil {
			b.Fatal(err)
		}
		for _, env := range envs {
			if _, ok, err := ca.React(env); err != nil || !ok {
				b.Fatalf("React: reply %v, %v", ok, err)
			}
		}
	}
}

// Lookup returns the named def.
func Lookup(name string) (Def, error) {
	for _, d := range Defs() {
		if d.Name == name {
			return d, nil
		}
	}
	return Def{}, fmt.Errorf("benchrun: unknown benchmark %q", name)
}

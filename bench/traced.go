package main

import (
	"fmt"
	"os"
	"time"

	"loadbalance/internal/bus"
	"loadbalance/internal/core"
)

// The traced run: end-to-end metrics are never taken here. It repeats the
// workload's shape through a benchmark-assembled session behind the span
// decorators, interleaved with the library's own untraced call so the
// difference between the two is the tracing overhead, then runs the layer
// probes and a live rig, and reports every per-layer metric.

// phaseStats brackets a phase with the process-wide counters.
type phaseStats struct {
	sampler  *peakSampler
	gc0      uint32
	pause0   time.Duration
	cpu      float64 // CPU seconds spent inside the phase's untraced operations
	ops      int
	gcCycles uint32
	pause    time.Duration
	heapMB   float64
	gs       int
	rssMB    float64
}

func beginPhase() *phaseStats {
	ps := &phaseStats{sampler: startPeakSampler(50 * time.Millisecond)}
	ps.gc0, ps.pause0 = gcTotals()
	return ps
}

func (ps *phaseStats) end() {
	cycles, pause := gcTotals()
	ps.gcCycles, ps.pause = cycles-ps.gc0, pause-ps.pause0
	ps.heapMB, ps.gs = ps.sampler.finish()
	ps.rssMB = peakRSSMB()
}

// timed runs one untraced operation and charges its CPU time to the phase.
func (ps *phaseStats) timed(op sessionOp) (*outcome, time.Duration, error) {
	cpu0 := cpuSeconds()
	start := time.Now()
	o, err := op()
	dur := time.Since(start)
	ps.cpu += cpuSeconds() - cpu0
	ps.ops++
	return o, dur, err
}

func (ps *phaseStats) report(ms *metricSet) {
	perOp := 0.0
	if ps.ops > 0 {
		perOp = ps.cpu / float64(ps.ops)
	}
	ms.set("process.cpu_s_per_op", perOp)
	ms.set("process.gc_cycles", float64(ps.gcCycles))
	ms.set("process.gc_pause_total_ms", millis(ps.pause))
	ms.set("process.peak_rss_mb", ps.rssMB)
	ms.set("process.heap_inuse_peak_mb", ps.heapMB)
	ms.set("process.goroutines_peak", float64(ps.gs))
}

// sessionPhase is what interleaving the untraced baseline, the assembled
// traced session and (tcp_256 only) the workload's own call produced.
type sessionPhase struct {
	baseline, traced, own []float64 // session wall times, seconds
	rounds                int
	busStats              bus.Stats     // one session's in-process bus counters
	wire                  bus.WireStats // one session's TCP frame counters (tcp_256 only)
	spans                 []span
	sessions              int
}

// runSessionPhase interleaves B (library call, untraced), T (assembled,
// traced) and — when the workload's own call differs from B — U.
func runSessionPhase(cfg runConfig, res *runResult, st *sessionSetup, ps *phaseStats, rec *recorder) (*sessionPhase, error) {
	ph := &sessionPhase{}
	traced := rec.tracedOp(st)
	ownDiffers := cfg.Workload == wlTCP
	var want string
	begin := time.Now()
	for pair := 0; pair < cfg.Size.MinPairs || seconds(time.Since(begin)) < cfg.Seconds/2; pair++ {
		o, dur, err := ps.timed(st.baseline)
		if err != nil {
			return nil, fmt.Errorf("baseline session: %w", err)
		}
		if want == "" {
			want = o.digest()
		}
		why := checkOutcome(o, st.scenario.Params, want, (*outcome).digest)
		if why != "" {
			why = fmt.Sprintf("baseline session %d: %s", pair+1, why)
		}
		res.attempt(why)
		ph.baseline = append(ph.baseline, seconds(dur))
		ph.rounds, ph.busStats = o.rounds, o.busStats

		start := time.Now()
		o, err = traced()
		dur = time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("assembled session: %w", err)
		}
		// The assembled session must negotiate what the untraced call did,
		// else its spans describe a different program.
		why = checkOutcome(o, st.scenario.Params, want, (*outcome).digest)
		if why != "" {
			why = fmt.Sprintf("assembled session %d: %s", pair+1, why)
		}
		res.attempt(why)
		ph.traced = append(ph.traced, seconds(dur))

		if ownDiffers {
			start = time.Now()
			o, err = st.op()
			dur = time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("session: %w", err)
			}
			why = st.check(o)
			if why != "" {
				why = fmt.Sprintf("session %d: %s", pair+1, why)
			}
			res.attempt(why)
			ph.own = append(ph.own, seconds(dur))
			ph.wire = o.wire
		}
	}
	ph.spans = rec.finish()
	ph.sessions = len(ph.traced)
	return ph, nil
}

// tcpTwin interleaves the sample negotiated over loopback TCP with its
// in-process twin: the transport's share of a session, and its frame counts.
func tcpTwin(res *runResult, sample core.Scenario, shards, pairs int) (tcp, twin []float64, wire bus.WireStats, err error) {
	dist, inproc := distributedOp(sample, shards), shardedOp(sample, shards)
	flat, err := flatOp(sample)()
	if err != nil {
		return nil, nil, wire, err
	}
	want := ""
	for i := 0; i < pairs; i++ {
		start := time.Now()
		o, err := dist()
		if err != nil {
			return nil, nil, wire, fmt.Errorf("tcp twin: %w", err)
		}
		tcp = append(tcp, seconds(time.Since(start)))
		if want == "" {
			want = awardsDigest(o.awards)
		}
		why := awardsAgree(flat.awards, o.awards)
		if got := awardsDigest(o.awards); why == "" && got != want {
			why = fmt.Sprintf("awards digest %s != first session's %s", short(got), short(want))
		}
		if why != "" {
			why = fmt.Sprintf("tcp twin %d: %s", i+1, why)
		}
		res.attempt(why)
		wire = o.wire
		start = time.Now()
		if _, err := inproc(); err != nil {
			return nil, nil, wire, fmt.Errorf("in-process twin: %w", err)
		}
		twin = append(twin, seconds(time.Since(start)))
	}
	return tcp, twin, wire, nil
}

// liveTables attributes live tick time. The steady table splits a steady
// tick by the probes of its sub-steps; what the probes do not explain is the
// engine's own bookkeeping. The whole-loop table adds the re-negotiating
// ticks' excess over a steady tick, split by the layer shares of the
// assembled session of the re-negotiation's shape.
func liveTables(obs *liveObs, p *probeResult, session *layerTable) (steady, loop *layerTable, selfShare float64) {
	steadyDur, _ := splitTicks(obs.samples)
	tickP50 := time.Duration(median(steadyDur) * float64(time.Second))
	publish := time.Duration(median(p.publishCollectUs) * 1e3)
	detect := time.Duration(median(p.detectNs) * float64(obs.p.shards))
	journal := time.Duration(median(p.appendTickNs)) + time.Duration(median(p.commitUs)*1e3)
	explained := publish + detect + journal
	engine := tickP50 - explained
	if engine < 0 {
		engine = 0
	}
	steady = &layerTable{}
	steady.add("telemetry.meter", 1, publish, true)
	steady.add("telemetry.detect", obs.p.shards, detect, true)
	steady.add("store", 1, journal, true)
	steady.add("telemetry.engine", 1, engine, true)
	for _, l := range []string{layerCA, layerDesire, layerKB, layerCluster} {
		steady.add(l, 0, 0, false)
	}
	if tickP50 > 0 {
		selfShare = float64(engine) / float64(tickP50)
	}

	var excess time.Duration
	renegs := 0
	for _, s := range obs.samples {
		if s.reneg {
			renegs++
			if s.dur > tickP50 {
				excess += s.dur - tickP50
			}
		}
	}
	n := len(obs.samples)
	loop = &layerTable{}
	loop.add("telemetry.meter", n, time.Duration(n)*publish, true)
	loop.add("telemetry.detect", n*obs.p.shards, time.Duration(n)*detect, true)
	snapshots := n / obs.p.snapshotEvery
	loop.add("store", n+snapshots, time.Duration(n)*journal+time.Duration(float64(snapshots)*median(p.snapshotMs)*1e6), true)
	loop.add("telemetry.engine", n, time.Duration(n)*engine, true)
	for _, r := range session.rows {
		loop.add(r.layer, renegs, time.Duration(float64(excess)*session.share(r.layer)), true)
	}
	return steady, loop, selfShare
}

// reportProbes sets every probe-derived metric.
func reportProbes(ms *metricSet, p *probeResult) {
	ms.set("customeragent.react_p50_us", median(p.reactUs))
	ms.set("customeragent.allocs_per_react", p.allocsPerReact)
	ms.set("kb.infer_p50_us", median(p.inferUs))
	ms.set("kb.match_p50_us", median(p.matchUs))
	ms.set("kb.facts_p50_us", median(p.factsUs))
	ms.set("kb.assert_p50_ns", median(p.assertNs))
	ms.set("kb.allocs_per_infer", p.allocsPerInfer)
	ms.set("desire.activate_p50_us", median(p.activateUs))
	ms.set("desire.self_us", median(p.activateUs)-median(p.inferUs))
	ms.set("protocol.close_round_n1000_p50_us", median(p.closeRoundUs[1000]))
	ms.set("protocol.close_round_n16_p50_us", median(p.closeRoundUs[16]))
	ms.set("protocol.predicted_overuse_n1000_p50_us", median(p.predictedOverUs[1000]))
	ms.set("protocol.predicted_overuse_n10000_p50_us", median(p.predictedOverUs[10000]))
	ms.set("cluster.topology_build_ms", median(p.topologyBuildMs))
	ms.set("message.bid_roundtrip_ns", median(p.bidRoundtripNs))
	ms.set("message.table_roundtrip_ns", median(p.tableRoundtripNs))
	ms.set("message.bid_allocs", p.bidAllocs)
	ms.set("message.table_allocs", p.tableAllocs)
	ms.set("message.decode_table_ns", median(p.decodeTableNs))
	ms.set("message.decode_bid_ns", median(p.decodeBidNs))
	ms.set("message.new_envelope_ns", median(p.newEnvelopeNs))
	ms.set("bus.tcp_roundtrip_p50_us", median(p.tcpRoundtripUs))
	ms.set("bus.dial_p50_us", median(p.dialUs))
	ms.set("telemetry.publish_collect_p50_us", median(p.publishCollectUs))
	ms.set("telemetry.detect_p50_ns", median(p.detectNs))
	ms.set("store.append_tick_ns", median(p.appendTickNs))
	ms.set("store.commit_p50_us", median(p.commitUs))
	ms.set("store.sync_p50_us", median(p.syncUs))
	ms.set("store.snapshot_p50_ms", median(p.snapshotMs))
	ms.set("store.open_replay_p50_ms", median(p.openReplayMs))
}

// reportSpans sets every span-derived metric.
func reportSpans(ms *metricSet, st spanStats, table *layerTable) {
	perSession := func(n int) float64 {
		if st.sessions == 0 {
			return 0
		}
		return float64(n) / float64(st.sessions)
	}
	ms.set("customeragent.reacts_per_session", perSession(st.caTableN))
	ms.set("customeragent.self_share", table.share(layerCA))
	ms.set("desire.self_share", table.share(layerDesire))
	ms.set("kb.self_share", table.share(layerKB))
	ms.set("utilityagent.self_share", table.share(layerUA))
	ms.set("bus.self_share", table.share(layerBus))
	ms.set("utilityagent.handle_bid_p50_us", median(st.handleBidUs))
	ms.set("agent.dispatch_wait_p50_us", median(st.dispatchWaitUs))
	ms.set("agent.dispatch_wait_p95_us", quantile(st.dispatchWaitUs, 0.95))
	ms.set("bus.send_p50_us", median(st.sendUs))
	ms.set("bus.broadcast_p50_us", median(st.broadcastUs))
	ms.set("cluster.relay_latency_p50_us", median(st.relayUs))
	ms.set("cluster.aggregate_latency_p50_us", median(st.aggregateUs))
	ms.set("cluster.shard_skew", median(st.skews))
}

// reportLive sets every metric a live rig's run yields.
func reportLive(ms *metricSet, obs *liveObs, selfShare float64) {
	steady, reneg := splitTicks(obs.samples)
	ticks := float64(len(obs.samples))
	ms.set("telemetry.readings_per_tick", float64(obs.p.n))
	ms.set("telemetry.renegs", float64(len(reneg)))
	ms.set("telemetry.tick_self_share", selfShare)
	ms.set("telemetry.tick_p99_ms", quantile(steady, 0.99)*1e3)
	ms.set("telemetry.reneg_p50_ms", median(reneg)*1e3)
	ms.set("store.bytes_per_tick", float64(obs.bytes)/ticks)
	ms.set("store.records_per_tick", float64(obs.records)/ticks)
	ms.set("store.records_replayed", float64(obs.replayed))
	ms.set("store.recovery_p50_ms", median(obs.recoveries)*1e3)
	ms.set("replica.lag_records_p95", quantile(obs.lag, 0.95))
	ms.set("replica.catchup_ms", millis(obs.catchup))
	ms.set("replica.promote_ms", millis(obs.promote))
}

// reportCounters sets the metrics read off public counters: one session's
// rounds and bus traffic, and the TCP twin's frames and overhead.
func reportCounters(ms *metricSet, ph *sessionPhase, wire bus.WireStats, tcp, twin []float64) {
	ms.set("protocol.rounds_per_session", float64(ph.rounds))
	ms.set("bus.sent_per_session", float64(ph.busStats.Sent))
	ms.set("bus.rejected_per_session", float64(ph.busStats.Rejected))
	ms.set("bus.dropped_per_session", float64(ph.busStats.Dropped))
	ms.set("bus.wire_bytes_per_session", float64(wire.BytesIn+wire.BytesOut))
	ms.set("bus.wire_frames_per_session", float64(wire.FramesIn+wire.FramesOut))
	ms.set("bus.wire_shed_per_session", float64(wire.Dropped))
	ms.set("bus.tcp_overhead_pct", overheadPct(tcp, twin))
}

func overheadPct(traced, untraced []float64) float64 {
	if base := median(untraced); base > 0 {
		return 100 * (median(traced)/base - 1)
	}
	return 0
}

// probesFor runs the sample's reference session and the layer probes.
func probesFor(cfg runConfig, scenario core.Scenario, n, shards, liveN int, root string) (probeInput, *probeResult, error) {
	sample := samplePrefix(scenario, cfg.Size.SampleN, scenario.SessionID+"-sample")
	tables, _, err := sampleTables(sample)
	if err != nil {
		return probeInput{}, nil, err
	}
	in := probeInput{sample: sample, tables: tables, n: n, shards: max(shards, 1), liveN: liveN, liveShards: cfg.Size.LiveShards, reps: cfg.Size.ProbeReps, root: root}
	p, err := runProbes(in)
	return in, p, err
}

// runSessionTraced is the traced run of flat_1k, sharded_10k and tcp_256.
func runSessionTraced(cfg runConfig, res *runResult, ms *metricSet) error {
	root, err := newRunRoot(cfg.OutDir, cfg.Workload)
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	sz := cfg.Size
	st, _, err := setUpSessions(cfg, res, 1)
	if err != nil {
		return err
	}

	rec := newRecorder()
	ps := beginPhase()
	ph, err := runSessionPhase(cfg, res, st, ps, rec)
	ps.end()
	if err != nil {
		return err
	}
	path, err := writeTraceFile(cfg.OutDir, cfg.Workload, cfg.Seed, ph.sessions, ph.spans)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}

	in, p, err := probesFor(cfg, st.scenario, st.n, st.shards, sz.MiniLiveN, root)
	if err != nil {
		return err
	}
	tcp, twin, wire := ph.own, ph.baseline, ph.wire
	if cfg.Workload != wlTCP {
		if tcp, twin, wire, err = tcpTwin(res, in.sample, sz.TCPShards, 2*sz.ProbeReps); err != nil {
			return err
		}
	}

	// The telemetry, store and replica layers are absent from a session
	// workload; a small live rig stands in so their metrics are measured,
	// not left blank.
	rig, err := openLiveRig(liveParamsOf(cfg, sz.MiniLiveN, sz.MiniLiveTicks+2*sz.SnapshotEvery, root))
	if err != nil {
		return fmt.Errorf("mini live rig: %w", err)
	}
	defer rig.close()
	obs, err := observeLive(res, rig, 0, sz.MiniLiveTicks, 2, true)
	if err != nil {
		return err
	}
	if err := probeJournalRead(in, journalInput{snapshot: obs.snapshot, crashedDir: obs.crashedDir}, p); err != nil {
		return err
	}

	stats := analyzeSpans(ph.spans)
	rootFanIn := st.n
	if st.shards > 0 {
		rootFanIn = st.shards
	}
	table := sessionTable(stats, p, rootFanIn)
	_, _, selfShare := liveTables(obs, p, table)

	reportProbes(ms, p)
	reportSpans(ms, stats, table)
	reportLive(ms, obs, selfShare)
	ps.report(ms)
	reportCounters(ms, ph, wire, tcp, twin)
	ms.set("bench.trace_overhead_pct", overheadPct(ph.traced, ph.baseline))
	ms.set("bench.op_p50_ms", median(ph.baseline)*1e3)
	ms.set("bench.units_per_s", float64(len(ph.baseline)*st.n)/sum(ph.baseline))
	tail, label := tailQuantile(ph.baseline)
	ms.set("bench.op_tail_ms", tail*1e3)
	ms.set("bench.op_max_ms", quantile(ph.baseline, 1)*1e3)
	ms.set("bench.gomaxprocs", float64(res.Fingerprint.GOMAXPROCS))

	res.infof("%d untraced and %d traced sessions; %d spans in %s; bench.op_tail_ms is the %s", len(ph.baseline), len(ph.traced), len(ph.spans), path, label)
	res.Info = append(res.Info, table.lines(fmt.Sprintf("layer table, %s (%d traced sessions):", cfg.Workload, ph.sessions))...)
	res.infof("self time is wall time inside a span, GC assist waits included: %.2f s per session here against %.2f s of process CPU per untraced session",
		seconds(table.busy)/float64(max(ph.sessions, 1)), ps.cpu/float64(max(ps.ops, 1)))
	res.infof("agent: dispatch wait p50 %.1f us, p95 %.1f us over %d deliveries (waiting, not busy time)",
		median(stats.dispatchWaitUs), quantile(stats.dispatchWaitUs, 0.95), len(stats.dispatchWaitUs))
	res.infof("telemetry/store/replica metrics come from a %d-customer live rig; tcp metrics from %d pairs on the %d-customer sample", sz.MiniLiveN, len(tcp), len(in.sample.Customers))
	return nil
}

// runLiveTraced is the traced run of live_4k: the rig is observed from
// outside Tick(), the re-negotiation shape (one shard's members behind one
// concentrator) is traced as an assembled session.
func runLiveTraced(cfg runConfig, res *runResult, ms *metricSet) error {
	root, err := newRunRoot(cfg.OutDir, cfg.Workload)
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	sz := cfg.Size
	p := liveParamsOf(cfg, sz.LiveN, sz.MaxTicks, root)
	rig, _, err := setUpLive(res, sz, p, 1)
	if err != nil {
		return err
	}
	defer rig.close()

	ps := beginPhase()
	cpu0 := cpuSeconds()
	obs, err := observeLive(res, rig, cfg.Seconds/2, sz.MinTicks, max(2, sz.Recoveries/4), true)
	ps.end()
	if err != nil {
		return err
	}
	ps.cpu, ps.ops = cpuSeconds()-cpu0, len(obs.samples)

	// One shard's members re-negotiate behind one concentrator: that is the
	// session shape a live re-negotiation runs, so that is what is traced.
	shardMembers := sz.LiveN / sz.LiveShards
	sample := samplePrefix(rig.scenario, shardMembers, rig.scenario.SessionID+"-reneg")
	st := &sessionSetup{n: len(sample.Customers), scenario: sample, shards: 1, baseline: shardedOp(sample, 1), op: shardedOp(sample, 1), digestOf: (*outcome).digest}
	rec := newRecorder()
	sessionCfg := cfg
	sessionCfg.Seconds = cfg.Seconds / 4
	ph, err := runSessionPhase(sessionCfg, res, st, &phaseStats{}, rec)
	if err != nil {
		return err
	}
	path, err := writeTraceFile(cfg.OutDir, cfg.Workload, cfg.Seed, ph.sessions, ph.spans)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}

	in, pr, err := probesFor(cfg, rig.scenario, sz.LiveN, sz.LiveShards, sz.LiveN, root)
	if err != nil {
		return err
	}
	if err := probeJournalRead(in, journalInput{snapshot: obs.snapshot, crashedDir: obs.crashedDir}, pr); err != nil {
		return err
	}
	tcp, twin, wire, err := tcpTwin(res, in.sample, sz.TCPShards, 2*sz.ProbeReps)
	if err != nil {
		return err
	}

	stats := analyzeSpans(ph.spans)
	session := sessionTable(stats, pr, 1)
	steady, loop, selfShare := liveTables(obs, pr, session)

	reportProbes(ms, pr)
	reportSpans(ms, stats, loop)
	reportLive(ms, obs, selfShare)
	ps.report(ms)
	reportCounters(ms, ph, wire, tcp, twin)

	// Tracing a live tick means timing it and sampling the sender's lag;
	// alternate blocks of ticks went without, which gives the overhead.
	var with, without []float64
	for _, s := range obs.samples {
		if s.reneg {
			continue
		}
		if s.traced {
			with = append(with, seconds(s.dur))
		} else {
			without = append(without, seconds(s.dur))
		}
	}
	tickOverhead, sessionOverhead := overheadPct(with, without), overheadPct(ph.traced, ph.baseline)
	ms.set("bench.trace_overhead_pct", max(tickOverhead, sessionOverhead))
	steadyDur, _ := splitTicks(obs.samples)
	var loopSeconds float64
	whole := wholePeriods(obs.samples, obs.p)
	for _, s := range whole {
		loopSeconds += seconds(s.dur)
	}
	ms.set("bench.op_p50_ms", median(steadyDur)*1e3)
	ms.set("bench.units_per_s", float64(len(whole)*obs.p.n)/loopSeconds)
	tail, label := tailQuantile(steadyDur)
	ms.set("bench.op_tail_ms", tail*1e3)
	ms.set("bench.op_max_ms", quantile(steadyDur, 1)*1e3)
	ms.set("bench.gomaxprocs", float64(res.Fingerprint.GOMAXPROCS))

	res.infof("%d ticks observed, %d re-negotiating; trace overhead %.2f%% on ticks, %.2f%% on the re-negotiation session; bench.op_tail_ms is the steady tick %s", len(obs.samples), len(obs.samples)-len(steadyDur), tickOverhead, sessionOverhead, label)
	res.infof("%d spans of %d assembled re-negotiation sessions in %s", len(ph.spans), ph.sessions, path)
	res.Info = append(res.Info, steady.lines("layer table, live_4k steady tick (median tick split by the probes of its sub-steps):")...)
	res.Info = append(res.Info, loop.lines("layer table, live_4k whole tick loop (re-negotiation excess split by the assembled session's shares):")...)
	res.Info = append(res.Info, session.lines(fmt.Sprintf("layer table, re-negotiation session shape (%d members, 1 shard):", st.n))...)
	return nil
}

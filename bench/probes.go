package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"loadbalance/internal/agent"
	"loadbalance/internal/bus"
	"loadbalance/internal/cluster"
	"loadbalance/internal/core"
	"loadbalance/internal/customeragent"
	"loadbalance/internal/desire"
	"loadbalance/internal/kb"
	"loadbalance/internal/message"
	"loadbalance/internal/protocol"
	"loadbalance/internal/store"
	"loadbalance/internal/telemetry"
	"loadbalance/internal/units"
)

// Layer probes: the benchmark calls a layer's public functions directly, on
// inputs captured from the workload (its customers, the reward tables its
// reference session announced, its journal), and times those calls. A probe
// says how fast a layer is on this workload's data; the spans say how much
// of the workload's time the layer got.

// probeInput is what the probes are run on.
type probeInput struct {
	sample core.Scenario         // the workload's first SampleN customers
	tables []message.RewardTable // the tables the sample's reference session announced, in round order
	n      int                   // the workload's fleet size
	shards int                   // the workload's shard count (1 when it is flat)
	// The metering and journal probes run at the size of the live rig the
	// traced run observes: the workload's own for live_4k, the mini rig's
	// for a session workload.
	liveN, liveShards int
	reps              int
	root              string // scratch directory for the journal probes
}

// probeResult holds every probe measurement, in the unit it is reported in.
type probeResult struct {
	reactUs        []float64
	allocsPerReact float64

	inferUs, matchUs, factsUs []float64
	assertNs                  []float64
	allocsPerInfer            float64

	activateUs []float64

	closeRoundUs     map[int][]float64
	predictedOverUs  map[int][]float64
	topologyBuildMs  []float64
	bidRoundtripNs   []float64
	tableRoundtripNs []float64
	bidAllocs        float64
	tableAllocs      float64
	decodeTableNs    []float64
	decodeBidNs      []float64
	newEnvelopeNs    []float64
	tcpRoundtripUs   []float64
	dialUs           []float64
	publishCollectUs []float64
	detectNs         []float64
	appendTickNs     []float64
	commitUs, syncUs []float64
	snapshotMs       []float64
	openReplayMs     []float64
}

// mallocs counts heap objects allocated by f, through the stop-the-world
// counter: probes run alone, so nothing else allocates meanwhile.
func mallocs(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// timeBatches times f in batches and returns the per-call cost of each batch
// in nanoseconds — for calls too short to time one at a time.
func timeBatches(batches, perBatch int, f func()) []float64 {
	out := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			f()
		}
		out = append(out, float64(time.Since(start))/float64(perBatch))
	}
	return out
}

// sampleTables runs the sample's reference session and returns the tables it
// announced, as the Utility Agent put them on the wire.
func sampleTables(sample core.Scenario) ([]message.RewardTable, *outcome, error) {
	o, err := flatOp(sample)()
	if err != nil {
		return nil, nil, fmt.Errorf("sample reference session: %w", err)
	}
	tables := make([]message.RewardTable, 0, len(o.history))
	for _, rec := range o.history {
		tables = append(tables, rec.Table.Message(sample.Window, rec.Round))
	}
	if len(tables) == 0 {
		return nil, nil, fmt.Errorf("sample reference session announced no table")
	}
	return tables, o, nil
}

func runProbes(in probeInput) (*probeResult, error) {
	p := &probeResult{closeRoundUs: map[int][]float64{}, predictedOverUs: map[int][]float64{}}
	steps := []func(probeInput, *probeResult) error{
		probeReact, probeKB, probeDesire, probeProtocol, probeMessage,
		probeBusTCP, probeTelemetry, probeStore,
	}
	for _, step := range steps {
		if err := step(in, p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// probeReact times Agent.React on each round's announced table, over fresh
// agents for the sample's customers fed the rounds in order — the decider's
// stores accumulate across rounds, exactly as in a session.
func probeReact(in probeInput, p *probeResult) error {
	envs := make([][]message.Envelope, len(in.sample.Customers))
	for i, spec := range in.sample.Customers {
		for _, t := range in.tables {
			env, err := message.NewEnvelope("ua", spec.Name, in.sample.SessionID, t)
			if err != nil {
				return err
			}
			envs[i] = append(envs[i], env)
		}
	}
	var calls int
	var firstErr error
	allocs := mallocs(func() {
		for rep := 0; rep < in.reps; rep++ {
			for i, spec := range in.sample.Customers {
				ca, err := customeragent.New(spec.Name, spec.Prefs, spec.Strategy)
				if err != nil {
					firstErr = err
					return
				}
				for _, env := range envs[i] {
					start := time.Now()
					_, _, err := ca.React(env)
					p.reactUs = append(p.reactUs, micros(time.Since(start)))
					calls++
					if err != nil {
						firstErr = err
						return
					}
				}
			}
		}
	})
	if firstErr != nil {
		return fmt.Errorf("react probe: %w", firstErr)
	}
	// The count includes constructing the agents, which a session pays too,
	// once per customer.
	p.allocsPerReact = allocs / float64(calls)
	return nil
}

// Predicates of the Customer Agent's decision ontology, rebuilt here from the
// kb package's public constructors.
const (
	predRequired   = "required_reward"
	predAnnounced  = "announced_reward"
	predAcceptable = "acceptable_cutdown"
)

func decisionOntology() (*kb.Ontology, *kb.Base, error) {
	ont := kb.NewOntology()
	for _, err := range []error{
		ont.DeclarePred(predRequired, kb.SortNumber, kb.SortNumber),
		ont.DeclarePred(predAnnounced, kb.SortNumber, kb.SortNumber),
		ont.DeclarePred(predAcceptable, kb.SortNumber),
	} {
		if err != nil {
			return nil, nil, err
		}
	}
	base, err := kb.NewBase("acceptability", kb.Rule{
		Name: "acceptable_if_offer_clears_requirement",
		If: []kb.Literal{
			kb.Pos(kb.A(predRequired, kb.V("Cut"), kb.V("Req"))),
			kb.Pos(kb.A(predAnnounced, kb.V("Cut"), kb.V("Off"))),
		},
		Guards: []kb.Guard{{Op: kb.OpGeq, Left: kb.V("Off"), Right: kb.V("Req")}},
		Then:   []kb.Atom{kb.A(predAcceptable, kb.V("Cut"))},
	})
	return ont, base, err
}

// requiredFacts are the first sample customer's finite requirements: L facts,
// L = 5 for the paper's customer and 10 for the elastic fleet's.
func requiredFacts(prefs customeragent.Preferences) []kb.Atom {
	var out []kb.Atom
	for _, l := range prefs.Levels {
		if r := prefs.RequiredFor(l); !math.IsInf(r, 1) {
			out = append(out, kb.A(predRequired, kb.N(l), kb.N(r)))
		}
	}
	return out
}

func announcedFacts(t message.RewardTable) []kb.Atom {
	out := make([]kb.Atom, 0, len(t.Entries))
	for _, e := range t.Entries {
		out = append(out, kb.A(predAnnounced, kb.N(e.CutDown), kb.N(e.Reward)))
	}
	return out
}

// probeKB times Engine.Infer, Store.Match, Store.Facts and Store.Assert on
// stores with the decision ontology's shape: L required_reward facts plus
// the announced_reward facts of rounds 1..r, for every round r the sample's
// session had.
func probeKB(in probeInput, p *probeResult) error {
	ont, base, err := decisionOntology()
	if err != nil {
		return err
	}
	engine := kb.NewEngine(base)
	required := requiredFacts(in.sample.Customers[0].Prefs)
	var stores []*kb.Store
	s := kb.NewStore(ont)
	for _, a := range required {
		if err := s.AssertTrue(a); err != nil {
			return err
		}
	}
	for _, t := range in.tables {
		for _, a := range announcedFacts(t) {
			if err := s.AssertTrue(a); err != nil {
				return err
			}
		}
		stores = append(stores, s.Clone())
	}
	pattern := kb.A(predRequired, kb.V("Cut"), kb.V("Req"))
	samples := 16 * in.reps
	var infers int
	var firstErr error
	for i := 0; i < samples; i++ {
		for _, st := range stores {
			work := st.Clone()
			start := time.Now()
			_, err := engine.Infer(work)
			p.inferUs = append(p.inferUs, micros(time.Since(start)))
			if err != nil && firstErr == nil {
				firstErr = err
			}
			start = time.Now()
			work.Match(pattern, nil)
			p.matchUs = append(p.matchUs, micros(time.Since(start)))
			start = time.Now()
			work.Facts()
			p.factsUs = append(p.factsUs, micros(time.Since(start)))
		}
	}
	if firstErr != nil {
		return fmt.Errorf("kb probe: %w", firstErr)
	}
	last := stores[len(stores)-1]
	allocs := mallocs(func() {
		for i := 0; i < samples; i++ {
			work := last.Clone()
			_, _ = engine.Infer(work) // the same inference succeeded on the timed pass above
			infers++
		}
	})
	clones := mallocs(func() {
		for i := 0; i < samples; i++ {
			last.Clone()
		}
	})
	p.allocsPerInfer = (allocs - clones) / float64(infers)

	// Assert: re-assert the last table's facts into a store that holds them
	// (an overwrite, the steady state of a customer's later rounds).
	facts := announcedFacts(in.tables[len(in.tables)-1])
	work := last.Clone()
	p.assertNs = timeBatches(16*in.reps, 64, func() {
		for _, a := range facts {
			_ = work.Assert(a, kb.True) // the same atoms were asserted without error above
		}
	})
	for i := range p.assertNs {
		p.assertNs[i] /= float64(len(facts))
	}
	return nil
}

// probeDesire times Composed.Activate on the composition the Customer Agent
// uses — one Reasoning child, an in link, an out link and the three-step
// task control — built from the desire package's public constructors and fed
// the rounds in order.
func probeDesire(in probeInput, p *probeResult) error {
	required := requiredFacts(in.sample.Customers[0].Prefs)
	build := func() (*desire.Composed, error) {
		ont, base, err := decisionOntology()
		if err != nil {
			return nil, err
		}
		comp := desire.NewComposed("determine_bid", ont, 0)
		if err := comp.AddChild(desire.NewReasoning("determine_acceptability", ont, base, predAcceptable)); err != nil {
			return nil, err
		}
		for _, l := range []desire.Link{
			{Name: "announcement_in", From: desire.Endpoint{Port: desire.In}, To: desire.Endpoint{Component: "determine_acceptability", Port: desire.In}},
			{Name: "acceptability_out", From: desire.Endpoint{Component: "determine_acceptability", Port: desire.Out}, To: desire.Endpoint{Port: desire.Out}},
		} {
			if err := comp.AddLink(l); err != nil {
				return nil, err
			}
		}
		if err := comp.SetControl([]desire.Step{{Transfer: "announcement_in"}, {Activate: "determine_acceptability"}, {Transfer: "acceptability_out"}}); err != nil {
			return nil, err
		}
		for _, a := range required {
			if err := comp.Input().AssertTrue(a); err != nil {
				return nil, err
			}
		}
		return comp, nil
	}
	for i := 0; i < 16*in.reps; i++ {
		comp, err := build()
		if err != nil {
			return fmt.Errorf("desire probe: %w", err)
		}
		for _, t := range in.tables {
			for _, a := range announcedFacts(t) {
				if err := comp.Input().AssertTrue(a); err != nil {
					return err
				}
			}
			start := time.Now()
			_, err := comp.Activate()
			p.activateUs = append(p.activateUs, micros(time.Since(start)))
			if err != nil {
				return fmt.Errorf("desire probe: %w", err)
			}
		}
	}
	return nil
}

// syntheticLoads models n customers of 13.5 kWh, the fleet both scenario
// generators produce.
func syntheticLoads(n int) map[string]protocol.CustomerLoad {
	loads := make(map[string]protocol.CustomerLoad, n)
	for i := 0; i < n; i++ {
		loads[fmt.Sprintf("c%06d", i)] = protocol.CustomerLoad{Predicted: 13.5, Allowed: 13.5}
	}
	return loads
}

// closeRoundSizes and overuseSizes are the fan-ins the protocol probes run
// at: a flat 1k root and a 16-concentrator root; a 1k and a 10k balance.
var (
	closeRoundSizes = []int{1000, 16}
	overuseSizes    = []int{1000, 10000}
)

// probeProtocol times one Utility Agent round — RecordBid for every customer,
// then CloseRound — and PredictedOveruse, at the fan-ins above.
func probeProtocol(in probeInput, p *probeResult) error {
	s := in.sample
	initial, err := protocol.StandardTable(s.InitialSlope)
	if err != nil {
		return err
	}
	for _, n := range closeRoundSizes {
		loads := syntheticLoads(n)
		normal := units.Energy(13.5 * float64(n) / 1.35)
		params := s.Params
		if n == 16 {
			params = cluster.RootParams(params)
		}
		names := make([]string, 0, n)
		for name := range loads {
			names = append(names, name)
		}
		for i := 0; i < 8*in.reps; i++ {
			sess, err := protocol.NewRTSession("probe", s.Window, params, initial, loads, normal)
			if err != nil {
				return fmt.Errorf("protocol probe: %w", err)
			}
			if _, err := sess.Announce(); err != nil {
				return err
			}
			bid := message.CutDownBid{Round: 1, CutDown: 0.2}
			start := time.Now()
			for _, name := range names {
				if err := sess.RecordBid(name, bid); err != nil {
					return fmt.Errorf("protocol probe: %w", err)
				}
			}
			if _, err := sess.CloseRound(); err != nil {
				return fmt.Errorf("protocol probe: %w", err)
			}
			p.closeRoundUs[n] = append(p.closeRoundUs[n], micros(time.Since(start)))
		}
	}
	for _, n := range overuseSizes {
		loads := syntheticLoads(n)
		normal := units.Energy(13.5 * float64(n) / 1.35)
		for i := 0; i < 8*in.reps; i++ {
			start := time.Now()
			protocol.PredictedOveruse(loads, normal)
			p.predictedOverUs[n] = append(p.predictedOverUs[n], micros(time.Since(start)))
		}
	}
	for i := 0; i < 4*in.reps; i++ {
		loads := syntheticLoads(in.n)
		start := time.Now()
		if _, err := cluster.NewTopology(loads, in.shards); err != nil {
			return err
		}
		p.topologyBuildMs = append(p.topologyBuildMs, millis(time.Since(start)))
	}
	return nil
}

// probeMessage times the binary codec round trip, the JSON payload decode
// every React and every collector ingest performs, and NewEnvelope, on a bid
// and on the sample's last announced table.
func probeMessage(in probeInput, p *probeResult) error {
	table := in.tables[len(in.tables)-1]
	bid := message.CutDownBid{Round: table.Round, CutDown: 0.2}
	bidEnv, err := message.NewEnvelope("c000000", "ua", in.sample.SessionID, bid)
	if err != nil {
		return err
	}
	tableEnv, err := message.NewEnvelope("ua", "", in.sample.SessionID, table)
	if err != nil {
		return err
	}
	roundtrip := func(env message.Envelope) func() {
		var buf []byte
		return func() {
			buf = env.AppendBinary(buf[:0])
			_, _ = message.UnmarshalBinary(buf) // a round trip of an envelope NewEnvelope validated
		}
	}
	batches := 16 * in.reps
	p.bidRoundtripNs = timeBatches(batches, 128, roundtrip(bidEnv))
	p.tableRoundtripNs = timeBatches(batches, 128, roundtrip(tableEnv))
	const allocRuns = 128
	bidRT, tableRT := roundtrip(bidEnv), roundtrip(tableEnv)
	bidRT()
	tableRT()
	p.bidAllocs = mallocs(func() {
		for i := 0; i < allocRuns; i++ {
			bidRT()
		}
	}) / allocRuns
	p.tableAllocs = mallocs(func() {
		for i := 0; i < allocRuns; i++ {
			tableRT()
		}
	}) / allocRuns
	// Both envelopes were built and validated by NewEnvelope above, so the
	// decode and re-wrap errors below cannot occur.
	p.decodeTableNs = timeBatches(batches, 64, func() { _, _ = tableEnv.Decode() })
	p.decodeBidNs = timeBatches(batches, 64, func() { _, _ = bidEnv.Decode() })
	p.newEnvelopeNs = timeBatches(batches, 64, func() {
		_, _ = message.NewEnvelope("c000000", "ua", in.sample.SessionID, bid)
	})
	return nil
}

// probeBusTCP times the transport alone: a bid ping-ponged between two
// clients dialled into one server, and the dial + hello handshake.
func probeBusTCP(in probeInput, p *probeResult) error {
	inner, err := bus.NewInProc(bus.Config{})
	if err != nil {
		return err
	}
	defer inner.Close()
	srv, err := bus.ListenAndServe("127.0.0.1:0", inner)
	if err != nil {
		return err
	}
	defer srv.Close()
	a, err := bus.Dial(srv.Addr(), "probe-a")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := bus.Dial(srv.Addr(), "probe-b")
	if err != nil {
		return err
	}
	defer b.Close()
	bid := message.CutDownBid{Round: 1, CutDown: 0.2}
	ping, err := message.NewEnvelope("probe-a", "probe-b", "probe", bid)
	if err != nil {
		return err
	}
	pong, err := message.NewEnvelope("probe-b", "probe-a", "probe", bid)
	if err != nil {
		return err
	}
	recv := func(c *bus.Client) error {
		select {
		case _, ok := <-c.Inbox():
			if !ok {
				return fmt.Errorf("tcp probe: connection closed")
			}
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("tcp probe: no reply within 5s")
		}
	}
	for i := 0; i < 128*in.reps; i++ {
		start := time.Now()
		if err := a.Send(ping); err != nil {
			return err
		}
		if err := recv(b); err != nil {
			return err
		}
		if err := b.Send(pong); err != nil {
			return err
		}
		if err := recv(a); err != nil {
			return err
		}
		p.tcpRoundtripUs = append(p.tcpRoundtripUs, micros(time.Since(start)))
	}
	for i := 0; i < 8*in.reps; i++ {
		start := time.Now()
		c, err := bus.Dial(srv.Addr(), fmt.Sprintf("probe-dial-%d", i))
		if err != nil {
			return err
		}
		p.dialUs = append(p.dialUs, micros(time.Since(start)))
		c.Close()
	}
	return nil
}

// probeTelemetry times one metering tick outside the live engine — publish,
// wait for the collector, close — at the workload's fleet size and shard
// count, and the deviation detector's per-shard observation.
func probeTelemetry(in probeInput, p *probeResult) error {
	meters := make([]*telemetry.Meter, 0, in.liveN)
	shardOf := make(map[string]int, in.liveN)
	for i := 0; i < in.liveN; i++ {
		name := fmt.Sprintf("c%06d", i)
		m, err := telemetry.NewMeter(telemetry.MeterConfig{Customer: name, BaseKWh: 13.5 / 8, Jitter: 0.01, Seed: int64(i) + 1})
		if err != nil {
			return err
		}
		meters = append(meters, m)
		shardOf[name] = i * in.liveShards / in.liveN
	}
	fleet, err := telemetry.NewFleet(meters, 0)
	if err != nil {
		return err
	}
	col, err := telemetry.NewCollector(telemetry.CollectorConfig{ShardOf: shardOf, Shards: in.liveShards})
	if err != nil {
		return err
	}
	ib, err := bus.NewInProc(bus.Config{})
	if err != nil {
		return err
	}
	defer ib.Close()
	rt, err := agent.Start("collector", ib, col.Handler(), max(64, in.liveN/16))
	if err != nil {
		return err
	}
	defer rt.Stop()
	for tick := 0; tick < 16*in.reps; tick++ {
		start := time.Now()
		n, err := fleet.PublishTick(ib, "metering", "collector", "probe", tick)
		if err != nil {
			return err
		}
		if err := col.WaitTick(tick, n, 10*time.Second); err != nil {
			return err
		}
		col.CloseTick(tick)
		p.publishCollectUs = append(p.publishCollectUs, micros(time.Since(start)))
	}

	det, err := telemetry.NewDeviationDetector(in.liveShards, telemetry.DeviationConfig{AbsKWh: 0.5, Rel: 0.25})
	if err != nil {
		return err
	}
	tick := 0
	p.detectNs = timeBatches(16*in.reps, 256, func() {
		for s := 0; s < in.liveShards; s++ {
			measured := 10.0
			if s == tick%in.liveShards && tick%3 != 0 {
				measured = 25
			}
			det.Observe(s, measured, 10)
		}
		tick++
	})
	for i := range p.detectNs {
		p.detectNs[i] /= float64(in.liveShards)
	}
	return nil
}

// journalInput is what the store probes take from the live rig.
type journalInput struct {
	snapshot   []byte // the rig's newest snapshot blob: the size Snapshot is timed at
	crashedDir string // the rig's unsealed data dir: what Open replays
}

// probeStore times the journal's write path with the live loop's checkpoint
// shape. The read path (open + replay of a crashed dir) is probed by
// probeJournalRead once a live rig has produced one.
func probeStore(in probeInput, p *probeResult) error {
	dir := filepath.Join(in.root, "probe-store")
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer st.Close()
	cp := store.TickCheckpoint{Readings: int64(in.liveN), Batches: int64((in.liveN + 127) / 128), Shard: make([]float64, in.liveShards)}
	for i := range cp.Shard {
		cp.Shard[i] = 10 + float64(i)/16
	}
	var appendErr error
	p.appendTickNs = timeBatches(16*in.reps, 256, func() {
		cp.Tick++
		if err := st.AppendTick(cp); err != nil {
			appendErr = err
		}
	})
	if appendErr != nil {
		return appendErr
	}
	for i := 0; i < 64*in.reps; i++ {
		cp.Tick++
		if err := st.AppendTick(cp); err != nil {
			return err
		}
		start := time.Now()
		if err := st.Commit(); err != nil {
			return err
		}
		p.commitUs = append(p.commitUs, micros(time.Since(start)))
	}
	for i := 0; i < 8*in.reps; i++ {
		cp.Tick++
		if err := st.AppendTick(cp); err != nil {
			return err
		}
		start := time.Now()
		if err := st.Sync(); err != nil {
			return err
		}
		p.syncUs = append(p.syncUs, micros(time.Since(start)))
	}
	return nil
}

// probeJournalRead times Snapshot at the rig's snapshot size and store.Open
// on copies of the rig's crashed data dir.
func probeJournalRead(in probeInput, j journalInput, p *probeResult) error {
	dir := filepath.Join(in.root, "probe-snapshot")
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cp := store.TickCheckpoint{Readings: int64(in.liveN), Shard: make([]float64, in.liveShards)}
	for i := 0; i < 4*in.reps; i++ {
		cp.Tick++
		if err := st.AppendTick(cp); err != nil {
			st.Close()
			return err
		}
		start := time.Now()
		if err := st.Snapshot(j.snapshot); err != nil {
			st.Close()
			return err
		}
		p.snapshotMs = append(p.snapshotMs, millis(time.Since(start)))
	}
	if err := st.Close(); err != nil {
		return err
	}
	for i := 0; i < 4*in.reps; i++ {
		copyTo := filepath.Join(in.root, fmt.Sprintf("probe-open-%d", i))
		if err := copyDir(j.crashedDir, copyTo); err != nil {
			return err
		}
		start := time.Now()
		opened, _, err := store.Open(copyTo, store.Options{})
		if err != nil {
			return err
		}
		p.openReplayMs = append(p.openReplayMs, millis(time.Since(start)))
		opened.Close()
		os.RemoveAll(copyTo)
	}
	return nil
}

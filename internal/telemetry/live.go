package telemetry

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"loadbalance/internal/cluster"
	"loadbalance/internal/core"
	"loadbalance/internal/customeragent"
	"loadbalance/internal/health"
	"loadbalance/internal/message"
	"loadbalance/internal/prediction"
	"loadbalance/internal/protocol"
	"loadbalance/internal/store"
	"loadbalance/internal/trace"
	"loadbalance/internal/units"
	"loadbalance/internal/utilityagent"
)

// Live-loop latency histograms, rendered on gridd's /metrics.
var (
	tickHist    = trace.GetHistogram("grid_tick_seconds")
	renegHist   = trace.GetHistogram("grid_renegotiation_seconds")
	journalHist = trace.GetHistogram("grid_tick_journal_seconds")
)

// LiveConfig parameterises a live grid.
type LiveConfig struct {
	// Scenario is the fleet to operate: it is negotiated once at start and
	// re-negotiated incrementally when shards drift. Reward-table method
	// only (the cluster tier's requirement).
	Scenario core.Scenario
	// Shards is the concentrator count fronting the fleet (default 4).
	Shards int
	// TicksPerWindow divides the scenario window into live ticks; a meter's
	// per-tick baseline is its predicted window use over this count
	// (default 16).
	TicksPerWindow int
	// Jitter is the meters' stochastic measurement noise amplitude.
	Jitter float64
	// Seed keys all randomness: meter i's jitter draws are a function of
	// Seed+i+1 and the tick.
	Seed int64
	// ShardEvents injects demand disturbances into every meter of a shard.
	ShardEvents map[int][]Event
}

// Award is a customer's current standing agreement in the live grid.
type Award struct {
	CutDown float64 `json:"cutDown"`
	Reward  float64 `json:"reward"`
}

// RenegotiateEvent records one incremental re-negotiation.
type RenegotiateEvent struct {
	// Tick is the live tick the breach fired on.
	Tick int
	// Shards lists the breaching shard indices, ascending.
	Shards []int
	// SessionID is the partial session's id.
	SessionID string
	// Members is the re-bidding customer count.
	Members int
	// Outcome is the partial negotiation's terminal outcome.
	Outcome string
	// Factors holds the demand factor estimated per breaching shard.
	Factors map[int]float64
}

// TickReport is one live tick's outcome.
type TickReport struct {
	Tick          int
	ShardMeasured []float64 // measured kWh per shard this tick
	ShardExpected []float64 // negotiated expectation per shard this tick
	FleetKWh      float64   // Σ measured
	TargetKWh     float64   // (1+allowed_overuse)·normal_use per tick
	Breached      []int     // shards whose breach fired this tick
	Renegotiated  *RenegotiateEvent
}

// Snapshot is the engine's observable state for health/metrics endpoints.
type Snapshot struct {
	Tick                int
	FleetKWh            float64
	TargetKWh           float64
	ShardMeasured       []float64
	ShardExpected       []float64
	ShardBreached       []bool
	ShardRenegotiations []int
	Renegotiations      int
	Readings            int64
	Batches             int64
}

// LiveEngine runs a grid continuously: negotiate once, then meter every
// tick, detect sustained deviation per shard, and re-negotiate only the
// breaching shards — unaffected shards keep their awards untouched.
type LiveEngine struct {
	cfg LiveConfig
	// topo's shard rosters carry the scenario's demand model (never
	// rescaled); the live demand estimate is that model × shardFactor.
	topo cluster.Topology

	fleet     *Fleet
	collector *Collector
	det       *DeviationDetector

	// The standing agreement, indexed by the topology's roster: shard i's
	// members are indices off[i] to off[i+1]. negotiated is set once an
	// outcome stands.
	off         []int
	bids        []float64 // committed cut-down per customer
	awards      []Award   // standing award per customer
	negotiated  bool
	shardFactor []float64 // estimated demand factor per shard

	tick        int
	sessionSeq  int
	renegs      int
	shardRenegs []int
	events      []RenegotiateEvent
	started     bool

	normalPerTick float64
	targetPerTick float64

	// Durability (nil st = volatile engine, the pre-journal behaviour).
	st             *store.Store
	snapshotEvery  int
	batchesPerTick int64
}

// NewLiveEngine validates the configuration and builds the grid (meters,
// collector, detector). Start runs the initial negotiation.
func NewLiveEngine(cfg LiveConfig) (*LiveEngine, error) {
	if err := cfg.Scenario.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("%w: shard count %d", ErrBadConfig, cfg.Shards)
	}
	if cfg.TicksPerWindow == 0 {
		cfg.TicksPerWindow = 16
	}
	if cfg.TicksPerWindow < 1 {
		return nil, fmt.Errorf("%w: ticks per window %d", ErrBadConfig, cfg.TicksPerWindow)
	}
	topo, err := cluster.Partition(cfg.Scenario.Roster(), cfg.Shards)
	if err != nil {
		return nil, err
	}

	normalPerTick := cfg.Scenario.NormalUse.KWhs() / float64(cfg.TicksPerWindow)
	// The absolute floor guards against relative triggers on near-zero
	// expectations, so it must be small against a SHARD's load, not the
	// fleet's — at 256 shards a fleet-scaled floor would swallow even a
	// whole-shard outage.
	det, err := NewDeviationDetector(cfg.Shards, DeviationConfig{Rel: 0.25, AbsKWh: 0.05 * normalPerTick / float64(cfg.Shards)})
	if err != nil {
		return nil, err
	}

	shardOf := make(map[string]int, topo.FleetSize())
	off := make([]int, topo.Shards()+1)
	for i := 0; i < topo.Shards(); i++ {
		for _, n := range topo.Members(i) {
			shardOf[n] = i
		}
		off[i+1] = off[i] + len(topo.Members(i))
	}

	meters := make([]*Meter, 0, len(cfg.Scenario.Customers))
	for i, spec := range cfg.Scenario.Customers {
		m, err := NewMeter(MeterConfig{
			Customer: spec.Name,
			BaseKWh:  spec.Predicted.KWhs() / float64(cfg.TicksPerWindow),
			Jitter:   cfg.Jitter,
			Seed:     cfg.Seed + int64(i) + 1,
			Events:   cfg.ShardEvents[shardOf[spec.Name]],
		})
		if err != nil {
			return nil, err
		}
		meters = append(meters, m)
	}
	fleet, err := NewFleet(meters, defaultBatchSize)
	if err != nil {
		return nil, err
	}
	col, err := NewCollector(CollectorConfig{ShardOf: shardOf, Shards: cfg.Shards})
	if err != nil {
		return nil, err
	}

	factors := make([]float64, cfg.Shards)
	for i := range factors {
		factors[i] = 1
	}
	return &LiveEngine{
		cfg:           cfg,
		topo:          topo,
		fleet:         fleet,
		collector:     col,
		det:           det,
		off:           off,
		bids:          make([]float64, topo.FleetSize()),
		awards:        make([]Award, topo.FleetSize()),
		shardFactor:   factors,
		shardRenegs:   make([]int, cfg.Shards),
		normalPerTick: normalPerTick,
		targetPerTick: normalPerTick * (1 + cfg.Scenario.Params.AllowedOveruseRatio),
	}, nil
}

// Start negotiates the whole fleet once through the cluster tier — a durable
// engine's session engine journals the outcome — and opens the telemetry
// stream.
func (e *LiveEngine) Start() error {
	if e.started {
		return fmt.Errorf("%w: engine already started", ErrBadConfig)
	}
	res, err := cluster.Run(cluster.Config{Scenario: e.cfg.Scenario, Shards: e.cfg.Shards, Journal: e.st})
	if err != nil {
		return fmt.Errorf("telemetry: initial negotiation: %w", err)
	}
	e.stand(nil, res.FinalBids, res.AwardTo)
	e.openTelemetry()
	return nil
}

// openTelemetry lets the engine tick — the part of Start shared with
// recovery and promotion, which must not re-negotiate.
func (e *LiveEngine) openTelemetry() {
	e.batchesPerTick = int64((e.fleet.Size() + defaultBatchSize - 1) / defaultBatchSize)
	e.started = true
}

// Stop ends ticking. A durable engine's journal is left exactly as the last
// tick committed it — indistinguishable from a crash, which is what crash
// tests rely on; a clean exit goes through Shutdown.
func (e *LiveEngine) Stop() {
	e.started = false
}

// Shutdown is the graceful exit of a durable engine: a final snapshot, the
// seal record, a sealed journal on disk, then the telemetry teardown. On a
// volatile engine it is just Stop.
func (e *LiveEngine) Shutdown() error {
	var err error
	if e.st != nil {
		if serr := e.st.Snapshot(e.snapshotBlob()); serr != nil {
			err = serr
		}
		if serr := e.st.Seal(); serr != nil && err == nil {
			err = serr
		}
		if serr := e.st.Close(); serr != nil && err == nil {
			err = serr
		}
		e.st = nil
	}
	e.Stop()
	return err
}

// stand makes an outcome the standing agreement of the members of shards,
// every shard when nil — the one place that happens, whether the outcome is
// fresh, replayed from the journal or replicated to a standby: each member
// stands at its last bid and the award delivered to it, {0, 0} when none
// reached it (a member that never answered, every member of a session with
// no peak). The meters read the standing bids at every tick, so this is also
// the one place that moves what a meter honours.
func (e *LiveEngine) stand(shards []int, bids map[string]float64, award func(string) (message.Award, bool)) {
	one := func(i int) {
		for j, n := range e.topo.Members(i) {
			a, _ := award(n)
			e.bids[e.off[i]+j], e.awards[e.off[i]+j] = bids[n], Award{CutDown: a.CutDown, Reward: a.Reward}
		}
	}
	if shards == nil {
		for i := 0; i < e.topo.Shards(); i++ {
			one(i)
		}
	}
	for _, i := range shards {
		one(i)
	}
	e.negotiated = true
}

// shardUse adds shard i's use — its members' predicted use scaled by factor,
// under their committed cut-downs — to sum, in roster order.
func (e *LiveEngine) shardUse(sum units.Energy, i int, factor float64) units.Energy {
	shard := e.topo.Shard(i)
	for j := 0; j < shard.Len(); j++ {
		l := shard.Load(j)
		l.Predicted = l.Predicted.Scale(factor)
		l.Allowed = l.Allowed.Scale(factor)
		l.CutDown = e.bids[e.off[i]+j]
		sum = sum.Add(protocol.UseWithCutDown(l))
	}
	return sum
}

// expectedTick returns shard i's negotiated per-tick expectation: the
// members' predicted-use-with-cutdown under the current demand factor,
// spread over the window's ticks.
func (e *LiveEngine) expectedTick(i int) float64 {
	return e.shardUse(0, i, e.shardFactor[i]).KWhs() / float64(e.cfg.TicksPerWindow)
}

// Tick runs one live iteration: the meters are read straight into the
// collector, which closes the tick, deviations are screened, and any fired
// shards re-negotiate.
func (e *LiveEngine) Tick() (TickReport, error) {
	if !e.started {
		return TickReport{}, fmt.Errorf("%w: engine not started", ErrBadConfig)
	}
	t := e.tick
	e.tick++

	tickStart := time.Now()
	tickSpan := trace.Root("tick")
	tickSpan.SetSession(e.cfg.Scenario.SessionID)
	defer func() {
		tickSpan.End()
		tickHist.Observe(time.Since(tickStart))
	}()

	collectSpan := trace.Child(tickSpan.Context(), "tick.collect")
	collectSpan.SetSession(e.cfg.Scenario.SessionID)
	n := 0
	for _, batch := range e.fleet.SampleTick(t, e.bids) {
		if err := e.collector.Ingest(batch); err != nil {
			collectSpan.End()
			return TickReport{}, err
		}
		n += len(batch.Readings)
	}
	measured := e.collector.CloseTick(t)
	collectSpan.End()

	rep := TickReport{
		Tick:          t,
		ShardMeasured: measured,
		ShardExpected: make([]float64, e.topo.Shards()),
		TargetKWh:     e.targetPerTick,
	}
	var fired []int
	for i := 0; i < e.topo.Shards(); i++ {
		rep.ShardExpected[i] = e.expectedTick(i)
		rep.FleetKWh += measured[i]
		if e.det.Observe(i, measured[i], rep.ShardExpected[i]) {
			fired = append(fired, i)
		}
	}
	if len(fired) > 0 {
		rep.Breached = fired
		if health.Enabled(health.Warn) {
			fields := []health.Field{health.Int("tick", int64(t))}
			for _, i := range fired {
				fields = append(fields, health.Int("shard", int64(i)))
			}
			health.Log(health.Warn, "telemetry", "shard demand breached detector, re-negotiating", fields...)
		}
		ev, err := e.renegotiate(tickSpan.Context(), t, fired)
		if err != nil {
			return rep, err
		}
		rep.Renegotiated = ev
	}
	if e.st != nil {
		jStart := time.Now()
		jSpan := trace.Child(tickSpan.Context(), "tick.journal")
		jSpan.SetSession(e.cfg.Scenario.SessionID)
		err := e.journalTick(t, measured, int64(n), rep.Renegotiated)
		jSpan.End()
		journalHist.Observe(time.Since(jStart))
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// Run executes ticks iterations and returns their reports.
func (e *LiveEngine) Run(ticks int) ([]TickReport, error) {
	out := make([]TickReport, 0, ticks)
	for i := 0; i < ticks; i++ {
		rep, err := e.Tick()
		if err != nil {
			return out, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// renegotiate runs the incremental partial negotiation for the fired
// shards: their demand factors are re-estimated from the measured series,
// a sub-scenario over only their members is negotiated through the cluster
// tier against the fleet's residual capacity, and the resulting awards
// replace theirs — every other shard's award is untouched.
func (e *LiveEngine) renegotiate(parent trace.Context, tick int, shards []int) (*RenegotiateEvent, error) {
	sort.Ints(shards)

	// Estimate each breaching shard's demand factor: forecast of the
	// measured series over the shard's baseline intent (original demand
	// under current cut-downs). The meter model makes this the event factor.
	factors := make(map[int]float64, len(shards))
	var members []string
	scale := make(map[string]float64)
	for _, i := range shards {
		shard := e.topo.Shard(i)
		ms := shard.Names()
		if len(ms) == 0 {
			continue // an empty shard has nobody to re-bid
		}
		// A moving average over the breach window sees only post-change
		// samples.
		forecast, err := e.collector.ForecastShard(i, prediction.MovingAverage{Window: e.det.cfg.BreachTicks})
		if err != nil {
			return nil, err
		}
		baseTick := e.shardUse(0, i, 1).KWhs() / float64(e.cfg.TicksPerWindow)
		f := 0.0
		if baseTick > 0 {
			f = forecast / baseTick
		}
		if f < 0 {
			f = 0
		}
		factors[i] = f
		for _, n := range ms {
			scale[n] = f
		}
		members = append(members, ms...)
	}
	if len(members) == 0 {
		return nil, nil
	}

	// The residual capacity holds every customer outside the partial fleet
	// at its current expected use.
	var complement units.Energy
	for i := 0; i < e.topo.Shards(); i++ {
		if !slices.Contains(shards, i) {
			complement = e.shardUse(complement, i, e.shardFactor[i])
		}
	}
	residual := protocol.ResidualNormalUse(e.cfg.Scenario.NormalUse, complement)

	e.sessionSeq++
	sessionID := fmt.Sprintf("%s-renego-%d", e.cfg.Scenario.SessionID, e.sessionSeq)
	sub, err := cluster.SubScenario(e.cfg.Scenario, members, scale, residual, sessionID)
	if err != nil {
		return nil, err
	}
	// The reneg decision span parents the partial session's whole span
	// tree, so a /trace query for the tick shows why — and how long — the
	// shards re-negotiated.
	renegStart := time.Now()
	renegSpan := trace.Child(parent, "tick.renegotiate")
	renegSpan.SetSession(sessionID)
	res, err := cluster.Run(cluster.Config{
		Scenario:    sub,
		Shards:      len(shards),
		TraceParent: renegSpan.Context(),
	})
	renegSpan.End()
	renegHist.Observe(time.Since(renegStart))
	if err != nil {
		return nil, fmt.Errorf("telemetry: renegotiate %s: %w", sessionID, err)
	}

	e.stand(shards, res.FinalBids, res.AwardTo)
	for i, f := range factors {
		e.shardFactor[i] = f
		e.det.Reset(i)
		e.shardRenegs[i]++
	}
	e.renegs++
	ev := RenegotiateEvent{
		Tick:      tick,
		Shards:    shards,
		SessionID: sessionID,
		Members:   len(members),
		Outcome:   res.Outcome,
		Factors:   factors,
	}
	e.events = append(e.events, ev)
	health.Log(health.Info, "telemetry", "partial re-negotiation complete",
		health.Str("session", sessionID),
		health.Str("outcome", res.Outcome),
		health.Int("tick", int64(tick)),
		health.Int("members", int64(len(members))))
	return &ev, nil
}

// Events returns the re-negotiation history.
func (e *LiveEngine) Events() []RenegotiateEvent {
	return append([]RenegotiateEvent(nil), e.events...)
}

// Renegotiations returns the number of re-negotiation events so far.
func (e *LiveEngine) Renegotiations() int { return e.renegs }

// ShardAwards returns shard i's standing awards keyed by member name.
func (e *LiveEngine) ShardAwards(i int) map[string]Award {
	out := make(map[string]Award)
	for j, n := range e.topo.Members(i) {
		out[n] = e.awards[e.off[i]+j]
	}
	return out
}

// Topology returns the engine's shard partition.
func (e *LiveEngine) Topology() cluster.Topology { return e.topo }

// Snapshot captures the observable state for health/metrics endpoints.
func (e *LiveEngine) Snapshot() Snapshot {
	s := Snapshot{
		Tick:                e.tick,
		TargetKWh:           e.targetPerTick,
		ShardMeasured:       make([]float64, e.topo.Shards()),
		ShardExpected:       make([]float64, e.topo.Shards()),
		ShardBreached:       make([]bool, e.topo.Shards()),
		ShardRenegotiations: append([]int(nil), e.shardRenegs...),
		Renegotiations:      e.renegs,
	}
	for i := 0; i < e.topo.Shards(); i++ {
		if last, ok := e.collector.ShardLast(i); ok {
			s.ShardMeasured[i] = last
			s.FleetKWh += last
		}
		s.ShardExpected[i] = e.expectedTick(i)
		s.ShardBreached[i] = e.det.Breached(i)
	}
	st := e.collector.Stats()
	s.Readings, s.Batches = st.Readings, st.Batches
	return s
}

// ElasticFleetScenario builds an N-customer live-operation fleet: every
// customer is a seeded variation of a 13.5 kWh customer whose requirement
// table stays finite through cut-down 0.9, so an incremental re-negotiation
// under a demand spike always has concession headroom (the paper's
// calibrated customer tops out at 0.4, which caps how much load a live spike
// can shed). Capacity is set for the paper's 35% initial overuse.
func ElasticFleetScenario(n int, seed int64) (core.Scenario, error) {
	if n <= 0 {
		return core.Scenario{}, fmt.Errorf("%w: fleet size %d", ErrBadConfig, n)
	}
	levels := make([]float64, 0, 10)
	for _, cd := range units.StandardCutDowns() {
		levels = append(levels, cd.Float())
	}
	baseReq := map[float64]float64{
		0: 0, 0.1: 4, 0.2: 9, 0.3: 15, 0.4: 22, 0.5: 30, 0.6: 39, 0.7: 49, 0.8: 60, 0.9: 72,
	}
	window, err := units.NewInterval(
		time.Date(1998, 1, 20, 17, 0, 0, 0, time.UTC),
		time.Date(1998, 1, 20, 19, 0, 0, 0, time.UTC),
	)
	if err != nil {
		return core.Scenario{}, err
	}
	s := core.Scenario{
		SessionID:    fmt.Sprintf("live-%d-%d", n, seed),
		Window:       window,
		Method:       utilityagent.MethodRewardTable,
		Params:       core.PaperParams(),
		InitialSlope: 42.5,
		Customers:    make([]core.CustomerSpec, 0, n),
	}
	rng := rand.New(rand.NewSource(seed))
	var total float64
	for i := 0; i < n; i++ {
		factor := 0.8 + 0.8*rng.Float64()
		req := make(map[float64]float64, len(baseReq))
		for l, r := range baseReq {
			req[l] = r * factor
		}
		prefs, err := customeragent.NewPreferences(levels, req)
		if err != nil {
			return core.Scenario{}, err
		}
		s.Customers = append(s.Customers, core.CustomerSpec{
			Name:      fmt.Sprintf("c%06d", i),
			Predicted: 13.5,
			Allowed:   13.5,
			Prefs:     prefs.WithExpectedUse(13.5),
			Strategy:  customeragent.StrategyGreedy,
		})
		total += 13.5
	}
	s.NormalUse = units.Energy(total / 1.35)
	return s, nil
}

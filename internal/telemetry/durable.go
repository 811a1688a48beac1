package telemetry

// Durability for the live engine: every decision point appends a journal
// record (initial session outcome, per-tick meter-batch checkpoint,
// deviation-triggered re-negotiation), periodic snapshots capture the full
// engine + collector state, and recovery = snapshot + tail-replay. Because
// negotiation is byte-deterministic and a meter's reading is a function of
// its seed, the tick and the standing bid, a recovered engine continues the
// exact run the crashed process was executing: replay rebuilds the standing
// awards, ring series, detector hysteresis and demand factors, and the
// meters need nothing — their next reading is the one an uninterrupted run
// would take.

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"loadbalance/internal/health"
	"loadbalance/internal/message"
	"loadbalance/internal/store"
)

// DurableConfig parameterises the live engine's data directory.
type DurableConfig struct {
	// Dir is the data directory holding the journal and snapshots.
	Dir string
	// SnapshotEvery writes a snapshot every this many ticks (default 32).
	SnapshotEvery int
}

// RecoveryInfo reports what OpenDurable found and restored.
type RecoveryInfo struct {
	// Recovered is true when the data directory held prior state.
	Recovered bool
	// CleanStart is true when that state ended with a seal record (the
	// previous process shut down gracefully).
	CleanStart bool
	// SnapshotSeq is the journal position of the snapshot recovery started
	// from (0 = full tail replay).
	SnapshotSeq uint64
	// Replayed counts the journal records applied on top of the snapshot.
	Replayed int
	// ResumeTick is the tick the engine continues from.
	ResumeTick int
	// Elapsed is the wall time of open + replay — the recovery latency.
	Elapsed time.Duration

	opened time.Time // when the open began; stopClock sets Elapsed from it
}

// liveState is the snapshot blob: the engine's and collector's full mutable
// state at the end of a tick, the standing agreement by roster index, plus
// the scenario fingerprint so a snapshot can never be applied to a
// differently-parameterised grid.
type liveState struct {
	Scenario    store.ScenarioInfo `json:"scenario"`
	Topology    store.TopologyInfo `json:"topology"`
	Tick        int                `json:"tick"`
	Negotiated  bool               `json:"negotiated"`
	SessionSeq  int                `json:"sessionSeq"`
	Renegs      int                `json:"renegs"`
	ShardRenegs []int              `json:"shardRenegs"`
	Bids        []float64          `json:"bids"`
	Awards      []Award            `json:"awards"`
	ShardFactor []float64          `json:"shardFactor"`
	Events      []RenegotiateEvent `json:"events"`
	Detector    DetectorState      `json:"detector"`
	Rings       [][]float64        `json:"rings"`
	Collector   CollectorStats     `json:"collector"`
}

// OpenDurable builds a live engine backed by a data directory: a fresh
// directory registers the scenario and negotiates from scratch; one holding
// a journal recovers the crashed (or sealed) run mid-flight and resumes at
// the next tick. The same configuration must be presented on every open —
// recovery validates it against the journal's scenario registration.
func OpenDurable(cfg LiveConfig, dcfg DurableConfig) (*LiveEngine, *RecoveryInfo, error) {
	e, info, negotiated, err := openReplayed(cfg, dcfg)
	if err != nil {
		return nil, nil, err
	}
	// A fresh directory (or a crash before the initial outcome was durable —
	// negotiation is deterministic, so re-running it lands on the same awards)
	// registers the run, then negotiates; a recovered outcome opens telemetry.
	if negotiated {
		e.openTelemetry()
	} else if err = e.journalRegistration(); err == nil {
		err = e.Start()
	}
	if err != nil {
		e.st.Close()
		return nil, nil, err
	}
	info.ResumeTick = e.tick
	info.stopClock()
	if info.Recovered {
		health.Log(health.Info, "telemetry", "recovered journaled run",
			health.Str("session", cfg.Scenario.SessionID),
			health.Int("resumeTick", int64(info.ResumeTick)),
			health.Int("replayed", int64(info.Replayed)),
			health.Int("snapshotSeq", int64(info.SnapshotSeq)))
	}
	return e, info, nil
}

// openReplayed is OpenDurable's and OpenStandby's one open-and-replay: it
// opens the data directory under a new engine and restores what it holds.
// negotiated reports whether the restored state holds an initial outcome.
// The info's clock runs from the call.
func openReplayed(cfg LiveConfig, dcfg DurableConfig) (e *LiveEngine, info *RecoveryInfo, negotiated bool, err error) {
	opened := time.Now() //gridlint:allow walltime(recovery latency measurement for RecoveryInfo.Elapsed; replayed state comes from the journal)
	if dcfg.SnapshotEvery == 0 {
		dcfg.SnapshotEvery = 32
	}
	if dcfg.SnapshotEvery < 0 {
		return nil, nil, false, fmt.Errorf("%w: snapshot every %d ticks", ErrBadConfig, dcfg.SnapshotEvery)
	}
	st, rec, err := store.Open(dcfg.Dir, store.Options{})
	if err != nil {
		return nil, nil, false, err
	}
	if e, err = NewLiveEngine(cfg); err != nil {
		st.Close()
		return nil, nil, false, err
	}
	e.st = st
	e.snapshotEvery = dcfg.SnapshotEvery
	info = &RecoveryInfo{Recovered: !rec.Empty(), CleanStart: rec.Sealed, SnapshotSeq: rec.SnapshotSeq, Replayed: len(rec.Records), opened: opened}
	if info.Recovered {
		if negotiated, err = e.restore(rec); err != nil {
			st.Close()
			return nil, nil, false, err
		}
	}
	return e, info, negotiated, nil
}

// stopClock sets Elapsed: the wall time since openReplayed began.
func (info *RecoveryInfo) stopClock() {
	info.Elapsed = time.Since(info.opened) //gridlint:allow walltime(recovery latency measurement for RecoveryInfo.Elapsed; replayed state comes from the journal)
}

// Store exposes the engine's backing store (nil on a volatile engine) for
// metrics endpoints.
func (e *LiveEngine) Store() *store.Store { return e.st }

// fingerprint derives the scenario registration from the effective config.
func (e *LiveEngine) fingerprint() store.ScenarioInfo {
	return store.ScenarioInfo{
		SessionID:      e.cfg.Scenario.SessionID,
		Customers:      len(e.cfg.Scenario.Customers),
		Shards:         e.cfg.Shards,
		TicksPerWindow: e.cfg.TicksPerWindow,
		Seed:           e.cfg.Seed,
		Jitter:         e.cfg.Jitter,
	}
}

// topologyInfo derives the membership record from the shard partition.
func (e *LiveEngine) topologyInfo() store.TopologyInfo {
	info := store.TopologyInfo{
		Shards:     e.topo.Shards(),
		Fleet:      e.topo.FleetSize(),
		ShardSizes: make([]int, e.topo.Shards()),
	}
	for i := range info.ShardSizes {
		info.ShardSizes[i] = len(e.topo.Members(i))
	}
	return info
}

// journalRegistration appends the scenario + topology records opening a
// fresh journal.
func (e *LiveEngine) journalRegistration() error {
	scen, err := store.NewScenarioRecord(e.fingerprint())
	if err != nil {
		return err
	}
	topo, err := store.NewTopologyRecord(e.topologyInfo())
	if err != nil {
		return err
	}
	if err := e.st.AppendBatch(scen, topo); err != nil {
		return err
	}
	return e.st.Sync()
}

// journalTick commits one live tick: a checkpoint record, or — when the tick
// re-negotiated — a single reneg record carrying both the checkpoint and the
// decision, so a torn write can never persist one without the other. The
// snapshot cadence rides on the same commit point.
func (e *LiveEngine) journalTick(tick int, measured []float64, readings int64, ev *RenegotiateEvent) error {
	cp := store.TickCheckpoint{Tick: tick, Shard: measured, Readings: readings, Batches: e.batchesPerTick}
	if ev == nil {
		if err := e.st.AppendTick(cp); err != nil {
			return err
		}
		return e.commitTick(tick)
	}
	out := store.RenegOutcome{
		Checkpoint: cp,
		SessionSeq: e.sessionSeq,
		SessionID:  ev.SessionID,
		Shards:     ev.Shards,
		Members:    ev.Members,
		Outcome:    ev.Outcome,
		Factors:    ev.Factors,
		Bids:       make(map[string]float64, ev.Members),
		Awards:     make(map[string]store.AwardEntry, ev.Members),
	}
	for _, i := range ev.Shards {
		for j, n := range e.topo.Members(i) {
			a := e.awards[e.off[i]+j]
			out.Bids[n], out.Awards[n] = e.bids[e.off[i]+j], store.AwardEntry{CutDown: a.CutDown, Reward: a.Reward}
		}
	}
	rec, err := store.NewRenegRecord(out)
	if err != nil {
		return err
	}
	if err := e.st.Append(rec); err != nil {
		return err
	}
	return e.commitTick(tick)
}

// commitTick flushes the tick's records and rides the snapshot cadence on
// the same commit point.
func (e *LiveEngine) commitTick(tick int) error {
	if err := e.st.Commit(); err != nil {
		return err
	}
	if e.snapshotEvery > 0 && (tick+1)%e.snapshotEvery == 0 {
		return e.st.Snapshot(e.snapshotBlob())
	}
	return nil
}

// snapshotBlob captures the full engine + collector state.
func (e *LiveEngine) snapshotBlob() []byte {
	ls := liveState{
		Scenario:    e.fingerprint(),
		Topology:    e.topologyInfo(),
		Tick:        e.tick,
		Negotiated:  e.negotiated,
		SessionSeq:  e.sessionSeq,
		Renegs:      e.renegs,
		ShardRenegs: append([]int(nil), e.shardRenegs...),
		Bids:        e.bids,
		Awards:      e.awards,
		ShardFactor: append([]float64(nil), e.shardFactor...),
		Events:      e.events,
		Detector:    e.det.State(),
		Rings:       make([][]float64, e.topo.Shards()),
		Collector:   e.collector.Stats(),
	}
	for i := range ls.Rings {
		ls.Rings[i] = e.collector.ShardSeries(i)
	}
	blob, err := json.Marshal(ls)
	if err != nil {
		// Every field is a plain value; a marshal failure is a programming
		// error surfaced by tests, not an operational condition.
		panic(fmt.Sprintf("telemetry: snapshot state: %v", err))
	}
	return blob
}

// restore applies recovered state: the snapshot first, then the journal
// tail, record by record, exactly as the live loop produced it. It returns
// whether an initial negotiation outcome is part of the restored state.
func (e *LiveEngine) restore(rec *store.Recovered) (negotiated bool, err error) {
	if len(rec.Snapshot) > 0 {
		negotiated, err = e.applySnapshotState(rec.Snapshot)
		if err != nil {
			return false, err
		}
	}
	for _, r := range rec.Records {
		n, err := e.applyJournalRecord(r)
		if err != nil {
			return false, err
		}
		negotiated = negotiated || n
	}
	return negotiated, nil
}

// applySnapshotState restores the full engine + collector state from a
// snapshot blob, validating it against this engine's configuration. It
// returns whether the snapshot holds a negotiated outcome.
func (e *LiveEngine) applySnapshotState(blob []byte) (negotiated bool, err error) {
	want := e.fingerprint()
	var ls liveState
	if err := json.Unmarshal(blob, &ls); err != nil {
		return false, fmt.Errorf("telemetry: snapshot state: %w", err)
	}
	if ls.Scenario != want {
		return false, fmt.Errorf("%w: journal at %s was written by scenario %+v, not %+v",
			ErrBadConfig, e.st.Dir(), ls.Scenario, want)
	}
	if len(ls.ShardFactor) != e.topo.Shards() || len(ls.ShardRenegs) != e.topo.Shards() {
		return false, fmt.Errorf("%w: snapshot shard vectors do not match the topology", ErrBadConfig)
	}
	if len(ls.Bids) != len(e.bids) || len(ls.Awards) != len(e.awards) {
		return false, fmt.Errorf("%w: snapshot stands %d bids and %d awards, the fleet has %d customers",
			ErrBadConfig, len(ls.Bids), len(ls.Awards), len(e.bids))
	}
	e.tick = ls.Tick
	e.sessionSeq = ls.SessionSeq
	e.renegs = ls.Renegs
	copy(e.shardRenegs, ls.ShardRenegs)
	copy(e.shardFactor, ls.ShardFactor)
	e.events = ls.Events
	copy(e.bids, ls.Bids)
	copy(e.awards, ls.Awards)
	e.negotiated = ls.Negotiated
	if err := e.det.Restore(ls.Detector); err != nil {
		return false, err
	}
	if err := e.collector.RestoreState(ls.Rings, ls.Collector); err != nil {
		return false, err
	}
	return ls.Negotiated, nil
}

// applyJournalRecord replays one journal record into the engine — the unit
// shared by crash recovery (a whole tail at once) and a hot standby (records
// applied as the stream ships them). It reports whether the record commits a
// negotiated outcome.
func (e *LiveEngine) applyJournalRecord(r store.Record) (negotiated bool, err error) {
	want := e.fingerprint()
	switch r.Kind {
	case store.KindScenario:
		got, err := store.DecodeScenario(r)
		if err != nil {
			return false, err
		}
		if got != want {
			return false, fmt.Errorf("%w: journal at %s was written by scenario %+v, not %+v",
				ErrBadConfig, e.st.Dir(), got, want)
		}
	case store.KindTopology:
		got, err := store.DecodeTopology(r)
		if err != nil {
			return false, err
		}
		if got.Shards != e.topo.Shards() || got.Fleet != e.topo.FleetSize() {
			return false, fmt.Errorf("%w: journal topology %d shards over %d customers, engine has %d over %d",
				ErrBadConfig, got.Shards, got.Fleet, e.topo.Shards(), e.topo.FleetSize())
		}
	case store.KindSession:
		out, err := store.DecodeSession(r)
		if err != nil {
			return false, err
		}
		e.stand(nil, out.Bids, delivered(out.Awards))
		return true, nil
	case store.KindTick:
		cp, err := store.DecodeTick(r)
		if err != nil {
			return false, err
		}
		if err := e.replayCheckpoint(cp); err != nil {
			return false, err
		}
	case store.KindReneg:
		out, err := store.DecodeReneg(r)
		if err != nil {
			return false, err
		}
		for _, i := range out.Shards {
			if i < 0 || i >= e.topo.Shards() {
				return false, fmt.Errorf("%w: re-negotiation record names shard %d of %d", ErrBadConfig, i, e.topo.Shards())
			}
		}
		for i := range out.Factors {
			if !slices.Contains(out.Shards, i) {
				return false, fmt.Errorf("%w: re-negotiation record estimates shard %d, which did not breach", ErrBadConfig, i)
			}
		}
		if err := e.replayCheckpoint(out.Checkpoint); err != nil {
			return false, err
		}
		e.stand(out.Shards, out.Bids, delivered(out.Awards))
		ev := RenegotiateEvent{
			Tick:      out.Checkpoint.Tick,
			Shards:    out.Shards,
			SessionID: out.SessionID,
			Members:   out.Members,
			Outcome:   out.Outcome,
			Factors:   out.Factors,
		}
		for i, f := range out.Factors {
			e.shardFactor[i] = f
			e.det.Reset(i)
			e.shardRenegs[i]++
		}
		e.sessionSeq = out.SessionSeq
		e.renegs++
		e.events = append(e.events, ev)
		return true, nil
	case store.KindAborted, store.KindSeal, store.KindPromote:
		// Informational: an aborted session committed nothing, the seal only
		// marks the clean shutdown, and a promote record marks where a
		// standby's replicated prefix ended.
	}
	return false, nil
}

// delivered looks awards up in a journaled outcome, which records one only
// where it was delivered.
func delivered(awards map[string]store.AwardEntry) func(string) (message.Award, bool) {
	return func(n string) (message.Award, bool) {
		a, ok := awards[n]
		return message.Award{CutDown: a.CutDown, Reward: a.Reward}, ok
	}
}

// replayCheckpoint re-applies one closed tick: ring series, detector
// hysteresis (against the expectation the engine held at that tick — the
// standing bids and factors restored so far) and the tick counter.
func (e *LiveEngine) replayCheckpoint(cp store.TickCheckpoint) error {
	if cp.Tick != e.tick {
		return fmt.Errorf("%w: journal checkpoint for tick %d cannot follow tick %d", store.ErrCorrupt, cp.Tick, e.tick)
	}
	if err := e.collector.RestoreTick(cp.Shard, cp.Readings, cp.Batches); err != nil {
		return err
	}
	for i, v := range cp.Shard {
		e.det.Observe(i, v, e.expectedTick(i))
	}
	e.tick = cp.Tick + 1
	return nil
}

// GridProfile is the engine's canonical observable outcome: the standing
// awards plus the per-shard demand state. Its JSON marshalling is
// deterministic (sorted map keys, shortest round-trip floats), which is what
// the byte-identical recovery guarantee is stated over.
type GridProfile struct {
	Tick           int              `json:"tick"`
	Renegotiations int              `json:"renegotiations"`
	Awards         map[string]Award `json:"awards"`
	ShardFactors   []float64        `json:"shardFactors"`
	ShardSeries    [][]float64      `json:"shardSeries"`
}

// Profile captures the canonical outcome. Call it from the tick loop's
// goroutine (it reads engine state).
func (e *LiveEngine) Profile() GridProfile {
	p := GridProfile{
		Tick:           e.tick,
		Renegotiations: e.renegs,
		Awards:         make(map[string]Award, len(e.awards)),
		ShardFactors:   append([]float64(nil), e.shardFactor...),
		ShardSeries:    make([][]float64, e.topo.Shards()),
	}
	for i := range p.ShardSeries {
		p.ShardSeries[i] = e.collector.ShardSeries(i)
		if e.negotiated {
			for j, n := range e.topo.Members(i) {
				p.Awards[n] = e.awards[e.off[i]+j]
			}
		}
	}
	return p
}

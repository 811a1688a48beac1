package main

import (
	"context"
	"os"
	"path/filepath"
	"time"

	"loadbalance/internal/bus"
	"loadbalance/internal/health"
	"loadbalance/internal/store"
	"loadbalance/internal/telemetry"
	"loadbalance/internal/trace"
	"loadbalance/internal/tsdb"
)

// initHealthLogging installs the process-wide structured logger from the
// -log-level/-log-file flags. With a data dir and no explicit -log-file
// the durable sink defaults to <data-dir>/gridd.log.
func initHealthLogging(proc, level, file, dataDir string) (*health.Logger, error) {
	lvl, err := health.ParseLevel(level)
	if err != nil {
		return nil, err
	}
	if file == "" && dataDir != "" {
		file = filepath.Join(dataDir, "gridd.log")
	}
	if file != "" {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			return nil, err
		}
	}
	return health.Init(health.Config{
		Proc:        proc,
		MinLevel:    lvl,
		RingSize:    4096,
		FilePath:    file,
		StderrLevel: health.Warn,
	})
}

// defaultAlertRules is the rule set a live daemon runs when -alerts is not
// given: the overload floor on the composite score, the latency ceiling on
// negotiation sessions, the two staleness signals (standby lag, journal
// append age), and the fleet silence detector. worker_silent references the
// obs hub's fleet_last_batch_age_seconds gauge; on daemons that host no hub
// the gauge is unpublished and the engine treats the rule as non-breaching.
func defaultAlertRules() []health.RuleConfig {
	return []health.RuleConfig{
		{Name: "overload", Metric: "feedback_score", Op: "<", Threshold: 40, For: 2},
		{Name: "slow_sessions", Metric: "negotiation_session_seconds_p99", Op: ">", Threshold: 2, For: 2},
		{Name: "standby_lag", Metric: "replica_lag_records", Op: ">", Threshold: 2048, For: 3},
		{Name: "journal_stall", Metric: "journal_append_age_seconds", Op: ">", Threshold: 30, For: 3},
		{Name: "worker_silent", Metric: "fleet_last_batch_age_seconds", Op: ">", Threshold: 10, For: 2},
	}
}

// resolveAlertRules maps the -alerts flag value to a rule set: empty means
// the defaults, "none" disables alerting, anything else is parsed.
func resolveAlertRules(flagVal string) ([]health.RuleConfig, error) {
	switch flagVal {
	case "":
		return defaultAlertRules(), nil
	case "none":
		return nil, nil
	default:
		return health.ParseRules(flagVal)
	}
}

// liveHealth bundles the live daemon's health layer: the score, the alert
// engine and the optional flight recorder. One instance serves both roles —
// a standby evaluates it from a side ticker, a primary from the tick loop.
type liveHealth struct {
	metrics  *trace.Registry // the role's registry: every reader below gathers it
	scorer   *health.Scorer
	alerts   *health.Engine
	recorder *health.Recorder // nil without a data dir
	history  *tsdb.Store      // nil when -tsdb-interval is 0
	scraper  *tsdb.Scraper    // fills history from the registry
}

// newLiveHealth wires the health layer over the live state holder and is
// where the live role registers what it publishes, in page order: the grid
// snapshot, the journal and replication stream of whichever role the daemon
// currently holds, the gauges the alert rules reference, the score, the
// alerts, the log, the history store and the fleet hub. It arms the flight
// recorder when a data dir exists.
func newLiveHealth(opts options, state *gridState) (*liveHealth, error) {
	reg, logger := opts.registry(), health.Default()
	h := &liveHealth{metrics: reg}

	h.scorer = health.NewScorer(health.Sources{
		Utilization: func() float64 {
			snap := state.view().snapshot()
			if snap.TargetKWh <= 0 {
				return 0
			}
			return snap.FleetKWh / snap.TargetKWh
		},
		ReplicationLag: func() float64 { return worstStandbyLag(state) },
	}, health.DefaultBudgets(), health.DefaultWeights())

	rules, err := resolveAlertRules(opts.alerts)
	if err != nil {
		return nil, err
	}
	h.alerts = health.NewEngine(rules, logger)
	h.alerts.Metrics = reg

	reg.Register(state.samples)
	reg.RegisterGauge("replica_lag_records", func() float64 { return worstStandbyLag(state) })
	reg.RegisterGauge("journal_append_age_seconds", func() float64 { return journalAppendAge(state) })
	reg.Register(h.scorer.Samples)
	reg.Register(h.alerts.Samples)
	reg.Register(logger.Samples)

	// Metrics history: scrape the registry into the embedded store each
	// interval; windowed and burn-rate alert rules evaluate against it, and
	// /query serves it.
	h.history, h.scraper = startHistory(opts.tsdbInterval, reg)
	h.alerts.History = h.history
	if hub := state.obs; hub != nil {
		reg.Register(hub.Samples)
		reg.Register(func(dst []trace.Sample) []trace.Sample {
			return telemetry.WireSamples(dst, map[string]bus.WireStats{"obs": hub.WireStats()})
		})
	}

	if opts.dataDir != "" {
		h.recorder = health.NewRecorder(filepath.Join(opts.dataDir, "flightrec"), health.DefaultKeep, logger, reg)
		h.recorder.Bind(h.scorer, h.alerts)
		// Every bundle of a live grid carries heap.pprof and a 2s cpu.pprof:
		// what an overload alert most often needs explained is where the
		// time and the memory went.
		h.recorder.ProfileDur = 2 * time.Second
		health.SetRecorder(h.recorder)
		h.alerts.OnFire = func(a health.AlertStatus) {
			if _, err := h.recorder.Dump("alert", a.Rule.Name); err != nil {
				logger.Logf(health.Error, "flightrec", "alert dump failed: %v", err)
			}
		}
	}

	return h, nil
}

// evalTick recomputes the score and evaluates the alert rules — once per
// engine tick on a primary, once per ticker interval on a standby.
func (h *liveHealth) evalTick() {
	h.scorer.Compute()
	h.alerts.Eval()
}

// startStandbyEval evaluates the health layer on a side ticker while the
// daemon is a standby (the tick loop isn't running yet). The returned stop
// function halts it — call it before promotion hands evaluation to the
// tick loop.
func (h *liveHealth) startStandbyEval(interval time.Duration) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				h.evalTick()
			}
		}
	}()
	return cancel
}

// close stops the scraper and disarms the flight recorder.
func (h *liveHealth) close() {
	h.scraper.Close()
	if h.recorder != nil {
		health.SetRecorder(nil)
		h.recorder.WaitProfiles()
	}
}

// worstStandbyLag reads the largest standby lag in records: a primary
// reports over its sender's followers, a standby reports its own apply
// lag (unknowable against a dead primary, so it reports 0 and the
// receiver's own staleness signals take over).
func worstStandbyLag(state *gridState) float64 {
	sender := state.view().sender
	if sender == nil {
		return 0
	}
	var worst uint64
	for _, s := range sender.Status().Standbys {
		if s.LagRecords > worst {
			worst = s.LagRecords
		}
	}
	return float64(worst)
}

// journalAppendAge reads seconds since the last journal append (0 when
// the process journals nothing).
func journalAppendAge(state *gridState) float64 {
	var stats store.Stats
	switch v := state.view(); {
	case v.stby != nil:
		stats = v.stby.Eng.StoreStats()
	case v.st != nil:
		stats = v.st.Stats()
	default:
		return 0
	}
	if stats.LastAppend.IsZero() {
		return 0
	}
	return time.Since(stats.LastAppend).Seconds()
}

// samples appends what the live daemon publishes about the grid it runs:
// the snapshot's grid_* series, then the journal and replication stream of
// the role it currently holds — a promotion changes the page, not the
// registration.
func (g *gridState) samples(dst []trace.Sample) []trace.Sample {
	v := g.view()
	dst = gridSamples(dst, v.snapshot())
	if v.stby != nil {
		dst = v.stby.Eng.StoreStats().Samples(dst)
		return v.stby.Receiver().Status().Samples(dst)
	}
	if v.st != nil {
		dst = v.st.Stats().Samples(dst)
	}
	if v.sender != nil {
		dst = v.sender.Status().Samples(dst)
	}
	return dst
}

// logRenegotiation emits the structured event for a tick that re-awarded
// part of the fleet.
func logRenegotiation(rep telemetry.TickReport) {
	if rep.Renegotiated == nil || !health.Enabled(health.Info) {
		return
	}
	fields := []health.Field{
		health.Str("role", "primary"),
		health.Int("tick", int64(rep.Tick)),
		health.Str("session", rep.Renegotiated.SessionID),
		health.Str("outcome", rep.Renegotiated.Outcome),
		health.Int("members", int64(rep.Renegotiated.Members)),
	}
	for _, s := range rep.Renegotiated.Shards {
		fields = append(fields, health.Int("shard", int64(s)))
	}
	health.Log(health.Info, "grid", "shards re-negotiated", fields...)
}

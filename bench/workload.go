package main

import (
	"fmt"
	"time"

	"loadbalance/internal/core"
)

// sizing fixes how much work every workload does. The benchmark runs at
// fullSizing; the package's tests run the same code at toySizing.
type sizing struct {
	FlatN         int
	ShardedN      int
	ShardedShards int
	PrefixN       int // flat ≡ sharded is checked on this prefix of sharded_10k
	TCPN          int
	TCPShards     int

	LiveN          int
	LiveShards     int
	TicksPerWindow int
	SnapshotEvery  int
	EventPeriod    int // ticks between two scheduled shard spike starts/ends
	FirstEvent     int // tick of the first spike start
	CostPeriods    int // event periods live_4k's cost metrics are taken over (even: starts and ends pair up)
	Recoveries     int // cold recoveries in the end-to-end run
	MaxTicks       int // horizon of the spike schedule; a tick phase never runs past it
	MiniLiveN      int // live probe size in the traced run of a session workload
	MiniLiveTicks  int

	SampleN   int // customers the probes and twin sessions run over
	SetupReps int // set-ups per run, at least; setup_s is their median
	// SetupSeconds keeps a cheap set-up repeating (up to maxSetupReps) until
	// this much time has gone into set-ups, so its median is of more than
	// three short, noisy samples.
	SetupSeconds float64
	MinOps       int // a measured phase keeps going until it has this many operations
	MinTicks     int
	MinPairs     int // traced/untraced session pairs in the traced run
	ProbeReps    int // repetitions of each layer probe's sample loop
}

var fullSizing = sizing{
	FlatN: 1000, ShardedN: 10000, ShardedShards: 16, PrefixN: 1000, TCPN: 256, TCPShards: 16,
	LiveN: 4096, LiveShards: 16, TicksPerWindow: 8, SnapshotEvery: 32, EventPeriod: 150, FirstEvent: 40, CostPeriods: 8,
	Recoveries: 20, MaxTicks: 12000, MiniLiveN: 256, MiniLiveTicks: 192,
	SampleN: 256, SetupReps: 3, SetupSeconds: 3, MinOps: 5, MinTicks: 1256, MinPairs: 2, ProbeReps: 4,
}

var toySizing = sizing{
	FlatN: 32, ShardedN: 32, ShardedShards: 4, PrefixN: 16, TCPN: 32, TCPShards: 4,
	LiveN: 32, LiveShards: 4, TicksPerWindow: 8, SnapshotEvery: 8, EventPeriod: 6, FirstEvent: 4, CostPeriods: 2,
	Recoveries: 2, MaxTicks: 60, MiniLiveN: 32, MiniLiveTicks: 20,
	SampleN: 16, SetupReps: 1, MinOps: 2, MinTicks: 20, MinPairs: 1, ProbeReps: 1,
}

// runConfig is one invocation of one workload.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Size     sizing
	OutDir   string // span files and temporary data dirs live here

	// wrapOp lets a test substitute a double around the measured session
	// call (the -check acceptance test corrupts one award through it).
	wrapOp func(sessionOp) sessionOp
}

// runResult is what one invocation measured.
type runResult struct {
	Workload    string            `json:"workload"`
	Traced      bool              `json:"traced"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	Failures    []string          `json:"failures,omitempty"`
	Info        []string          `json:"info,omitempty"`
	Fingerprint fingerprint       `json:"fingerprint"`
}

// maxFailureLines caps the reasons kept per run; the count is never capped.
const maxFailureLines = 20

func (r *runResult) attempt(reason string) {
	r.Attempted++
	if reason != "" {
		r.Failed++
		if len(r.Failures) < maxFailureLines {
			r.Failures = append(r.Failures, reason)
		}
	}
}

func (r *runResult) infof(format string, args ...any) {
	r.Info = append(r.Info, fmt.Sprintf(format, args...))
}

// runWorkload dispatches one invocation.
func runWorkload(cfg runConfig) (*runResult, error) {
	res := &runResult{Workload: cfg.Workload, Traced: cfg.Trace, Fingerprint: machineFingerprint(cfg.Seed)}
	specs := endToEnd
	if cfg.Trace {
		specs = perLayer
	}
	ms := newMetricSet(specs)
	var err error
	switch cfg.Workload {
	case wlFlat, wlSharded, wlTCP:
		err = runSessionWorkload(cfg, res, ms)
	case wlLive:
		err = runLiveWorkload(cfg, res, ms)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err != nil {
		return nil, err
	}
	if missing := ms.missing(); len(missing) > 0 {
		return nil, fmt.Errorf("workload %s did not report %v", cfg.Workload, missing)
	}
	res.Metrics = ms.vals
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// sessionSetup is a prepared session workload: the scenario, the measured
// call, and the reference the correctness gate compares every session to.
type sessionSetup struct {
	n        int // customers settled by one session
	scenario core.Scenario
	op       sessionOp
	digestOf func(*outcome) string
	want     string

	// The traced run rebuilds this shape from public constructors: a flat
	// session when shards is 0, a sharded one otherwise. baseline is the
	// library's own untraced call of the same in-process shape.
	shards   int
	baseline sessionOp
}

func (s *sessionSetup) check(o *outcome) string {
	return checkOutcome(o, s.scenario.Params, s.want, s.digestOf)
}

// prepareSession performs one set-up of a session workload: generate the
// scenario from the seed, compute the reference digest, run the warm-up
// session. Every reason it returns is a failed set-up operation.
func prepareSession(cfg runConfig) (*sessionSetup, []string, error) {
	sz := cfg.Size
	full := func(o *outcome) string { return o.digest() }
	byAwards := func(o *outcome) string { return awardsDigest(o.awards) }
	var reasons []string

	switch cfg.Workload {
	case wlFlat:
		s, err := core.SyntheticScenario(core.SyntheticConfig{N: sz.FlatN, Seed: cfg.Seed})
		if err != nil {
			return nil, nil, err
		}
		st := &sessionSetup{n: sz.FlatN, scenario: s, op: flatOp(s), digestOf: full, baseline: flatOp(s)}
		ref, err := st.op()
		if err != nil {
			return nil, nil, fmt.Errorf("reference session: %w", err)
		}
		st.want = ref.digest()
		if why := st.check(ref); why != "" {
			reasons = append(reasons, "reference session: "+why)
		}
		return st, reasons, nil

	case wlTCP:
		s, err := core.SyntheticScenario(core.SyntheticConfig{N: sz.TCPN, Seed: cfg.Seed})
		if err != nil {
			return nil, nil, err
		}
		st := &sessionSetup{n: sz.TCPN, scenario: s, op: distributedOp(s, sz.TCPShards), digestOf: byAwards,
			shards: sz.TCPShards, baseline: shardedOp(s, sz.TCPShards)}
		// Flat ≡ distributed: the warm-up session is held to a flat run of the
		// same scenario, and every later session to the warm-up's digest.
		flat, err := flatOp(s)()
		if err != nil {
			return nil, nil, fmt.Errorf("flat reference: %w", err)
		}
		warm, err := st.op()
		if err != nil {
			return nil, nil, fmt.Errorf("warm-up session: %w", err)
		}
		st.want = awardsDigest(warm.awards)
		if why := st.check(warm); why != "" {
			reasons = append(reasons, "warm-up session: "+why)
		}
		if why := awardsAgree(flat.awards, warm.awards); why != "" {
			reasons = append(reasons, "distributed vs flat: "+why)
		}
		return st, reasons, nil

	case wlSharded:
		s, err := core.SyntheticScenario(core.SyntheticConfig{N: sz.ShardedN, Seed: cfg.Seed})
		if err != nil {
			return nil, nil, err
		}
		st := &sessionSetup{n: sz.ShardedN, scenario: s, op: shardedOp(s, sz.ShardedShards), digestOf: full,
			shards: sz.ShardedShards, baseline: shardedOp(s, sz.ShardedShards)}
		// A flat reference at full size costs a minute and 12 GB, so the
		// flat ≡ sharded check is made on a prefix; the full-size sessions
		// are then held to the first one.
		prefix := samplePrefix(s, sz.PrefixN, s.SessionID+"-prefix")
		flat, err := flatOp(prefix)()
		if err != nil {
			return nil, nil, fmt.Errorf("prefix flat reference: %w", err)
		}
		tree, err := shardedOp(prefix, sz.ShardedShards)()
		if err != nil {
			return nil, nil, fmt.Errorf("prefix sharded session: %w", err)
		}
		if !sameBids(flat.bids, tree.bids) || flat.rounds != tree.rounds {
			reasons = append(reasons, fmt.Sprintf("flat and sharded disagree on the n=%d prefix (rounds %d vs %d)", sz.PrefixN, flat.rounds, tree.rounds))
		}
		ref, err := st.op()
		if err != nil {
			return nil, nil, fmt.Errorf("reference session: %w", err)
		}
		st.want = ref.digest()
		if why := st.check(ref); why != "" {
			reasons = append(reasons, "reference session: "+why)
		}
		return st, reasons, nil
	}
	return nil, nil, fmt.Errorf("workload %q is not a session workload", cfg.Workload)
}

// setUpSessions repeats the set-up and keeps the last one; setup_s is the
// median repetition. Repetitions must agree on the reference digest.
func setUpSessions(cfg runConfig, res *runResult, reps int) (*sessionSetup, float64, error) {
	var st *sessionSetup
	var times []float64
	for i := 0; moreSetUps(cfg.Size, reps, times); i++ {
		start := time.Now()
		next, reasons, err := prepareSession(cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, seconds(time.Since(start)))
		res.attempt("")
		for _, why := range reasons {
			res.attempt(fmt.Sprintf("set-up %d: %s", i+1, why))
		}
		if st != nil && next.want != st.want {
			res.attempt(fmt.Sprintf("set-up %d: reference digest %s differs from the previous set-up's %s", i+1, short(next.want), short(st.want)))
		}
		st = next
	}
	return st, median(times), nil
}

const maxSetupReps = 12

// moreSetUps reports whether another set-up repetition is due: reps at
// least, then on while the repetitions so far took under SetupSeconds. A
// traced run asks for one repetition and gets one.
func moreSetUps(sz sizing, reps int, times []float64) bool {
	if len(times) < reps {
		return true
	}
	return reps > 1 && len(times) < maxSetupReps && sum(times) < sz.SetupSeconds
}

// opSample is one measured operation.
type opSample struct {
	dur           time.Duration
	allocs, bytes uint64
	done          bool // the call returned an outcome
}

// measureSessions is the closed loop: the next session starts when the
// previous one has returned and been checked. It runs for the given time
// and until minOps sessions have completed, whichever is later.
func measureSessions(res *runResult, label string, op sessionOp, check func(*outcome) string, forSeconds float64, minOps int) []opSample {
	ac := newAllocCounters()
	var samples []opSample
	begin := time.Now()
	for len(samples) < minOps || seconds(time.Since(begin)) < forSeconds {
		a0, b0 := ac.read()
		start := time.Now()
		o, err := op()
		dur := time.Since(start)
		a1, b1 := ac.read()
		if err != nil {
			res.attempt(fmt.Sprintf("%s %d: %v", label, len(samples)+1, err))
			samples = append(samples, opSample{dur: dur})
			continue
		}
		why := check(o)
		if why != "" {
			why = fmt.Sprintf("%s %d: %s", label, len(samples)+1, why)
		}
		res.attempt(why)
		samples = append(samples, opSample{dur: dur, allocs: a1 - a0, bytes: b1 - b0, done: true})
	}
	return samples
}

func durations(samples []opSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = seconds(s.dur)
	}
	return out
}

// runSessionWorkload runs flat_1k, sharded_10k or tcp_256.
func runSessionWorkload(cfg runConfig, res *runResult, ms *metricSet) error {
	if cfg.Trace {
		return runSessionTraced(cfg, res, ms)
	}
	st, setupS, err := setUpSessions(cfg, res, cfg.Size.SetupReps)
	if err != nil {
		return err
	}
	op := st.op
	if cfg.wrapOp != nil {
		op = cfg.wrapOp(op)
	}
	samples := measureSessions(res, "session", op, st.check, cfg.Seconds, cfg.Size.MinOps)

	// Costs are taken over every session that returned an outcome; a session
	// that failed the gate is counted in failed, not dropped from the sample.
	var done int
	var busy float64
	var allocs, bytes uint64
	for _, s := range samples {
		busy += seconds(s.dur)
		if s.done {
			done++
			allocs += s.allocs
			bytes += s.bytes
		}
	}
	if done == 0 {
		return fmt.Errorf("no session returned: %v", res.Failures)
	}
	settled := float64(done * st.n)
	ms.set(mSetup, setupS)
	ms.set(mAllocsPerUnit, float64(allocs)/settled)
	ms.set(mBytesPerUnit, float64(bytes)/settled)
	durs := durations(samples)
	tail, label := tailQuantile(durs)
	res.infof("information only (wall clock, not gated): op_p50_s %.6g s, units_per_s %.6g 1/s, session %s %.4f s, max %.4f s over %d sessions of %d customers in %.2f s",
		median(durs), settled/busy, label, tail, quantile(durs, 1), len(samples), st.n, busy)
	return nil
}

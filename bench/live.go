package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"loadbalance/internal/core"
	"loadbalance/internal/replica"
	"loadbalance/internal/store"
	"loadbalance/internal/telemetry"
)

// liveParams sizes one live rig. The full-size workload and the mini rig the
// session workloads' traced runs use for the telemetry/store/replica metrics
// share every line of code below.
type liveParams struct {
	n, shards, ticksPerWindow, snapshotEvery int
	eventPeriod, firstEvent, maxTicks        int
	periods                                  int // event periods the cost metrics are taken over
	seed                                     int64
	root                                     string // parent of the rig's data dirs
}

func liveParamsOf(cfg runConfig, n, maxTicks int, root string) liveParams {
	sz := cfg.Size
	return liveParams{
		n: n, shards: sz.LiveShards, ticksPerWindow: sz.TicksPerWindow, snapshotEvery: sz.SnapshotEvery,
		eventPeriod: sz.EventPeriod, firstEvent: sz.FirstEvent, maxTicks: maxTicks, periods: sz.CostPeriods, seed: cfg.Seed, root: root,
	}
}

// spikeSchedule plans one demand spike per two event periods, each lasting
// one period on a shard of its own, so a spike start or a spike end — each a
// sustained deviation that re-negotiates exactly one shard — falls every
// eventPeriod ticks up to the horizon.
func spikeSchedule(p liveParams) map[int][]telemetry.Event {
	events := make(map[int][]telemetry.Event)
	for j := 0; ; j++ {
		start := p.firstEvent + 2*j*p.eventPeriod
		if start >= p.maxTicks {
			return events
		}
		shard := (j*5 + int(p.seed%int64(p.shards))) % p.shards
		events[shard] = append(events[shard], telemetry.Event{StartTick: start, EndTick: start + p.eventPeriod - 1, Factor: 1.5})
	}
}

// liveRig is a primary live engine on a data dir with one journal follower
// streaming from it over loopback TCP.
type liveRig struct {
	p        liveParams
	scenario core.Scenario
	cfg      telemetry.LiveConfig
	dcfg     telemetry.DurableConfig
	eng      *telemetry.LiveEngine
	sender   *replica.Sender
	follower *store.Store
	tap      *replica.StoreTap
	rx       *replica.Receiver

	followerDir string
	ticks       int
}

// openLiveRig is one set-up of the live workload: generate the fleet, open a
// fresh data dir (which runs the initial full negotiation), attach the
// follower, run the untimed warm-up tick.
func openLiveRig(p liveParams) (*liveRig, error) {
	s, err := telemetry.ElasticFleetScenario(p.n, p.seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(p.root, "primary-")
	if err != nil {
		return nil, err
	}
	followerDir, err := os.MkdirTemp(p.root, "follower-")
	if err != nil {
		return nil, err
	}
	r := &liveRig{
		p: p, scenario: s, followerDir: followerDir,
		cfg: telemetry.LiveConfig{
			Scenario: s, Shards: p.shards, TicksPerWindow: p.ticksPerWindow,
			Jitter: 0.01, Seed: p.seed, ShardEvents: spikeSchedule(p),
		},
		dcfg: telemetry.DurableConfig{Dir: dir, SnapshotEvery: p.snapshotEvery},
	}
	if r.eng, _, err = telemetry.OpenDurable(r.cfg, r.dcfg); err != nil {
		return nil, fmt.Errorf("open primary: %w", err)
	}
	if r.sender, err = replica.StartSender(replica.SenderConfig{Dir: dir, Addr: "127.0.0.1:0"}); err != nil {
		r.close()
		return nil, fmt.Errorf("start sender: %w", err)
	}
	if r.follower, _, err = store.Open(followerDir, store.Options{}); err != nil {
		r.close()
		return nil, fmt.Errorf("open follower: %w", err)
	}
	r.tap = &replica.StoreTap{St: r.follower}
	r.rx, err = replica.StartReceiver(replica.ReceiverConfig{
		ID: "bench-follower", Addrs: []string{r.sender.Addr()}, FailoverTimeout: time.Minute,
	}, r.tap)
	if err != nil {
		r.close()
		return nil, fmt.Errorf("start receiver: %w", err)
	}
	if _, err := r.tick(); err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up tick: %w", err)
	}
	return r, nil
}

func (r *liveRig) tick() (telemetry.TickReport, error) {
	rep, err := r.eng.Tick()
	if err == nil {
		r.ticks++
	}
	return rep, err
}

// stopReplication closes the stream; the follower's journal stays on disk.
func (r *liveRig) stopReplication() {
	if r.rx != nil {
		r.rx.Close()
		r.rx = nil
	}
	if r.sender != nil {
		r.sender.Close()
		r.sender = nil
	}
	if r.follower != nil {
		r.follower.Close()
		r.follower = nil
	}
}

// crash stops the engine without Shutdown, which leaves an unsealed journal
// exactly as the last tick committed it, and returns the profile a recovery
// must reproduce byte for byte.
func (r *liveRig) crash() ([]byte, error) {
	profile, err := json.Marshal(r.eng.Profile())
	if err != nil {
		return nil, err
	}
	st := r.eng.Store()
	r.eng.Stop()
	r.eng = nil
	return profile, st.Close()
}

// close releases whatever is still open. Data dirs are removed with the
// run's root directory.
func (r *liveRig) close() {
	r.stopReplication()
	if r.eng != nil {
		st := r.eng.Store()
		r.eng.Stop()
		r.eng = nil
		if st != nil {
			st.Close()
		}
	}
}

// tickSample is one measured live tick.
type tickSample struct {
	index         int // engine tick number
	dur           time.Duration
	allocs, bytes uint64
	reneg         bool
	traced        bool
}

// tickPhase is the live closed loop: tick for the given time and at least
// minTicks, never past the spike schedule's horizon, then on to the middle
// of a snapshot interval so every run crashes with the same journal tail.
// With sampleLag set, alternate blocks of ticks also sample the sender's
// replication lag — the traced run's instrumentation, whose cost is what
// bench.trace_overhead_pct reports for live_4k.
func (r *liveRig) tickPhase(res *runResult, forSeconds float64, minTicks int, sampleLag bool) (samples []tickSample, lag []float64) {
	ac := newAllocCounters()
	begin := time.Now()
	const block = 32
	for {
		timeUp := len(samples) >= minTicks && seconds(time.Since(begin)) >= forSeconds
		if r.ticks >= r.p.maxTicks-1 {
			timeUp = true
		}
		if timeUp && r.ticks%r.p.snapshotEvery == r.p.snapshotEvery/2 {
			return samples, lag
		}
		traced := sampleLag && (len(samples)/block)%2 == 0
		a0, b0 := ac.read()
		start := time.Now()
		rep, err := r.tick()
		if err == nil && traced {
			if st := r.sender.Status(); len(st.Standbys) > 0 {
				lag = append(lag, float64(st.Standbys[0].LagRecords))
			}
		}
		dur := time.Since(start)
		a1, b1 := ac.read()
		if err != nil {
			res.attempt(fmt.Sprintf("tick %d: %v", r.ticks, err))
			return samples, lag
		}
		res.attempt("")
		samples = append(samples, tickSample{
			index: rep.Tick, dur: dur, allocs: a1 - a0, bytes: b1 - b0,
			reneg: rep.Renegotiated != nil, traced: traced,
		})
	}
}

// awaitFollower waits for the follower's journal to reach the primary's
// newest record: the replication half of the correctness gate.
func (r *liveRig) awaitFollower(res *runResult) time.Duration {
	want := r.eng.Store().Stats().LastSeq
	start := time.Now()
	for r.tap.LastSeq() < want {
		if time.Since(start) > 10*time.Second {
			res.attempt(fmt.Sprintf("follower stuck at seq %d, primary at %d", r.tap.LastSeq(), want))
			return time.Since(start)
		}
		time.Sleep(200 * time.Microsecond)
	}
	res.attempt("")
	return time.Since(start)
}

// recoverOnce opens a byte-copy of the crashed data dir cold, to an engine
// ready to tick, and holds its profile to the crashed engine's.
func (r *liveRig) recoverOnce(res *runResult, i int, want []byte) (time.Duration, int) {
	dir := filepath.Join(r.p.root, fmt.Sprintf("recover-%d", i))
	if err := copyDir(r.dcfg.Dir, dir); err != nil {
		res.attempt(fmt.Sprintf("recovery %d: copy: %v", i, err))
		return 0, 0
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	eng, info, err := telemetry.OpenDurable(r.cfg, telemetry.DurableConfig{Dir: dir, SnapshotEvery: r.p.snapshotEvery})
	dur := time.Since(start)
	if err != nil {
		res.attempt(fmt.Sprintf("recovery %d: %v", i, err))
		return dur, 0
	}
	got, err := json.Marshal(eng.Profile())
	st := eng.Store()
	eng.Stop()
	st.Close()
	switch {
	case err != nil:
		res.attempt(fmt.Sprintf("recovery %d: profile: %v", i, err))
	case !info.Recovered:
		res.attempt(fmt.Sprintf("recovery %d: the copy held no state to recover", i))
	case !bytes.Equal(got, want):
		res.attempt(fmt.Sprintf("recovery %d: recovered Profile() differs from the crashed engine's", i))
	default:
		res.attempt("")
	}
	return dur, info.Replayed
}

// copyDir byte-copies a data directory.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// liveObs is what a live rig's run produced.
type liveObs struct {
	p          liveParams
	samples    []tickSample
	lag        []float64
	catchup    time.Duration
	recoveries []float64
	replayed   int
	promote    time.Duration
	bytes      uint64 // journal bytes written during the tick phase
	records    uint64
	snapshot   []byte
	crashedDir string
}

// observeLive drives a rig through its whole life: tick phase, follower
// catch-up, crash, cold recoveries and (traced runs) a standby promotion on
// the follower's journal.
func observeLive(res *runResult, rig *liveRig, forSeconds float64, minTicks, recoveries int, traced bool) (*liveObs, error) {
	obs := &liveObs{p: rig.p, crashedDir: rig.dcfg.Dir}
	before := rig.eng.Store().Stats()
	obs.samples, obs.lag = rig.tickPhase(res, forSeconds, minTicks, traced)
	after := rig.eng.Store().Stats()
	obs.bytes, obs.records = after.BytesWritten-before.BytesWritten, after.Appends-before.Appends
	obs.catchup = rig.awaitFollower(res)
	rig.stopReplication()
	profile, err := rig.crash()
	if err != nil {
		return nil, fmt.Errorf("crash: %w", err)
	}
	if _, blob, ok := store.LatestSnapshotData(rig.dcfg.Dir); ok {
		obs.snapshot = blob
	}
	for i := 0; i < recoveries; i++ {
		dur, replayed := rig.recoverOnce(res, i, profile)
		obs.recoveries = append(obs.recoveries, seconds(dur))
		obs.replayed = replayed
	}
	if traced {
		obs.promote, err = rig.promoteFollower()
		if err != nil {
			res.attempt(fmt.Sprintf("promotion: %v", err))
		} else {
			res.attempt("")
		}
	}
	return obs, nil
}

// promoteFollower opens a standby on a copy of the follower's journal and
// promotes it: the failover path, to an engine ready to tick.
func (r *liveRig) promoteFollower() (time.Duration, error) {
	dir := filepath.Join(r.p.root, "promote")
	if err := copyDir(r.followerDir, dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	standby, _, err := telemetry.OpenStandby(r.cfg, telemetry.DurableConfig{Dir: dir, SnapshotEvery: r.p.snapshotEvery})
	if err != nil {
		return 0, err
	}
	eng, _, err := standby.Promote("bench-follower", "benchmark probe")
	dur := time.Since(start)
	if err != nil {
		standby.Close()
		return dur, err
	}
	st := eng.Store()
	eng.Stop()
	if st != nil {
		st.Close()
	}
	return dur, nil
}

// setUpLive repeats the live set-up and keeps the last rig; every repetition
// must negotiate the same initial profile.
func setUpLive(res *runResult, sz sizing, p liveParams, reps int) (*liveRig, float64, error) {
	var rig *liveRig
	var first []byte
	var times []float64
	for i := 0; moreSetUps(sz, reps, times); i++ {
		if rig != nil {
			rig.close()
		}
		start := time.Now()
		next, err := openLiveRig(p)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, seconds(time.Since(start)))
		rig = next
		profile, err := json.Marshal(rig.eng.Profile().Awards)
		switch {
		case err != nil:
			res.attempt(fmt.Sprintf("set-up %d: profile: %v", i+1, err))
		case first != nil && !bytes.Equal(profile, first):
			res.attempt(fmt.Sprintf("set-up %d: initial awards differ from the first set-up's", i+1))
		default:
			res.attempt("")
		}
		if first == nil {
			first = profile
		}
	}
	return rig, median(times), nil
}

// wholePeriods returns the ticks of the first p.periods event periods, counted
// from the first scheduled event: a fixed set of ticks holding exactly one
// re-negotiation per eventPeriod, spike starts and spike ends in equal
// number, however fast the machine ticked. A run that did not get that far
// keeps the complete pairs of periods it has, or failing that every tick.
func wholePeriods(samples []tickSample, p liveParams) []tickSample {
	if len(samples) == 0 {
		return samples
	}
	last := samples[len(samples)-1].index + 1
	periods := min((last-p.firstEvent)/p.eventPeriod, p.periods)
	periods -= periods % 2
	if periods < 2 {
		return samples
	}
	end := p.firstEvent + periods*p.eventPeriod
	var out []tickSample
	for _, s := range samples {
		if s.index >= p.firstEvent && s.index < end {
			out = append(out, s)
		}
	}
	return out
}

func splitTicks(samples []tickSample) (steady, reneg []float64) {
	for _, s := range samples {
		if s.reneg {
			reneg = append(reneg, seconds(s.dur))
		} else {
			steady = append(steady, seconds(s.dur))
		}
	}
	return steady, reneg
}

// newRunRoot creates the run's private directory under the output dir.
func newRunRoot(outDir, label string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "tmp-"+label+"-")
}

// runLiveWorkload runs live_4k.
func runLiveWorkload(cfg runConfig, res *runResult, ms *metricSet) error {
	if cfg.Trace {
		return runLiveTraced(cfg, res, ms)
	}
	root, err := newRunRoot(cfg.OutDir, cfg.Workload)
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	sz := cfg.Size
	p := liveParamsOf(cfg, sz.LiveN, sz.MaxTicks, root)
	rig, setupS, err := setUpLive(res, sz, p, sz.SetupReps)
	if err != nil {
		return err
	}
	defer rig.close()

	obs, err := observeLive(res, rig, cfg.Seconds, sz.MinTicks, sz.Recoveries, false)
	if err != nil {
		return err
	}

	// Costs are counted over a fixed number of whole event periods, so the
	// sample is the same ticks and the same re-negotiations on every machine.
	steady, reneg := splitTicks(obs.samples)
	window := wholePeriods(obs.samples, p)
	var busy float64
	var allocs, bytes uint64
	for _, s := range window {
		busy += seconds(s.dur)
		allocs += s.allocs
		bytes += s.bytes
	}
	if len(steady) == 0 {
		return fmt.Errorf("no live tick completed")
	}
	readings := float64(len(window) * p.n)
	ms.set(mSetup, setupS)
	ms.set(mAllocsPerUnit, float64(allocs)/readings)
	ms.set(mBytesPerUnit, float64(bytes)/readings)
	tail, label := tailQuantile(steady)
	res.infof("information only (wall clock, not gated): op_p50_s %.6g s (steady tick), units_per_s %.6g 1/s (readings, re-negotiating ticks included), steady tick %s %.6f s, max %.6f s",
		median(steady), readings/busy, label, tail, quantile(steady, 1))
	res.infof("%d ticks of %d readings (%d steady, %d re-negotiating); re-negotiating tick p50 %.4f s; cold recovery p50 %.4f s over %d; follower caught up in %.4f s",
		len(obs.samples), p.n, len(steady), len(reneg), median(reneg), median(obs.recoveries), len(obs.recoveries), seconds(obs.catchup))
	return nil
}

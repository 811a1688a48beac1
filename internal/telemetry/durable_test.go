package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"loadbalance/internal/store"
)

// durableCfg builds the spiked live-grid configuration the durability tests
// share: demand doubles on two shards from tick 4, so every run contains an
// initial negotiation, breach detection and one incremental re-negotiation.
func durableCfg(t *testing.T, n, shards int, seed int64) LiveConfig {
	t.Helper()
	s, err := ElasticFleetScenario(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return LiveConfig{
		Scenario:       s,
		Shards:         shards,
		TicksPerWindow: 8,
		Jitter:         0.01,
		Seed:           seed,
		ShardEvents: map[int][]Event{
			0:          {{StartTick: 4, EndTick: 1 << 20, Factor: 2.5}},
			shards / 2: {{StartTick: 4, EndTick: 1 << 20, Factor: 2.5}},
		},
	}
}

// profileJSON renders the canonical outcome.
func profileJSON(t *testing.T, e *LiveEngine) []byte {
	t.Helper()
	b, err := json.Marshal(e.Profile())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runTicks advances the engine n ticks.
func runTicks(t *testing.T, e *LiveEngine, n int) {
	t.Helper()
	if _, err := e.Run(n); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCrashReplayByteIdentical is the engine-level recovery
// guarantee: crash a durable live engine at any tick, recover from the data
// directory, finish the run — the final awards, demand factors and measured
// series are byte-identical to an uninterrupted run's.
func TestDurableCrashReplayByteIdentical(t *testing.T) {
	const total = 12
	cfg := durableCfg(t, 24, 4, 7)

	engU, infoU, err := OpenDurable(cfg, DurableConfig{Dir: t.TempDir(), SnapshotEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	if infoU.Recovered {
		t.Fatal("fresh directory reported recovered")
	}
	runTicks(t, engU, total)
	want := profileJSON(t, engU)
	if err := engU.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if engU.Renegotiations() == 0 {
		t.Fatal("reference run never re-negotiated; the spike config is broken")
	}

	// Crash at ticks spanning before, at and after the re-negotiation.
	for _, crashAt := range []int{3, 5, 7} {
		dir := t.TempDir()
		eng1, _, err := OpenDurable(cfg, DurableConfig{Dir: dir, SnapshotEvery: 5})
		if err != nil {
			t.Fatal(err)
		}
		runTicks(t, eng1, crashAt)
		// Crash: tear down telemetry and close the journal without sealing
		// it — on disk this is indistinguishable from the process dying.
		eng1.Stop()
		if err := eng1.Store().Close(); err != nil {
			t.Fatal(err)
		}

		eng2, info, err := OpenDurable(cfg, DurableConfig{Dir: dir, SnapshotEvery: 5})
		if err != nil {
			t.Fatalf("crashAt %d: recover: %v", crashAt, err)
		}
		if !info.Recovered || info.CleanStart {
			t.Fatalf("crashAt %d: info = %+v, want a crash recovery", crashAt, info)
		}
		if info.ResumeTick != crashAt {
			t.Fatalf("crashAt %d: resumed at tick %d", crashAt, info.ResumeTick)
		}
		runTicks(t, eng2, total-crashAt)
		got := profileJSON(t, eng2)
		if err := eng2.Shutdown(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("crashAt %d: recovered run diverged from the uninterrupted run\n got: %s\nwant: %s", crashAt, got, want)
		}
	}
}

// TestDurableTornTailReplaysOneTickEarlier loses the last committed tick to
// a torn write: recovery resumes one tick earlier, the meters re-sample the
// lost tick from the same RNG position, and the final state is still
// byte-identical.
func TestDurableTornTailReplaysOneTickEarlier(t *testing.T) {
	const total = 10
	cfg := durableCfg(t, 16, 4, 11)

	engU, _, err := OpenDurable(cfg, DurableConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	runTicks(t, engU, total)
	want := profileJSON(t, engU)
	if err := engU.Shutdown(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	eng1, _, err := OpenDurable(cfg, DurableConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	runTicks(t, eng1, 7)
	eng1.Stop()
	if err := eng1.Store().Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: the tick-6 record loses its checksum.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	eng2, info, err := OpenDurable(cfg, DurableConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if info.ResumeTick != 6 {
		t.Fatalf("resumed at tick %d, want 6 (the torn tick replays live)", info.ResumeTick)
	}
	runTicks(t, eng2, total-6)
	got := profileJSON(t, eng2)
	if err := eng2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("torn-tail recovery diverged\n got: %s\nwant: %s", got, want)
	}
}

// TestDurableRecoversANoPeakSession: a fleet whose capacity is above its
// demand negotiates nothing, so the session engine records every member's 0
// bid and no award. A crash right after OpenDurable recovers every member at
// the {0, 0} award the uninterrupted engine stands it at, byte for byte.
func TestDurableRecoversANoPeakSession(t *testing.T) {
	cfg := durableCfg(t, 24, 4, 7)
	cfg.Scenario.NormalUse *= 2
	cfg.ShardEvents = nil
	engU, _, err := OpenDurable(cfg, DurableConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	want := profileJSON(t, engU)
	if err := engU.Shutdown(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	eng1, _, err := OpenDurable(cfg, DurableConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	eng1.Stop()
	if err := eng1.Store().Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := store.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if out, ok := rec.Session(cfg.Scenario.SessionID); !ok || len(out.Bids) != 24 || len(out.Awards) != 0 {
		t.Fatalf("session record %+v, %v: want 24 bids and no award (no peak)", out, ok)
	}
	eng2, info, err := OpenDurable(cfg, DurableConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Shutdown()
	if !info.Recovered || info.ResumeTick != 0 {
		t.Fatalf("info = %+v, want a recovery at tick 0", info)
	}
	if got := profileJSON(t, eng2); !bytes.Equal(got, want) {
		t.Fatalf("recovered profile differs from the uninterrupted engine's\n got: %s\nwant: %s", got, want)
	}
}

// TestDurableSealedResume continues a cleanly shut down grid: recovery
// reports the seal and the run picks up at the next tick.
func TestDurableSealedResume(t *testing.T) {
	cfg := durableCfg(t, 16, 4, 3)
	dir := t.TempDir()
	eng1, _, err := OpenDurable(cfg, DurableConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	runTicks(t, eng1, 6)
	if err := eng1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	eng2, info, err := OpenDurable(cfg, DurableConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Shutdown()
	if !info.Recovered || !info.CleanStart || info.ResumeTick != 6 {
		t.Fatalf("info = %+v, want a clean resume at tick 6", info)
	}
	rep, err := eng2.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tick != 6 {
		t.Fatalf("first tick after resume = %d, want 6", rep.Tick)
	}
}

// TestDurableRejectsMismatchedScenario refuses to replay a journal into a
// differently-parameterised grid.
func TestDurableRejectsMismatchedScenario(t *testing.T) {
	cfg := durableCfg(t, 16, 4, 3)
	dir := t.TempDir()
	eng, _, err := OpenDurable(cfg, DurableConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	runTicks(t, eng, 2)
	if err := eng.Shutdown(); err != nil {
		t.Fatal(err)
	}

	other := durableCfg(t, 16, 4, 99) // different seed, different run
	if _, _, err := OpenDurable(other, DurableConfig{Dir: dir}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("mismatched scenario error = %v, want ErrBadConfig", err)
	}
}

// TestDurableStoreMetricsAdvance checks the journal counters the /metrics
// endpoint exports actually move with the loop.
func TestDurableStoreMetricsAdvance(t *testing.T) {
	cfg := durableCfg(t, 16, 4, 5)
	eng, _, err := OpenDurable(cfg, DurableConfig{Dir: t.TempDir(), SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	runTicks(t, eng, 7)
	st := eng.Store().Stats()
	if st.Appends < 10 { // registration + session + 7 ticks
		t.Fatalf("appends = %d", st.Appends)
	}
	if st.Snapshots != 2 { // after ticks 3 and 6
		t.Fatalf("snapshots = %d, want 2", st.Snapshots)
	}
	if st.SnapshotTime.IsZero() {
		t.Fatal("snapshot time not recorded")
	}
	if err := eng.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableLossyRunReplaysByteIdentical: in a lossy grid an award can
// fail to reach a member, or reach it for an earlier bid than its last. A
// crash right after the initial negotiation recovers the agreement the live
// engine stood, byte for byte, because both stand what the session
// delivered.
func TestDurableLossyRunReplaysByteIdentical(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		s, err := ElasticFleetScenario(48, seed)
		if err != nil {
			t.Fatal(err)
		}
		s.DropRate, s.RoundTimeout = 0.15, 150*time.Millisecond
		cfg := LiveConfig{Scenario: s, Shards: 4, Seed: seed}
		dir := t.TempDir()
		eng1, _, err := OpenDurable(cfg, DurableConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		want := profileJSON(t, eng1)
		eng1.Stop()
		if err := eng1.Store().Close(); err != nil {
			t.Fatal(err)
		}
		eng2, info, err := OpenDurable(cfg, DurableConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		got := profileJSON(t, eng2)
		if err := eng2.Shutdown(); err != nil {
			t.Fatal(err)
		}
		if !info.Recovered {
			t.Fatalf("seed %d: the second open did not recover", seed)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("seed %d: recovered profile differs from the live engine's\n got: %s\nwant: %s", seed, got, want)
		}
	}
}

// TestSnapshotBlobAllocations: the snapshot holds the standing agreement as
// two arrays by roster index, so it costs a few allocations whatever the
// fleet size, not several per customer.
func TestSnapshotBlobAllocations(t *testing.T) {
	const n, shards, budget = 4096, 16, 32
	s, err := ElasticFleetScenario(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewLiveEngine(LiveConfig{Scenario: s, Shards: shards, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	if allocs := testing.AllocsPerRun(5, func() { eng.snapshotBlob() }); allocs > budget {
		t.Fatalf("snapshotBlob of %d customers over %d shards made %.0f allocations, budget %d", n, shards, allocs, budget)
	}
}

// TestDurableRefusesStateThatDoesNotFitTheFleet: a snapshot or a
// re-negotiation record comes from disk, so one that does not fit the
// engine's fleet — standing arrays of another length, a shard outside the
// topology — is refused as a configuration error, never a panic.
func TestDurableRefusesStateThatDoesNotFitTheFleet(t *testing.T) {
	cfg := durableCfg(t, 16, 4, 3)
	snapshot := func(edit func(*liveState)) func(*LiveEngine) (store.Record, []byte) {
		return func(e *LiveEngine) (store.Record, []byte) {
			var ls liveState
			if err := json.Unmarshal(e.snapshotBlob(), &ls); err != nil {
				t.Fatal(err)
			}
			edit(&ls)
			blob, err := json.Marshal(ls)
			if err != nil {
				t.Fatal(err)
			}
			return store.Record{}, blob
		}
	}
	reneg := func(shard int) func(*LiveEngine) (store.Record, []byte) {
		return func(e *LiveEngine) (store.Record, []byte) {
			rec, err := store.NewRenegRecord(store.RenegOutcome{
				Checkpoint: store.TickCheckpoint{Tick: e.tick, Shard: make([]float64, e.topo.Shards()), Readings: 16, Batches: 1},
				SessionSeq: 1,
				SessionID:  "bad-renego-1",
				Shards:     []int{shard},
				Factors:    map[int]float64{shard: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			return rec, nil
		}
	}
	for name, bad := range map[string]func(*LiveEngine) (store.Record, []byte){
		"short bids":     snapshot(func(ls *liveState) { ls.Bids = ls.Bids[1:] }),
		"long awards":    snapshot(func(ls *liveState) { ls.Awards = append(ls.Awards, Award{}) }),
		"no awards":      snapshot(func(ls *liveState) { ls.Awards = nil }),
		"shard past":     reneg(4),
		"negative shard": reneg(-1),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			eng, _, err := OpenDurable(cfg, DurableConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			eng.Stop()
			rec, blob := bad(eng)
			st := eng.Store()
			if blob != nil {
				err = st.Snapshot(blob)
			} else if err = st.Append(rec); err == nil {
				err = st.Commit()
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := OpenDurable(cfg, DurableConfig{Dir: dir}); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("recovering %s: error %v, want ErrBadConfig", name, err)
			}
		})
	}
}

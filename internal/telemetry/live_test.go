package telemetry

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// liveTestEngine builds a 16-shard, 48-customer live grid with the given
// shard events.
func liveTestEngine(t *testing.T, events map[int][]Event) *LiveEngine {
	t.Helper()
	s, err := ElasticFleetScenario(48, 11)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewLiveEngine(LiveConfig{
		Scenario:       s,
		Shards:         16,
		TicksPerWindow: 8,
		Jitter:         0.01,
		Seed:           11,
		ShardEvents:    events,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Stop)
	return eng
}

// TestLiveSpikeRenegotiatesOnlyBreachingShards is the seeded live-run
// acceptance check: a sustained demand spike hits 2 of 16 shards; only those
// shards re-negotiate, the fleet's measured load returns under the
// allowed-overuse target within a bounded number of ticks, and the untouched
// shards' awards are byte-identical before and after.
func TestLiveSpikeRenegotiatesOnlyBreachingShards(t *testing.T) {
	spiked := []int{2, 9}
	events := map[int][]Event{
		2: {{StartTick: 3, EndTick: 99, Factor: 2.5}},
		9: {{StartTick: 3, EndTick: 99, Factor: 2.5}},
	}
	eng := liveTestEngine(t, events)

	// The initial negotiation must leave the fleet operating: customers
	// committed to cut-downs and meters actuated.
	initialAwards := make(map[int][]byte)
	for i := 0; i < 16; i++ {
		data, err := json.Marshal(eng.ShardAwards(i))
		if err != nil {
			t.Fatal(err)
		}
		initialAwards[i] = data
	}

	reports, err := eng.Run(12)
	if err != nil {
		t.Fatal(err)
	}

	// Exactly one re-negotiation event, covering exactly the spiked shards.
	events2 := eng.Events()
	if len(events2) != 1 {
		t.Fatalf("renegotiation events = %d, want exactly 1: %+v", len(events2), events2)
	}
	ev := events2[0]
	if len(ev.Shards) != 2 || ev.Shards[0] != spiked[0] || ev.Shards[1] != spiked[1] {
		t.Fatalf("renegotiated shards = %v, want %v", ev.Shards, spiked)
	}
	if ev.Members != 6 {
		t.Fatalf("re-bidding members = %d, want 6 (2 shards × 3 customers)", ev.Members)
	}
	// The demand-factor estimate recovers the injected 2.5x spike.
	for _, i := range spiked {
		if f := ev.Factors[i]; f < 2.3 || f > 2.7 {
			t.Fatalf("shard %d estimated factor = %v, want ≈2.5", i, f)
		}
	}

	// The per-shard counter stays pinned to the breaching shards.
	snap := eng.Snapshot()
	for i := 0; i < 16; i++ {
		want := 0
		if i == spiked[0] || i == spiked[1] {
			want = 1
		}
		if snap.ShardRenegotiations[i] != want {
			t.Fatalf("shard %d renegotiations = %d, want %d", i, snap.ShardRenegotiations[i], want)
		}
	}
	if snap.Renegotiations != 1 {
		t.Fatalf("total renegotiations = %d, want 1", snap.Renegotiations)
	}

	// Untouched shards' awards are byte-identical before/after the event;
	// the spiked shards' members conceded strictly deeper.
	for i := 0; i < 16; i++ {
		data, err := json.Marshal(eng.ShardAwards(i))
		if err != nil {
			t.Fatal(err)
		}
		if i == spiked[0] || i == spiked[1] {
			if bytes.Equal(initialAwards[i], data) {
				t.Fatalf("spiked shard %d awards unchanged", i)
			}
			for name, a := range eng.ShardAwards(i) {
				var before map[string]Award
				if err := json.Unmarshal(initialAwards[i], &before); err != nil {
					t.Fatal(err)
				}
				if a.CutDown <= before[name].CutDown {
					t.Fatalf("spiked member %s cut-down %v did not deepen from %v", name, a.CutDown, before[name].CutDown)
				}
			}
			continue
		}
		if !bytes.Equal(initialAwards[i], data) {
			t.Fatalf("untouched shard %d awards changed:\nbefore %s\nafter  %s", i, initialAwards[i], data)
		}
	}

	// The spike is visible before the re-negotiation and the fleet returns
	// under the allowed-overuse target within a bounded number of ticks.
	if ev.Tick != 4 {
		t.Fatalf("breach fired at tick %d, want 4 (spike at 3, hysteresis 2)", ev.Tick)
	}
	spikeTick := reports[3]
	if spikeTick.ShardMeasured[2] < 2*spikeTick.ShardExpected[2] {
		t.Fatalf("tick 3 shard 2: measured %v vs expected %v, spike not visible",
			spikeTick.ShardMeasured[2], spikeTick.ShardExpected[2])
	}
	target := reports[0].TargetKWh
	for _, rep := range reports[7:] {
		if rep.FleetKWh > target*1.03 {
			t.Fatalf("tick %d: fleet %v kWh above target %v after recovery window",
				rep.Tick, rep.FleetKWh, target)
		}
	}
	// And the loop is quiet again: no latched breaches at the end.
	for i, breached := range snap.ShardBreached {
		if breached {
			t.Fatalf("shard %d still breached at end of run", i)
		}
	}
}

// TestLiveSteadyStateNeverRenegotiates pins the false-positive rate: with
// jitter only, no shard ever breaches.
func TestLiveSteadyStateNeverRenegotiates(t *testing.T) {
	eng := liveTestEngine(t, nil)
	reports, err := eng.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.Renegotiations(); n != 0 {
		t.Fatalf("steady state renegotiated %d times: %+v", n, eng.Events())
	}
	target := reports[0].TargetKWh
	for _, rep := range reports {
		if rep.FleetKWh > target*1.03 {
			t.Fatalf("tick %d: steady fleet %v kWh above target %v", rep.Tick, rep.FleetKWh, target)
		}
	}
}

// TestLiveOutageFreesCapacity drives the opposite excursion: a whole shard
// goes dark, the deviation fires, and the re-negotiation re-models the shard
// at (near) zero demand without disturbing anyone else.
func TestLiveOutageFreesCapacity(t *testing.T) {
	eng := liveTestEngine(t, map[int][]Event{
		5: {{StartTick: 2, EndTick: 99, Factor: 0}},
	})
	if _, err := eng.Run(8); err != nil {
		t.Fatal(err)
	}
	events := eng.Events()
	if len(events) != 1 || len(events[0].Shards) != 1 || events[0].Shards[0] != 5 {
		t.Fatalf("outage events = %+v, want one event on shard 5", events)
	}
	if f := events[0].Factors[5]; f > 0.05 {
		t.Fatalf("outage factor estimate = %v, want ≈0", f)
	}
	snap := eng.Snapshot()
	if snap.ShardMeasured[5] != 0 {
		t.Fatalf("dark shard still measures %v kWh", snap.ShardMeasured[5])
	}
	if snap.ShardBreached[5] {
		t.Fatal("dark shard still flagged after re-negotiation reset")
	}
}

// TestLiveManyShardsStillDetects pins the default absolute deviation floor
// at high shard counts: it must scale with a shard's load, not the fleet's,
// or a single-customer shard's outage becomes invisible.
func TestLiveManyShardsStillDetects(t *testing.T) {
	s, err := ElasticFleetScenario(48, 11)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewLiveEngine(LiveConfig{
		Scenario:       s,
		Shards:         48, // one customer per shard
		TicksPerWindow: 8,
		Jitter:         0.01,
		Seed:           11,
		ShardEvents:    map[int][]Event{7: {{StartTick: 1, EndTick: 99, Factor: 0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	if _, err := eng.Run(6); err != nil {
		t.Fatal(err)
	}
	events := eng.Events()
	if len(events) != 1 || len(events[0].Shards) != 1 || events[0].Shards[0] != 7 {
		t.Fatalf("events = %+v, want one outage breach on shard 7", events)
	}
}

// TestLiveEngineLifecycleErrors covers the guard rails.
func TestLiveEngineLifecycleErrors(t *testing.T) {
	s, err := ElasticFleetScenario(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewLiveEngine(LiveConfig{Scenario: s, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Tick(); err == nil {
		t.Fatal("Tick before Start must fail")
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	if err := eng.Start(); err == nil {
		t.Fatal("double Start must fail")
	}
	if _, err := eng.Tick(); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyTickCost pins what a steady live tick costs and what an engine
// leaves running. The meters are read straight into the collector on the
// ticking goroutine, so opening, starting and promoting an engine start
// nothing that outlives the call, and a tick of a small durable fleet —
// sampling, ingest, detection and the journal record; snapshots are held out
// — stays within budgets 1.25× what it reads (0.035 allocations, 55.6 B per
// reading). Publishing each tick over a private bus to a collector agent read
// 0.063 and 140 B, and left that agent's goroutine behind.
func TestSteadyTickCost(t *testing.T) {
	const (
		n, shards, ticks = 256, 4, 64
		allocsBudget     = 0.044 // per reading
		bytesBudget      = 70.0  // per reading
	)
	s, err := ElasticFleetScenario(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LiveConfig{Scenario: s, Shards: shards, Jitter: 0.01, Seed: 3}
	base := t.TempDir()

	before := runtime.NumGoroutine()
	eng, _, err := OpenDurable(cfg, DurableConfig{Dir: filepath.Join(base, "primary"), SnapshotEvery: 2 * ticks})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	if g := goroutinesAfter(before); g > before {
		t.Errorf("opening and starting an engine left %d goroutines behind", g-before)
	}
	sb, _, err := OpenStandby(cfg, DurableConfig{Dir: filepath.Join(base, "standby")})
	if err != nil {
		t.Fatal(err)
	}
	promoted, _, err := sb.Promote("r0", "test")
	if err != nil {
		t.Fatal(err)
	}
	if g := goroutinesAfter(before); g > before {
		t.Errorf("opening and promoting a standby left %d goroutines behind", g-before)
	}
	promoted.Stop()

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < ticks; i++ {
		rep, err := eng.Tick()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Breached) > 0 {
			t.Fatalf("tick %d breached %v: not a steady tick", rep.Tick, rep.Breached)
		}
	}
	runtime.ReadMemStats(&m1)
	readings := float64(ticks * n)
	allocs := float64(m1.Mallocs-m0.Mallocs) / readings
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / readings
	t.Logf("a steady tick of %d meters: %.3f allocations and %.1f B per reading", n, allocs, bytes)
	if allocs > allocsBudget || bytes > bytesBudget {
		t.Errorf("a steady tick costs %.3f allocations and %.1f B per reading, budgets %.3f and %.0f B",
			allocs, bytes, allocsBudget, bytesBudget)
	}
}

// goroutinesAfter waits up to a second for the goroutine count to settle back
// to before — a goroutine a call stopped may still be unwinding when the call
// returns — and returns the count.
func goroutinesAfter(before int) int {
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"loadbalance/internal/bus"
	"loadbalance/internal/message"
	"loadbalance/internal/store"
	"loadbalance/internal/telemetry"
	"loadbalance/internal/trace"
)

// liveCfg is the seeded spiked scenario the replica tests run.
func liveCfg(t *testing.T, n, shards, ticks int) telemetry.LiveConfig {
	t.Helper()
	s, err := telemetry.ElasticFleetScenario(n, 11)
	if err != nil {
		t.Fatal(err)
	}
	return telemetry.LiveConfig{
		Scenario:       s,
		Shards:         shards,
		TicksPerWindow: 8,
		Jitter:         0.01,
		Seed:           11,
		ShardEvents: map[int][]telemetry.Event{
			0: {{StartTick: ticks / 3, EndTick: ticks + 1, Factor: 2.5}},
		},
	}
}

// fastTimings are test-speed sender/receiver cadences.
func fastSender(dir, addr string) SenderConfig {
	return SenderConfig{Dir: dir, Addr: addr, Heartbeat: 25 * time.Millisecond, Poll: 5 * time.Millisecond}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJournalReplicaByteIdentical streams a primary's journal to a
// journal-only follower over TCP: the replica's record stream must be
// byte-identical to the primary's, including a propagated seal.
func TestJournalReplicaByteIdentical(t *testing.T) {
	primDir, replDir := t.TempDir(), t.TempDir()
	prim, _, err := store.Open(primDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := StartSender(fastSender(primDir, "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	repl, _, err := store.Open(replDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tap := &StoreTap{St: repl}
	rx, err := StartReceiver(ReceiverConfig{ID: "r0", Addrs: []string{sender.Addr()}, FailoverTimeout: time.Second, Redial: 20 * time.Millisecond}, tap)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()

	const n = 300
	for i := 0; i < n; i++ {
		if err := prim.Append(store.NewTickRecord(store.TickCheckpoint{Tick: i, Shard: []float64{float64(i)}, Readings: 4, Batches: 1})); err != nil {
			t.Fatal(err)
		}
		if i%16 == 15 {
			if err := prim.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := prim.Seal(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "seal to replicate", func() bool { return rx.Status().Sealed })
	if got := tap.LastSeq(); got != n+1 { // + the seal record
		t.Fatalf("replica at seq %d, want %d", got, n+1)
	}
	if err := prim.Close(); err != nil {
		t.Fatal(err)
	}
	if err := repl.Close(); err != nil {
		t.Fatal(err)
	}

	// Byte-identical record streams.
	want, err := store.OpenTail(primDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	got, err := store.OpenTail(replDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	var wantBytes, gotBytes []byte
	for {
		b, err := want.Next(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if b.Count == 0 {
			break
		}
		wantBytes = append(wantBytes, b.Frames...)
	}
	for {
		b, err := got.Next(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if b.Count == 0 {
			break
		}
		gotBytes = append(gotBytes, b.Frames...)
	}
	if !bytes.Equal(wantBytes, gotBytes) {
		t.Fatalf("replica journal diverged: %d bytes vs %d", len(gotBytes), len(wantBytes))
	}
	// The receiver observed the clean shutdown.
	st := rx.Status()
	if st.Resyncs != 0 {
		t.Fatalf("lossless local stream needed %d resyncs", st.Resyncs)
	}
}

// TestSnapshotBootstrapAfterPrune: a standby subscribing below the primary's
// pruned journal head is bootstrapped from the latest snapshot, then tailed.
func TestSnapshotBootstrapAfterPrune(t *testing.T) {
	primDir, replDir := t.TempDir(), t.TempDir()
	prim, _, err := store.Open(primDir, store.Options{SegmentBytes: 1024, KeepSnapshots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	// Fill several segments, snapshot twice so pruning moves the journal head.
	for i := 0; i < 300; i++ {
		if err := prim.Append(store.NewTickRecord(store.TickCheckpoint{Tick: i, Shard: []float64{1}, Readings: 1, Batches: 1})); err != nil {
			t.Fatal(err)
		}
	}
	if err := prim.Snapshot([]byte("app-state-1")); err != nil {
		t.Fatal(err)
	}
	for i := 300; i < 400; i++ {
		if err := prim.Append(store.NewTickRecord(store.TickCheckpoint{Tick: i, Shard: []float64{1}, Readings: 1, Batches: 1})); err != nil {
			t.Fatal(err)
		}
	}
	if err := prim.Snapshot([]byte("app-state-2")); err != nil {
		t.Fatal(err)
	}
	if _, err := store.OpenTail(primDir, 0); err == nil {
		t.Fatal("test precondition failed: journal head did not move")
	}

	sender, err := StartSender(fastSender(primDir, "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	repl, _, err := store.Open(replDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()
	tap := &StoreTap{St: repl}
	rx, err := StartReceiver(ReceiverConfig{ID: "r0", Addrs: []string{sender.Addr()}, FailoverTimeout: time.Second, Redial: 20 * time.Millisecond}, tap)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()

	// The receiver counts the snapshot after the tap has applied it, so the
	// tap's position alone does not say the counter has moved yet.
	waitFor(t, 5*time.Second, "snapshot bootstrap + tail", func() bool { return tap.LastSeq() == 400 && rx.Status().AppliedSeq == 400 })
	st := rx.Status()
	if st.Snapshots != 1 {
		t.Fatalf("receiver applied %d snapshots, want 1", st.Snapshots)
	}
	stats := repl.Stats()
	if stats.SnapshotSeq != 400 {
		t.Fatalf("replica snapshot at %d, want 400", stats.SnapshotSeq)
	}
	// The replicated snapshot blob is the primary's newest.
	_, blob, ok := store.LatestSnapshotData(replDir)
	if !ok || string(blob) != "app-state-2" {
		t.Fatalf("replica snapshot blob = %q", blob)
	}
	// New appends keep flowing after the bootstrap.
	if err := prim.Append(store.NewTickRecord(store.TickCheckpoint{Tick: 400, Shard: []float64{1}, Readings: 1, Batches: 1})); err != nil {
		t.Fatal(err)
	}
	if err := prim.Commit(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "post-bootstrap tail", func() bool { return tap.LastSeq() == 401 })
}

// TestFallenBehindFollowerFailsTerminally: a follower that holds local state
// but whose position was pruned out of the primary's journal must stop with
// a loud terminal error — not livelock re-shipping the snapshot forever, and
// never fork its journal by bootstrapping over existing state.
func TestFallenBehindFollowerFailsTerminally(t *testing.T) {
	primDir, replDir := t.TempDir(), t.TempDir()
	prim, _, err := store.Open(primDir, store.Options{SegmentBytes: 1024, KeepSnapshots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()

	// The follower replicates an early prefix, then goes offline.
	for i := 0; i < 20; i++ {
		if err := prim.Append(store.NewTickRecord(store.TickCheckpoint{Tick: i, Shard: []float64{1}, Readings: 1, Batches: 1})); err != nil {
			t.Fatal(err)
		}
	}
	if err := prim.Commit(); err != nil {
		t.Fatal(err)
	}
	repl, _, err := store.Open(replDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()
	tap := &StoreTap{St: repl}
	tl, err := store.OpenTail(primDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for {
		batch, err := tl.Next(0)
		if err != nil {
			t.Fatal(err)
		}
		if batch.Count == 0 {
			break
		}
		if _, _, err := tap.ApplyFrames(batch.FirstSeq, batch.Frames); err != nil {
			t.Fatal(err)
		}
	}
	tl.Close()
	if tap.LastSeq() != 20 {
		t.Fatalf("offline follower at seq %d, want 20", tap.LastSeq())
	}

	// Meanwhile the primary moves on far enough that pruning erases the
	// follower's position.
	for i := 20; i < 320; i++ {
		if err := prim.Append(store.NewTickRecord(store.TickCheckpoint{Tick: i, Shard: []float64{1}, Readings: 1, Batches: 1})); err != nil {
			t.Fatal(err)
		}
	}
	if err := prim.Snapshot([]byte("s1")); err != nil {
		t.Fatal(err)
	}
	for i := 320; i < 400; i++ {
		if err := prim.Append(store.NewTickRecord(store.TickCheckpoint{Tick: i, Shard: []float64{1}, Readings: 1, Batches: 1})); err != nil {
			t.Fatal(err)
		}
	}
	if err := prim.Snapshot([]byte("s2")); err != nil {
		t.Fatal(err)
	}
	if _, err := store.OpenTail(primDir, 20); err == nil {
		t.Fatal("test precondition failed: follower position not pruned")
	}

	sender, err := StartSender(fastSender(primDir, "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	rx, err := StartReceiver(ReceiverConfig{ID: "r0", Addrs: []string{sender.Addr()}, FailoverTimeout: 2 * time.Second, Redial: 20 * time.Millisecond}, tap)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()

	deadline := time.Now().Add(5 * time.Second)
	var sawFatal bool
	for !sawFatal {
		select {
		case ev := <-rx.Events():
			if ev.Kind == EventFallenBehind {
				sawFatal = true
			}
		case <-time.After(time.Until(deadline)):
			t.Fatalf("receiver never reported EventFallenBehind (status %+v)", rx.Status())
		}
	}
	st := rx.Status()
	if st.Fatal == "" || !strings.Contains(st.Fatal, "fallen behind") {
		t.Fatalf("status.Fatal = %q, want a fallen-behind diagnosis", st.Fatal)
	}
	// The follower's journal was not forked: still exactly the prefix.
	if tap.LastSeq() != 20 {
		t.Fatalf("follower journal moved to seq %d; a fallen-behind follower must not be mutated", tap.LastSeq())
	}
}

// TestDivergedFollowerFailsTerminally: a follower whose journal is ahead of
// the primary's (an old primary rejoining with an unreplicated tail) must be
// told so — the sender answers with a head-position heartbeat instead of
// silence, and the receiver stops terminally rather than mistaking the
// rejection for a dead primary and promoting into split brain.
func TestDivergedFollowerFailsTerminally(t *testing.T) {
	primDir, replDir := t.TempDir(), t.TempDir()
	prim, _, err := store.Open(primDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	for i := 0; i < 5; i++ {
		if err := prim.Append(store.NewTickRecord(store.TickCheckpoint{Tick: i, Shard: []float64{1}, Readings: 1, Batches: 1})); err != nil {
			t.Fatal(err)
		}
	}
	if err := prim.Commit(); err != nil {
		t.Fatal(err)
	}

	// The "old primary": a journal with records beyond the new primary's.
	repl, _, err := store.Open(replDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()
	for i := 0; i < 10; i++ {
		if err := repl.Append(store.NewTickRecord(store.TickCheckpoint{Tick: i, Shard: []float64{2}, Readings: 1, Batches: 1})); err != nil {
			t.Fatal(err)
		}
	}
	if err := repl.Commit(); err != nil {
		t.Fatal(err)
	}

	sender, err := StartSender(fastSender(primDir, "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	tap := &StoreTap{St: repl}
	rx, err := StartReceiver(ReceiverConfig{ID: "old-primary", Addrs: []string{sender.Addr()}, FailoverTimeout: 2 * time.Second, Redial: 20 * time.Millisecond}, tap)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()

	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-rx.Events():
			if ev.Kind == EventDiverged {
				st := rx.Status()
				if !strings.Contains(st.Fatal, "diverged") {
					t.Fatalf("status.Fatal = %q, want a divergence diagnosis", st.Fatal)
				}
				if tap.LastSeq() != 10 {
					t.Fatalf("diverged follower mutated to seq %d", tap.LastSeq())
				}
				return
			}
			if ev.Kind == EventPrimaryDead {
				t.Fatal("diverged follower declared the healthy primary dead")
			}
		case <-deadline:
			t.Fatalf("receiver never reported EventDiverged (status %+v)", rx.Status())
		}
	}
}

// TestNeverContactedStandbyNeverDeclaresDeath: a standby that has never
// reached any primary (wrong address, primary still starting) must keep
// dialing — not declare a primary it never saw dead and promote a fork over
// a possibly healthy grid head.
func TestNeverContactedStandbyNeverDeclaresDeath(t *testing.T) {
	repl, _, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()
	rx, err := StartReceiver(ReceiverConfig{
		ID:              "r0",
		Addrs:           []string{"127.0.0.1:1"}, // nothing listens here
		FailoverTimeout: 100 * time.Millisecond,
		Redial:          10 * time.Millisecond,
	}, &StoreTap{St: repl})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	select {
	case ev := <-rx.Events():
		t.Fatalf("receiver emitted %v without ever reaching a primary", ev.Kind)
	case <-time.After(600 * time.Millisecond): // 6× the failover timeout
	}
}

// TestHotStandbyFailoverByteIdentical is the package-level failover story: a
// live durable primary streams to a hot standby over TCP; the primary is
// killed mid-run (no seal); the standby detects the silence, promotes, and
// finishes the run byte-identical to an uninterrupted single-node run.
func TestHotStandbyFailoverByteIdentical(t *testing.T) {
	const (
		n      = 10
		shards = 2
		ticks  = 16
		crash  = 8
	)
	base := t.TempDir()

	// Reference: uninterrupted single-node run.
	ref, _, err := telemetry.OpenDurable(liveCfg(t, n, shards, ticks), telemetry.DurableConfig{Dir: filepath.Join(base, "ref")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(ticks); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref.Profile())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Primary with a replication sender.
	primDir := filepath.Join(base, "primary")
	prim, _, err := telemetry.OpenDurable(liveCfg(t, n, shards, ticks), telemetry.DurableConfig{Dir: primDir})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := StartSender(fastSender(primDir, "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}

	sb, _, err := StartStandby(StandbyConfig{
		ID:              "r0",
		PrimaryAddrs:    []string{sender.Addr()},
		Live:            liveCfg(t, n, shards, ticks),
		Durable:         telemetry.DurableConfig{Dir: filepath.Join(base, "standby")},
		FailoverTimeout: 300 * time.Millisecond,
		Redial:          20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	outcome := make(chan Outcome, 1)
	runErr := make(chan error, 1)
	go func() {
		o, err := sb.Run(context.Background())
		outcome <- o
		runErr <- err
	}()

	for i := 0; i < crash; i++ {
		if _, err := prim.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// Let the stream catch up, then kill the primary: engine torn down,
	// journal closed unsealed, listener gone — exactly a process death.
	waitFor(t, 5*time.Second, "standby to catch up", func() bool { return sb.Eng.Tick() == crash })
	prim.Stop()
	if err := prim.Store().Close(); err != nil {
		t.Fatal(err)
	}
	sender.Close()

	var o Outcome
	select {
	case o = <-outcome:
	case <-time.After(10 * time.Second):
		t.Fatal("standby never decided")
	}
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	if !o.Promoted || o.Engine == nil {
		t.Fatalf("outcome = %+v, want promotion", o)
	}
	if o.Promotion.ResumeTick != crash {
		t.Fatalf("promoted engine resumes at tick %d, want %d", o.Promotion.ResumeTick, crash)
	}
	if _, err := o.Engine.Run(ticks - o.Promotion.ResumeTick); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(o.Engine.Profile())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Engine.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("promoted standby diverged from the uninterrupted run\n got: %s\nwant: %s", got, want)
	}
}

// TestLowestIDWinsPromotion pins the deterministic promotion rule, and that
// a standby losing the tiebreak does NOT promote on primary death.
func TestLowestIDWinsPromotion(t *testing.T) {
	tests := []struct {
		self  string
		peers []string
		want  bool
	}{
		{self: "r0", peers: nil, want: true},
		{self: "r0", peers: []string{"r0", "r1", "r2"}, want: true},
		{self: "r1", peers: []string{"r0", "r1", "r2"}, want: false},
		{self: "r2", peers: []string{"r0", "r1"}, want: false},
		{self: "a", peers: []string{"b", "c"}, want: true},
	}
	for _, tt := range tests {
		if got := Promotable(tt.self, tt.peers); got != tt.want {
			t.Errorf("Promotable(%q, %v) = %v, want %v", tt.self, tt.peers, got, tt.want)
		}
	}

	// Live check: the higher-id standby of a two-standby set observes the
	// primary's death and keeps waiting instead of promoting.
	const (
		nCust  = 6
		shards = 2
		ticks  = 8
	)
	base := t.TempDir()
	primDir := filepath.Join(base, "primary")
	prim, _, err := telemetry.OpenDurable(liveCfg(t, nCust, shards, ticks), telemetry.DurableConfig{Dir: primDir})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := StartSender(fastSender(primDir, "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	sb, _, err := StartStandby(StandbyConfig{
		ID:              "r1",
		Peers:           []string{"r0", "r1"},
		PrimaryAddrs:    []string{sender.Addr()},
		Live:            liveCfg(t, nCust, shards, ticks),
		Durable:         telemetry.DurableConfig{Dir: filepath.Join(base, "standby1")},
		FailoverTimeout: 200 * time.Millisecond,
		Redial:          20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	done := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		defer close(done)
		o, err := sb.Run(ctx)
		if err == nil || o.Promoted {
			t.Errorf("losing standby returned (%+v, %v), want to keep waiting until cancelled", o, err)
		}
	}()

	for i := 0; i < 3; i++ {
		if _, err := prim.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "standby to catch up", func() bool { return sb.Eng.Tick() == 3 })
	prim.Stop()
	if err := prim.Store().Close(); err != nil {
		t.Fatal(err)
	}
	sender.Close()

	// Give it several failover timeouts' worth of opportunity to misbehave.
	select {
	case <-done:
		t.Fatal("losing standby stopped following")
	case <-time.After(time.Second):
	}
	cancel()
	<-done
}

// TestReplicaMetricsRender smoke-tests the replica_* samples.
func TestReplicaMetricsRender(t *testing.T) {
	check := func(side string, samples []trace.Sample, want map[string]float64) {
		t.Helper()
		for series, v := range want {
			if got, ok := trace.Value(samples, series); !ok || got != v {
				t.Fatalf("%s %s = %g (found %v), want %g in %+v", side, series, got, ok, v, samples)
			}
		}
	}
	check("sender", SenderStatus{
		Standbys: []StandbyStatus{{ID: "r0", ShippedSeq: 10, AckedSeq: 8, LagRecords: 2, LastAck: time.Now()}},
		Batches:  3, Records: 10, Bytes: 512,
	}.Samples(nil), map[string]float64{
		"replica_role":                              0,
		"replica_standbys":                          1,
		"replica_records_shipped_total":             10,
		`replica_standby_lag_records{standby="r0"}`: 2,
	})
	check("receiver", ReceiverStatus{ID: "r0", Connected: true, AppliedSeq: 8, Records: 10, LastContact: time.Now()}.Samples(nil),
		map[string]float64{
			"replica_role":                  1,
			"replica_source_up":             1,
			"replica_applied_seq":           8,
			"replica_records_applied_total": 10,
		})
}

// TestSenderStartCloseBytes: the sender's control handler is an agent whose
// pending envelopes wait on a ring, not in a 1 024-envelope channel (128 KB),
// so a sender started and closed costs a few KB. The first start pays the
// package's one-time setup and is not measured.
func TestSenderStartCloseBytes(t *testing.T) {
	dir := t.TempDir()
	startClose := func() {
		sender, err := StartSender(fastSender(dir, "127.0.0.1:0"))
		if err != nil {
			t.Fatal(err)
		}
		sender.Close()
	}
	startClose()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	startClose()
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b >= 32<<10 {
		t.Fatalf("a second StartSender + Close allocated %d B, want under 32 KB", b)
	}
}

// TestWaitDrain: WaitDrain answers at once with no standby, returns once a
// follower has acked the sequence, and gives up at its timeout on a follower
// that never acks.
func TestWaitDrain(t *testing.T) {
	primDir := t.TempDir()
	prim, _, err := store.Open(primDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	const n = 20
	for i := 0; i < n; i++ {
		if err := prim.Append(store.NewTickRecord(store.TickCheckpoint{Tick: i, Shard: []float64{1}, Readings: 1, Batches: 1})); err != nil {
			t.Fatal(err)
		}
	}
	if err := prim.Commit(); err != nil {
		t.Fatal(err)
	}
	sender, err := StartSender(fastSender(primDir, "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	start := time.Now()
	if !sender.WaitDrain(n, time.Minute) || time.Since(start) > 5*time.Second {
		t.Fatalf("WaitDrain with no standby took %v, want true at once", time.Since(start))
	}

	repl, _, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()
	tap := &StoreTap{St: repl}
	rx, err := StartReceiver(ReceiverConfig{ID: "r0", Addrs: []string{sender.Addr()}, FailoverTimeout: 5 * time.Second, Redial: 20 * time.Millisecond}, tap)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	waitFor(t, 5*time.Second, "the follower to subscribe", func() bool { return len(sender.Status().Standbys) == 1 })
	if !sender.WaitDrain(n, 5*time.Second) || tap.LastSeq() != n {
		t.Fatalf("WaitDrain(%d) with a follower at seq %d = false", n, tap.LastSeq())
	}

	// A follower that subscribes from 0 and never acks.
	mute, err := bus.Dial(sender.Addr(), "mute")
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	env, err := message.NewEnvelope("mute", senderName, "replication", message.ReplSubscribe{Replica: "mute"})
	if err != nil {
		t.Fatal(err)
	}
	if err := mute.Send(env); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the mute follower to subscribe", func() bool { return len(sender.Status().Standbys) == 2 })
	const timeout = 100 * time.Millisecond
	start = time.Now()
	if sender.WaitDrain(n, timeout) {
		t.Fatal("WaitDrain returned true with a follower that never acked")
	}
	if waited := time.Since(start); waited < timeout {
		t.Fatalf("WaitDrain gave up after %v, before its %v timeout", waited, timeout)
	}
}

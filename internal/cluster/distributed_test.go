package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"sort"
	"strings"
	"testing"
	"time"

	"loadbalance/internal/bus"
	"loadbalance/internal/core"
	"loadbalance/internal/message"
	"loadbalance/internal/protocol"
	"loadbalance/internal/store"
)

// awardsJSON renders customer awards as canonical JSON (sorted by name) so
// two runs can be compared byte for byte.
func awardsJSON(t *testing.T, awards []protocol.CustomerAward) []byte {
	t.Helper()
	b, err := json.Marshal(awards)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// memberAwardsJSON renders a distributed run's member awards in the same
// canonical shape as a flat run's award list.
func memberAwardsJSON(t *testing.T, awards map[string]message.Award) []byte {
	t.Helper()
	names := make([]string, 0, len(awards))
	for n := range awards {
		names = append(names, n)
	}
	// Match protocol.RTSession.Awards ordering (sorted by customer name).
	sort.Strings(names)
	out := make([]protocol.CustomerAward, 0, len(names))
	for _, n := range names {
		out = append(out, protocol.CustomerAward{Customer: n, Award: awards[n]})
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDistributedByteIdenticalAwards is the acceptance gate for the
// distributed tier: the seeded paper scenario negotiated across 4
// concentrators — each behind its own pair of TCP connections — must
// produce awards byte-identical to the flat in-process run.
func TestDistributedByteIdenticalAwards(t *testing.T) {
	flat, err := core.Run(paperScenario(t))
	if err != nil {
		t.Fatal(err)
	}
	flatJSON := awardsJSON(t, flat.Awards)

	res, err := RunDistributed(DistributedConfig{Scenario: paperScenario(t), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.AgentErrors {
		t.Errorf("agent error: %v", e)
	}
	if res.Outcome != flat.Outcome || res.Rounds != flat.Rounds {
		t.Fatalf("outcome %q in %d rounds, flat %q in %d", res.Outcome, res.Rounds, flat.Outcome, flat.Rounds)
	}
	distJSON := memberAwardsJSON(t, res.MemberAwards)
	if string(distJSON) != string(flatJSON) {
		t.Fatalf("awards differ:\ndistributed %s\nflat        %s", distJSON, flatJSON)
	}

	// The tier really ran over TCP: 4 concentrator connections on each
	// server, with envelope frames flowing both ways.
	if res.RootWire.Hellos != 4 {
		t.Fatalf("root server handshakes = %d, want 4", res.RootWire.Hellos)
	}
	if res.MemberWire.Hellos != 4 {
		t.Fatalf("member server handshakes = %d, want 4", res.MemberWire.Hellos)
	}
	for _, ws := range []bus.WireStats{res.RootWire, res.MemberWire} {
		if ws.FramesIn == 0 || ws.FramesOut == 0 {
			t.Fatalf("no frames crossed the wire: %+v", ws)
		}
		if ws.Malformed != 0 || ws.Rejected != 0 {
			t.Fatalf("transport errors: %+v", ws)
		}
	}
}

// TestDistributedDeterministic runs the distributed negotiation twice and
// expects bitwise-equal award sets — the reproducibility the sorted float
// summation fix buys.
func TestDistributedDeterministic(t *testing.T) {
	run := func() []byte {
		res, err := RunDistributed(DistributedConfig{Scenario: paperScenario(t), Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return memberAwardsJSON(t, res.MemberAwards)
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("two distributed runs differ:\n%s\nvs\n%s", a, b)
	}
}

// TestDistributedRejectsLossyScenario documents the lossless contract.
func TestDistributedRejectsLossyScenario(t *testing.T) {
	s := paperScenario(t)
	s.DropRate = 0.1
	s.RoundTimeout = 50 * time.Millisecond
	if _, err := RunDistributed(DistributedConfig{Scenario: s}); err == nil {
		t.Fatal("lossy scenario should be rejected")
	}
}

// TestRunWorker hosts one shard's concentrator through the worker entry
// point (the cmd/gridd -role concentrator path) against in-test servers,
// while the remaining shards run through DialTier.
func TestRunWorker(t *testing.T) {
	s := paperScenario(t)
	topo, err := NewTopology(s.Loads(), 3)
	if err != nil {
		t.Fatal(err)
	}

	memberBus, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer memberBus.Close()
	memberSrv, err := bus.ListenAndServe("127.0.0.1:0", memberBus)
	if err != nil {
		t.Fatal(err)
	}
	defer memberSrv.Close()
	rootBus, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rootBus.Close()
	rootSrv, err := bus.ListenAndServe("127.0.0.1:0", rootBus)
	if err != nil {
		t.Fatal(err)
	}
	defer rootSrv.Close()

	// The shard's members must exist on the member bus for the relay's
	// targeted sends to land; dummy mailboxes are enough.
	for _, name := range topo.Members(0) {
		if _, err := memberBus.Register(name, 16); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- RunWorker(ctx, WorkerConfig{
			UpAddr:   rootSrv.Addr(),
			DownAddr: memberSrv.Addr(),
			Concentrator: ConcentratorConfig{
				Name:      topo.ConcentratorName(0),
				SessionID: s.SessionID,
				Members:   topo.Shard(0),
			},
		})
	}()

	// Wait for the worker's upward connection to register, then hand it a
	// session end so it unwinds; its members are silent, which is fine — the
	// worker only needs the relay to complete.
	deadline := time.After(5 * time.Second)
	for len(rootBus.Agents()) < 1 {
		select {
		case <-deadline:
			t.Fatalf("worker never registered upward: %v", rootBus.Agents())
		case <-time.After(5 * time.Millisecond):
		}
	}
	end, err := message.NewEnvelope("ua", topo.ConcentratorName(0), s.SessionID, message.SessionEnd{Round: 1, Reason: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if err := rootBus.Send(end); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-workerErr:
		if err != nil {
			t.Fatalf("worker: %v", err)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("worker never finished")
	}
}

// raceBuild is set in a -race build (race_test.go).
var raceBuild bool

// TestRunDistributedAllocationBudget holds a whole negotiation over the TCP
// tier — 34 dials, every table, bid, award and session end through the frame
// codec, tear-down — to 21.9 allocations per customer at 256 customers in 16
// shards, 1.1× the measured 19.9, since a negotiation's bodies are decoded in
// the frame they land in and a Runtime on Remote sends its payload carried
// (24.8 while every body was copied out of its frame to be parsed after,
// which fails it; 31.8 before a session kept its customers in one sorted
// roster; 58 while every body off a wire went through encoding/json and
// every frame, read or written, had a buffer of its own; 68 while a customer made a session map and its first state apart from
// the Agent; 82 while every agent mirrored its response counters into two kb
// stores; 172 when a concentrator marshalled, framed and sent the
// announcement once per member and the member server parsed each copy).
// Under -race the budget is 26.5, 1.1× the measured 24.1: the race
// detector's sync.Pool drops pooled encoders, which every carried payload a
// connection writes reaches for (29.0 before). It is the unit
// `go run ./bench -workload tcp_256` reports as allocs_per_unit.
func TestRunDistributedAllocationBudget(t *testing.T) {
	const n = 256
	budget := 21.9
	if raceBuild {
		budget = 26.5
	}
	s, err := core.SyntheticScenario(core.SyntheticConfig{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	perRun := testing.AllocsPerRun(3, func() {
		if res, err := RunDistributed(DistributedConfig{Scenario: s, Shards: 16}); err != nil || res.Rounds == 0 || len(res.AgentErrors) != 0 {
			t.Errorf("RunDistributed = %+v, %v", res, err)
		}
	})
	if got := perRun / n; got > budget {
		t.Fatalf("a %d-customer session over TCP allocates %.1f times per customer, budget %.1f", n, got, budget)
	} else {
		t.Logf("%.1f allocations per customer", got)
	}
}

// TestDistributedJournalsTheInProcessRecord: one session engine journals
// whatever carries the tree, so RunDistributed with a Journal writes the
// session record cluster.Run writes for the same Config, byte for byte.
func TestDistributedJournalsTheInProcessRecord(t *testing.T) {
	synthetic, err := core.SyntheticScenario(core.SyntheticConfig{N: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		scenario core.Scenario
		shards   int
	}{
		{"paper/4", paperScenario(t), 4},
		{"synthetic-256/16", synthetic, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			journaled := func(run func(Config) error) []byte {
				dir := t.TempDir()
				st, _, err := store.Open(dir, store.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := run(Config{Scenario: tc.scenario, Shards: tc.shards, Journal: st, JournalConfig: tc.name}); err != nil {
					t.Fatal(err)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				rec, err := store.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(rec.Records) != 1 || rec.Records[0].Kind != store.KindSession {
					t.Fatalf("journal holds %d records, want 1 session record", len(rec.Records))
				}
				if out, err := store.DecodeSession(rec.Records[0]); err != nil || len(out.Awards) == 0 {
					t.Fatalf("session record %+v, %v: want awards", out, err)
				}
				return rec.Records[0].Body
			}
			inProcess := journaled(func(cfg Config) error { _, err := Run(cfg); return err })
			overTCP := journaled(func(cfg Config) error { _, err := RunDistributed(cfg); return err })
			if !bytes.Equal(overTCP, inProcess) {
				t.Fatalf("session records differ:\nRunDistributed %s\nRun            %s", overTCP, inProcess)
			}
		})
	}
}

// TestDialInFlatMatchesRun is a differential test of the engine's two flat
// entry points: a fleet hosted on a member bus and negotiated through
// RunDialIn with one shard and no root — the Utility Agent facing the
// customers over a bus it did not build — reaches what core.Run reaches on
// its own bus: the same awards, final bids, rounds and outcome.
func TestDialInFlatMatchesRun(t *testing.T) {
	synthetic, err := core.SyntheticScenario(core.SyntheticConfig{N: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		s    core.Scenario
	}{{"paper", paperScenario(t)}, {"synthetic-256", synthetic}} {
		t.Run(tc.name, func(t *testing.T) {
			flat, err := core.Run(tc.s)
			if err != nil {
				t.Fatal(err)
			}
			member, err := bus.NewInProc(bus.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer member.Close()
			_, fleet, err := core.HostCustomers(member, tc.s.Customers)
			if err != nil {
				t.Fatal(err)
			}
			defer fleet.Stop()
			res, err := RunDialIn(context.Background(), Config{Scenario: tc.s, Shards: 1}, member, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome != flat.Outcome || res.Rounds != flat.Rounds {
				t.Fatalf("outcome %q in %d rounds, core.Run %q in %d", res.Outcome, res.Rounds, flat.Outcome, flat.Rounds)
			}
			if got, want := awardsJSON(t, res.Awards), awardsJSON(t, flat.Awards); !bytes.Equal(got, want) {
				t.Fatalf("awards differ:\nRunDialIn %s\ncore.Run  %s", got, want)
			}
			if !maps.Equal(res.FinalBids, flat.FinalBids) {
				t.Fatalf("final bids differ:\nRunDialIn %v\ncore.Run  %v", res.FinalBids, flat.FinalBids)
			}
		})
	}
}

// TestDialInAbortsAnIncompleteRoster: a roster still incomplete at the
// scenario's timeout ends on the engine's one error path — ErrTimeout, an
// aborting session end to whoever did dial in, and an aborted record.
func TestDialInAbortsAnIncompleteRoster(t *testing.T) {
	s := paperScenario(t)
	s.Timeout = 50 * time.Millisecond
	member, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer member.Close()
	inbox, err := member.Register(s.Customers[0].Name, 4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := RunDialIn(context.Background(), Config{Scenario: s, Shards: 1, Journal: st}, member, nil)
	if !errors.Is(runErr, core.ErrTimeout) {
		t.Fatalf("RunDialIn with 1 of %d customers = %v, want ErrTimeout", len(s.Customers), runErr)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	env := <-inbox
	if p, err := env.Decode(); err != nil || !strings.HasPrefix(p.(message.SessionEnd).Reason, "aborted: ") {
		t.Fatalf("the customer that dialed in got %+v, %v; want an aborting session end", p, err)
	}
	rec, err := store.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 || rec.Records[0].Kind != store.KindAborted {
		t.Fatalf("journal holds %d records, want 1 aborted record", len(rec.Records))
	}
	if info, err := store.DecodeAbort(rec.Records[0]); err != nil || info.SessionID != s.SessionID || info.Reason != runErr.Error() {
		t.Fatalf("aborted record %+v, %v; want session %s, reason %q", info, err, s.SessionID, runErr)
	}
}

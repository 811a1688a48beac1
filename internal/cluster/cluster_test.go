package cluster

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loadbalance/internal/bus"
	"loadbalance/internal/core"
	"loadbalance/internal/message"
	"loadbalance/internal/protocol"
	"loadbalance/internal/store"
	"loadbalance/internal/trace"
	"loadbalance/internal/utilityagent"
)

// paperScenario fetches the seeded Figures 6-9 scenario.
func paperScenario(t *testing.T) core.Scenario {
	t.Helper()
	s, err := core.PaperScenario()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFlatVsShardedEquivalence is the acceptance gate: the seeded paper
// scenario negotiated flat and through 2-level concentrator trees of several
// widths reaches the same terminal outcome in the same number of rounds, with
// the aggregate predicted overuse matching within float tolerance.
func TestFlatVsShardedEquivalence(t *testing.T) {
	flat, err := core.Run(paperScenario(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3, 5} {
		res, err := Run(Config{Scenario: paperScenario(t), Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for _, e := range res.AgentErrors {
			t.Errorf("shards=%d: agent error: %v", shards, e)
		}
		if res.Outcome != flat.Outcome {
			t.Fatalf("shards=%d: outcome %q, flat %q", shards, res.Outcome, flat.Outcome)
		}
		if res.Rounds != flat.Rounds {
			t.Fatalf("shards=%d: rounds %d, flat %d", shards, res.Rounds, flat.Rounds)
		}
		if d := math.Abs(res.FinalOveruseKWh - flat.FinalOveruseKWh); d > 1e-6 {
			t.Fatalf("shards=%d: final overuse %v, flat %v (Δ %v)", shards, res.FinalOveruseKWh, flat.FinalOveruseKWh, d)
		}
		if d := math.Abs(res.InitialOveruseKWh - flat.InitialOveruseKWh); d > 1e-6 {
			t.Fatalf("shards=%d: initial overuse %v, flat %v", shards, res.InitialOveruseKWh, flat.InitialOveruseKWh)
		}
		// Every customer's final commitment must match its flat bid: the
		// concentrators forward the identical tables, so the identical
		// deciders make the identical choices.
		for name, bid := range flat.FinalBids {
			if got := res.FinalBids[name]; got != bid {
				t.Fatalf("shards=%d: %s final bid %v, flat %v", shards, name, got, bid)
			}
		}
		// The root sees K concentrators, so its announcements fan out K
		// envelopes per round instead of N.
		if shards < len(paperScenario(t).Customers) && res.ParentBus.Sent >= flat.Bus.Sent {
			t.Fatalf("shards=%d: parent traffic %d not below flat %d", shards, res.ParentBus.Sent, flat.Bus.Sent)
		}
	}
}

// TestFullQuorumNeverFillsAnInbox is core's guard of the same name through the
// tree: no delivery on the root bus or on any shard bus is Rejected, so no
// hosted customer was ever more than its four-envelope inbox behind — and,
// the scenario listing its customers in the reverse of the Topology's order,
// every customer was hosted on the bus its concentrator fans out on.
func TestFullQuorumNeverFillsAnInbox(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s, err := core.SyntheticScenario(core.SyntheticConfig{N: 256, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			slices.Reverse(s.Customers)
			res, err := Run(Config{Scenario: s, Shards: 16})
			if err != nil || res.Rounds == 0 || len(res.AgentErrors) != 0 {
				t.Fatalf("Run = %+v, %v", res, err)
			}
			if len(res.FinalBids) != len(s.Customers) {
				t.Fatalf("%d of %d customers hosted", len(res.FinalBids), len(s.Customers))
			}
			if res.ParentBus.Rejected != 0 {
				t.Fatalf("root bus rejected %d deliveries", res.ParentBus.Rejected)
			}
			for i, b := range res.ShardBuses {
				if b.Rejected != 0 {
					t.Fatalf("shard %d bus rejected %d deliveries of %d sent", i, b.Rejected, b.Sent)
				}
			}
		})
	}
}

// TestRunMakesNoInboxChannel: the Utility Agent and both sides of every
// concentrator queue on their fleet-of-one rings, which hold what is waiting,
// and a TCP connection's name hands its envelopes straight to the
// connection's outbound queue, so a 4-shard N = 256 session has the bus make
// no inbox channel at all — in process, where the root's had room for 64
// envelopes and each concentrator two of 256 (core.FanInInbox), or over TCP,
// where each of the 8 concentrator connections had one of 64. Every
// allocation of the run is profiled.
func TestRunMakesNoInboxChannel(t *testing.T) {
	s, err := core.SyntheticScenario(core.SyntheticConfig{N: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scenario: s, Shards: 4}
	layouts := map[string]func() (*Result, error){
		"Run": func() (*Result, error) { return Run(cfg) },
		"RunDistributed": func() (*Result, error) {
			res, err := RunDistributed(cfg)
			if err != nil {
				return nil, err
			}
			return &res.Result, nil
		},
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	for name, run := range layouts {
		before := inboxAllocs()
		if res, err := run(); err != nil || res.Rounds == 0 {
			t.Fatalf("%s = %+v, %v", name, res, err)
		}
		for stack, after := range inboxAllocs() {
			if made := after.AllocObjects - before[stack].AllocObjects; made > 0 {
				t.Errorf("%s: %d allocations of %d B by an inbox channel's registration at\n%s",
					name, made, after.AllocBytes-before[stack].AllocBytes, frames(stack))
			}
		}
	}
}

// inboxAllocs is what the heap profile has recorded allocated by
// bus.InProc.Register — an inbox channel and its buffer — by call stack.
func inboxAllocs() map[[32]uintptr]runtime.MemProfileRecord {
	runtime.GC() // a profile is published two cycles after its allocations
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n, ok := runtime.MemProfile(nil, true); !ok; {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
		recs = recs[:min(n, len(recs))]
	}
	out := make(map[[32]uintptr]runtime.MemProfileRecord)
	for _, r := range recs {
		if strings.Contains(frames(r.Stack0), "bus.(*InProc).Register\n") {
			out[r.Stack0] = r
		}
	}
	return out
}

// frames names the functions of a profiled stack, one a line.
func frames(stack [32]uintptr) string {
	var b strings.Builder
	r := runtime.MemProfileRecord{Stack0: stack}
	fs := runtime.CallersFrames(r.Stack())
	for f, more := fs.Next(); ; f, more = fs.Next() {
		b.WriteString(f.Function + "\n")
		if !more {
			return b.String()
		}
	}
}

// TestShardedAwardsMatchFlat checks the concentrators pay members exactly
// what the flat Utility Agent would have paid them.
func TestShardedAwardsMatchFlat(t *testing.T) {
	flat, err := core.Run(paperScenario(t))
	if err != nil {
		t.Fatal(err)
	}
	flatRewards := make(map[string]float64, len(flat.Awards))
	for _, aw := range flat.Awards {
		flatRewards[aw.Customer] = aw.Award.Reward
	}
	res, err := Run(Config{Scenario: paperScenario(t), Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalBids) != len(flatRewards) {
		t.Fatalf("customers = %d, want %d", len(res.FinalBids), len(flatRewards))
	}
	// Member awards are delivered to the customer agents; FinalBids carries
	// the commitments the rewards were computed from.
	for name, bid := range res.FinalBids {
		if bid != flat.FinalBids[name] {
			t.Fatalf("%s: bid %v, flat %v", name, bid, flat.FinalBids[name])
		}
	}
}

// TestEmptyShard runs more shards than customers: the surplus concentrators
// front empty shards and must answer 0 upward without stalling the session.
func TestEmptyShard(t *testing.T) {
	s := paperScenario(t)
	s.Customers = s.Customers[:3]
	s.NormalUse = 30 // keep the paper's ≈35% overuse for the 3×13.5 kWh fleet
	res, err := Run(Config{Scenario: s, Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 5 {
		t.Fatalf("shards = %d", res.Shards)
	}
	if res.Outcome == "" || res.Rounds == 0 {
		t.Fatalf("no negotiation ran: %+v", res.Result)
	}
}

// TestSingleCustomerShards runs one customer per shard: the effective
// cut-down of a singleton shard reproduces (or dominates, when the cap does
// not bind) the member's own bid, and the outcome still matches flat.
func TestSingleCustomerShards(t *testing.T) {
	flat, err := core.Run(paperScenario(t))
	if err != nil {
		t.Fatal(err)
	}
	s := paperScenario(t)
	res, err := Run(Config{Scenario: s, Shards: len(s.Customers)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != flat.Outcome || res.Rounds != flat.Rounds {
		t.Fatalf("outcome %q in %d rounds, flat %q in %d", res.Outcome, res.Rounds, flat.Outcome, flat.Rounds)
	}
	if d := math.Abs(res.FinalOveruseKWh - flat.FinalOveruseKWh); d > 1e-6 {
		t.Fatalf("final overuse %v, flat %v", res.FinalOveruseKWh, flat.FinalOveruseKWh)
	}
}

// TestLossyShards injects message loss on the shard buses: the concentrators'
// round timeouts implement the "acceptable number of bids" rule, so the
// negotiation must still terminate with a terminal outcome.
func TestLossyShards(t *testing.T) {
	s := paperScenario(t)
	s.DropRate = 0.15
	s.Seed = 7
	s.RoundTimeout = 50 * time.Millisecond
	s.Timeout = 60 * time.Second
	res, err := Run(Config{
		Scenario: s,
		Shards:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	switch res.Outcome {
	case protocol.OutcomeConverged.String(), protocol.OutcomeCeiling.String(), protocol.OutcomeMaxRounds.String():
	default:
		t.Fatalf("non-terminal outcome %q", res.Outcome)
	}
	dropped := 0
	for _, b := range res.ShardBuses {
		dropped += b.Dropped
	}
	if dropped == 0 {
		t.Fatal("expected injected loss on the shard buses")
	}
}

// TestLossySessionDoesNotWaitOutADrain is core's test of the same name
// through the tree: the session is over when every concentrator has relayed
// the session end and every shard's fleet has handled what reached it. An
// award a lossy shard bus dropped used to keep Run polling for 200 ms.
func TestLossySessionDoesNotWaitOutADrain(t *testing.T) {
	s, err := core.SyntheticScenario(core.SyntheticConfig{N: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.DropRate = 0.2
	s.RoundTimeout = 20 * time.Millisecond
	res, err := Run(Config{Scenario: s, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, b := range res.ShardBuses {
		dropped += b.Dropped
	}
	if res.Rounds == 0 || dropped == 0 {
		t.Fatalf("not a lossy negotiation: %d rounds, %d dropped", res.Rounds, dropped)
	}
	t.Logf("%d rounds in %v", res.Rounds, res.Elapsed)
	if res.Elapsed >= 200*time.Millisecond {
		t.Fatalf("a lossy session of %d rounds with a %v round timeout took %v", res.Rounds, s.RoundTimeout, res.Elapsed)
	}
}

// TestRunAllocationBudget holds a whole in-process session of the
// sharded_10k workload's shape — 10 000 customers over 16 shards, set-up,
// every round through the tree, tear-down — to 1.25 times the measured 3.15
// allocations and 1 095 bytes per customer (the same under -race): what `go
// run ./bench -workload sharded_10k` reports as allocs_per_unit and
// alloc_bytes_per_unit. It read 6.16 and 1 213 B (8.43 and 1 350 B under
// -race) while every send marshalled its payload's JSON, which nothing in
// process read; 7.15 and 1 803 B while every fleet's queue doubled — a
// concentrator's from one slot to 1 024 for its 625 members' bids, a shard's
// member fleet from 625 slots to 1 250 for the awards and the session end's
// fan-out.
func TestRunAllocationBudget(t *testing.T) {
	const n, runs = 10000, 3
	const measuredAllocs, measuredBytes = 3.15, 1095.0
	s, err := core.SyntheticScenario(core.SyntheticConfig{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	perRun := testing.AllocsPerRun(runs, func() {
		if res, err := Run(Config{Scenario: s, Shards: 16}); err != nil || res.Rounds == 0 || len(res.AgentErrors) != 0 {
			t.Errorf("Run = %+v, %v", res, err)
		}
	})
	runtime.ReadMemStats(&after)
	allocs := perRun / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) / n
	t.Logf("%.2f allocations, %.0f bytes per customer", allocs, bytes)
	if budget := 1.25 * measuredAllocs; allocs > budget {
		t.Errorf("a %d-customer session over 16 shards allocates %.2f times per customer, budget %.2f", n, allocs, budget)
	}
	if budget := 1.25 * measuredBytes; bytes > budget {
		t.Errorf("a %d-customer session over 16 shards allocates %.0f bytes per customer, budget %.0f", n, bytes, budget)
	}
}

// TestHundredThousandCustomers is the scale the north star names: 100 000
// customers over 16 shards converge in two rounds with nothing rejected, on
// sixteen workers — the process never has more than a hundred goroutines,
// where it had one per customer.
func TestHundredThousandCustomers(t *testing.T) {
	if testing.Short() {
		t.Skip("N = 100 000")
	}
	s, err := core.SyntheticScenario(core.SyntheticConfig{N: 100000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var peak atomic.Int64
	sampled := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			peak.Store(max(peak.Load(), int64(runtime.NumGoroutine())))
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	res, err := Run(Config{Scenario: s, Shards: 16})
	close(stop)
	<-sampled
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d rounds in %v, peak %d goroutines", res.Rounds, res.Elapsed, peak.Load())
	if res.Rounds != 2 || res.Outcome != protocol.OutcomeConverged.String() || len(res.AgentErrors) != 0 {
		t.Fatalf("%d rounds, outcome %q, agent errors %v", res.Rounds, res.Outcome, res.AgentErrors)
	}
	if len(res.FinalBids) != len(s.Customers) {
		t.Fatalf("%d of %d customers hosted", len(res.FinalBids), len(s.Customers))
	}
	for i, b := range append([]bus.Stats{res.ParentBus}, res.ShardBuses...) {
		if b.Rejected != 0 {
			t.Fatalf("bus %d rejected %d deliveries of %d sent", i, b.Rejected, b.Sent)
		}
	}
	if peak.Load() > 100 {
		t.Fatalf("peak of %d goroutines for 16 shards, want at most 100", peak.Load())
	}
}

// TestSilentMembers puts silent customers in the shards: the shard timeouts
// (half the root's RoundTimeout) must fire inside the root's round window, so
// the live members' bids still count toward the root's balance prediction.
func TestSilentMembers(t *testing.T) {
	s := paperScenario(t)
	s.Customers[0].Silent = true
	s.Customers[5].Silent = true
	s.RoundTimeout = 100 * time.Millisecond
	s.Timeout = 60 * time.Second
	res, err := Run(Config{Scenario: s, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 {
		t.Fatal("negotiation never ran")
	}
	if _, ok := res.FinalBids[s.Customers[0].Name]; ok {
		t.Fatal("silent customer should have no recorded bid")
	}
	// The eight live customers concede; if the shards' forced answers were
	// arriving after the root closed its rounds, no bid would ever land and
	// the overuse would stay at its initial 35 kWh.
	if res.FinalOveruseKWh >= res.InitialOveruseKWh {
		t.Fatalf("live members' bids never reached the root: overuse %v → %v",
			res.InitialOveruseKWh, res.FinalOveruseKWh)
	}
}

// TestTopologyPartitions checks determinism, balance and aggregate sums.
func TestTopologyPartitions(t *testing.T) {
	loads := map[string]protocol.CustomerLoad{
		"a": {Predicted: 10, Allowed: 12},
		"b": {Predicted: 20, Allowed: 22},
		"c": {Predicted: 30, Allowed: 32},
		"d": {Predicted: 40, Allowed: 42},
		"e": {Predicted: 50, Allowed: 52},
	}
	topo, err := NewTopology(loads, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.Members(0); len(got) != 3 || got[0] != "a" {
		t.Fatalf("shard 0 = %v", got)
	}
	if got := topo.Members(1); len(got) != 2 || got[0] != "d" {
		t.Fatalf("shard 1 = %v", got)
	}
	agg := topo.AggregateLoads()
	if len(agg) != 2 {
		t.Fatalf("aggregates = %v", agg)
	}
	var pred float64
	for _, l := range agg {
		pred += l.Predicted.KWhs()
	}
	if pred != 150 {
		t.Fatalf("aggregate predicted = %v", pred)
	}
	if _, err := NewTopology(loads, 0); err == nil {
		t.Fatal("zero shards should fail")
	}
}

// shardSink keeps TestShardViewsAllocateNothing's results live.
var shardSink struct {
	shard   protocol.Roster
	members []string
}

// TestShardViewsAllocateNothing holds a shard to a view of the fleet's
// roster: Shard and Members copy nothing, and a view is clipped, so appending
// to one shard's members cannot overwrite the next shard's.
func TestShardViewsAllocateNothing(t *testing.T) {
	loads := make(map[string]protocol.CustomerLoad, 1000)
	for i := 0; i < 1000; i++ {
		loads[fmt.Sprintf("c%06d", i)] = protocol.CustomerLoad{Predicted: 13.5, Allowed: 13.5}
	}
	topo, err := NewTopology(loads, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { shardSink.shard = topo.Shard(3) }); a != 0 {
		t.Errorf("Shard allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { shardSink.members = topo.Members(3) }); a != 0 {
		t.Errorf("Members allocates %v times, want 0", a)
	}
	next := topo.Members(4)[0]
	_ = append(topo.Members(3), "intruder")
	if got := topo.Members(4)[0]; got != next {
		t.Fatalf("appending to shard 3's members overwrote shard 4's first member: %q", got)
	}
}

// TestConcentratorLookupBoundaries probes the shard roster's binary search: a
// bid from a name sorting before the first member, between two members, after
// the last, a member's prefix extended, or the empty name is from outside the
// shard.
func TestConcentratorLookupBoundaries(t *testing.T) {
	c, err := NewConcentrator(ConcentratorConfig{Name: "cc-000", SessionID: "s1", Members: protocol.NewRoster(map[string]protocol.CustomerLoad{"b": {}, "d": {}, "f": {}})})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "c", "e", "g", "", "bb", "d\x00"} {
		if err := c.recordMemberBid(trace.Context{}, name, message.CutDownBid{Round: 1, CutDown: 0.2}); !errors.Is(err, protocol.ErrUnknownCustomer) {
			t.Errorf("bid from %q: %v, want ErrUnknownCustomer", name, err)
		}
	}
	if c.nheard != 0 || slices.Contains(c.responded, true) {
		t.Fatalf("a rejected bid was recorded: heard %d, responded %v", c.nheard, c.responded)
	}
}

// TestConcentratorConfigValidation covers the constructor's rejections.
func TestConcentratorConfigValidation(t *testing.T) {
	valid := ConcentratorConfig{Name: "cc", SessionID: "s"}
	if _, err := NewConcentrator(valid); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []ConcentratorConfig{
		{SessionID: "s"},
		{Name: "cc"},
		{Name: "cc", SessionID: "s", MinResponses: 1},
		{Name: "cc", SessionID: "s", Members: protocol.NewRoster(map[string]protocol.CustomerLoad{"cc": {}})},
	} {
		if _, err := NewConcentrator(cfg); err == nil {
			t.Fatalf("config %+v should fail", cfg)
		}
	}
}

// TestRunRejectsNonRewardTableMethods documents the cluster's scope.
func TestRunRejectsNonRewardTableMethods(t *testing.T) {
	s := paperScenario(t)
	s.Method = utilityagent.MethodOffer
	if _, err := Run(Config{Scenario: s, Shards: 2}); err == nil {
		t.Fatal("offer method through a cluster should fail")
	}
}

// TestShardQuorum checks the proportional scaling rounds up.
func TestShardQuorum(t *testing.T) {
	tests := []struct {
		fleetMin, fleetSize, shardSize, want int
	}{
		{0, 10, 5, 0},
		{10, 10, 5, 5},
		{5, 10, 4, 2},
		{1, 10, 3, 1},
		{9, 10, 1, 1},
		{3, 9, 0, 0},
	}
	for _, tt := range tests {
		if got := shardQuorum(tt.fleetMin, tt.fleetSize, tt.shardSize); got != tt.want {
			t.Fatalf("shardQuorum(%d,%d,%d) = %d, want %d", tt.fleetMin, tt.fleetSize, tt.shardSize, got, tt.want)
		}
	}
}

// TestRunJournalsOutcome checks the engine's decision-point journaling: a
// run with a Journal leaves a durable session record carrying every member's
// final bid and delivered award.
func TestRunJournalsOutcome(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Scenario: paperScenario(t), Shards: 2, Journal: st})
	if err != nil {
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
	out, err := store.DecodeSession(rec.Records[0])
	if err != nil {
		t.Fatal(err)
	}
	if out.Outcome != res.Outcome || out.Rounds != res.Rounds {
		t.Fatalf("journaled outcome %q/%d, run said %q/%d", out.Outcome, out.Rounds, res.Outcome, res.Rounds)
	}
	if len(out.Bids) != len(res.FinalBids) {
		t.Fatalf("journaled %d bids, run had %d", len(out.Bids), len(res.FinalBids))
	}
	for name, bid := range res.FinalBids {
		if out.Bids[name] != bid {
			t.Fatalf("bid %q: journal %v, run %v", name, out.Bids[name], bid)
		}
	}
	if len(out.Awards) == 0 {
		t.Fatal("no awards journaled")
	}
}

// gatedBus is a shard bus whose session-end deliveries wait for the test.
type gatedBus struct {
	bus.Bus
	entered chan struct{} // receives once per session-end Send, on entry
	release chan struct{} // closed to let them through
}

func (g gatedBus) Send(env message.Envelope) error {
	if env.Kind == message.KindSessionEnd {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.Bus.Send(env)
}

// registerHookBus runs a hook around each registration on the wrapped bus.
type registerHookBus struct {
	bus.Bus
	registered func() // runs after the registration, before Register returns
}

func (b registerHookBus) Register(name string, size int) (<-chan message.Envelope, error) {
	box, err := b.Bus.Register(name, size)
	b.registered()
	return box, err
}

// TestEarlyAnnouncementWaitsForBothSides puts a session end into the
// concentrator's root-side inbox before Start has returned, with a shard bus
// that is slow to register — a gridd worker whose root announced while the
// worker was still dialing its shard. The root-side handler used to run with
// the shard-side runtime still nil and take the worker process down.
func TestEarlyAnnouncementWaitsForBothSides(t *testing.T) {
	parent, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	shard, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Close()
	box, err := shard.Register("c1", 4)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := NewConcentrator(ConcentratorConfig{Name: "cc-000", SessionID: "s1", Members: protocol.NewRoster(map[string]protocol.CustomerLoad{"c1": {}})})
	if err != nil {
		t.Fatal(err)
	}
	early := registerHookBus{Bus: parent, registered: func() {
		end, err := message.NewEnvelope("ua", "cc-000", "s1", message.SessionEnd{Round: 1, Reason: "test"})
		if err != nil {
			t.Error(err)
		} else if err := parent.Send(end); err != nil {
			t.Error(err)
		}
	}}
	slow := registerHookBus{Bus: shard, registered: func() { time.Sleep(20 * time.Millisecond) }}
	if err := cc.Start(early, slow, 16); err != nil {
		t.Fatal(err)
	}
	defer cc.Stop()
	select {
	case env := <-box:
		if env.Kind != message.KindSessionEnd {
			t.Fatalf("member received %s, want the session end", env.Kind)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the early session end never reached the member")
	}
}

// TestDoneOnlyAfterSessionEndRelayed blocks the shard bus inside the
// session-end fan-out: Done must stay false (Relayed open) until the relay has
// returned. Run and RunWorker tear the tier down on it, and when it turned
// true on receipt of the session end they could do so with a shard's session
// ends still unsent.
func TestDoneOnlyAfterSessionEndRelayed(t *testing.T) {
	parent, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	shard, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Close()
	members := map[string]protocol.CustomerLoad{"c1": {}, "c2": {}, "c3": {}}
	boxes := make(map[string]<-chan message.Envelope)
	for name := range members {
		if boxes[name], err = shard.Register(name, 4); err != nil {
			t.Fatal(err)
		}
	}
	cc, err := NewConcentrator(ConcentratorConfig{Name: "cc-000", SessionID: "s1", Members: protocol.NewRoster(members)})
	if err != nil {
		t.Fatal(err)
	}
	gate := gatedBus{Bus: shard, entered: make(chan struct{}, len(members)), release: make(chan struct{})}
	if err := cc.Start(parent, gate, 16); err != nil {
		t.Fatal(err)
	}
	defer cc.Stop()
	release := sync.OnceFunc(func() { close(gate.release) })
	defer release() // a failing test must still let the runtime out of the bus

	end, err := message.NewEnvelope("ua", "cc-000", "s1", message.SessionEnd{Round: 1, Reason: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.Send(end); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the session end never reached the shard bus")
	}
	if cc.Done() {
		t.Fatal("Done() is true while the session-end fan-out is still inside the shard bus")
	}
	release()
	select {
	case <-cc.Relayed():
	case <-time.After(5 * time.Second):
		t.Fatal("Relayed() never closed after the fan-out was released")
	}
	if !cc.Done() {
		t.Fatal("Done() is false with Relayed() closed")
	}
	for name, box := range boxes {
		if len(box) != 1 {
			t.Fatalf("Done() is true but %s holds %d session ends", name, len(box))
		}
	}
}

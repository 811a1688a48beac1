// Package cluster scales the paper's single Utility-Agent ↔ N Customer-Agent
// negotiation to large fleets by interposing an aggregation tier: a
// hierarchical negotiation tree in which each Concentrator Agent fronts a
// shard of Customer Agents. The root Utility Agent announces reward tables to
// K concentrators instead of N customers; each concentrator fans the
// announcement out to its shard, collects the shard's bids concurrently on
// its own bus, and answers upward with one aggregated bid. Per-round work at
// the root drops from O(N) to O(K), shards negotiate in parallel, and —
// because predicted use, savable load and allowance are additive across
// customers — the root's balance prediction, reward-table updates and the
// paper's convergence conditions (1) and (2) are preserved exactly.
//
// The aggregated bid is continuous (a capacity-weighted effective cut-down),
// so the root session runs with protocol.Params.ContinuousBids: bids may land
// between grid levels and rewards interpolate linearly. Customers themselves
// still bid grid levels against the very same tables they would see flat, so
// a seeded scenario negotiated flat and negotiated through the tree reaches
// the same terminal outcome with the same aggregate predicted overuse (up to
// floating-point rounding).
//
// Run and RunDistributed are one session engine over two layouts of the tree:
// in-process buses, or tiers joined by loopback TCP.
package cluster

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	agentrt "loadbalance/internal/agent"
	"loadbalance/internal/bus"
	"loadbalance/internal/core"
	"loadbalance/internal/customeragent"
	"loadbalance/internal/store"
	"loadbalance/internal/trace"
	"loadbalance/internal/utilityagent"
)

// Config parameterises a hierarchical negotiation run, in process (Run) or
// over TCP (RunDistributed).
type Config struct {
	// Scenario is the flat scenario to negotiate through the tree. Only the
	// reward-table method is supported (the prototype's method; the offer
	// and request-for-bids methods have no additive aggregate). A lossy
	// scenario or one with silent customers needs a RoundTimeout, like the
	// flat engine's; each concentrator closes its shard round after half of
	// it, so a forced shard answer still reaches the root inside the root's
	// round window.
	Scenario core.Scenario
	// Shards is the number of concentrators (default 4).
	Shards int
	// Journal optionally records the negotiation's terminal outcome — the
	// per-member bids and awards — as a durable session record before Run
	// returns, making a long scenario run resumable from its data dir.
	Journal *store.Store
	// JournalConfig fingerprints the parameters this run executes under;
	// it is copied into the session record so a resume can refuse an
	// outcome computed under different parameters.
	JournalConfig string
	// TraceParent links the session's root span under an enclosing trace
	// (a live tick's renegotiation decision); invalid starts a new trace.
	TraceParent trace.Context
}

// Result is the outcome of one hierarchical negotiation run.
type Result struct {
	utilityagent.Result
	// Shards is the concentrator count used.
	Shards int
	// ParentBus holds the root-tier transport counters.
	ParentBus bus.Stats
	// ShardBuses holds each shard bus's counters.
	ShardBuses []bus.Stats
	// FinalBids maps each non-silent customer to its last cut-down bid.
	FinalBids map[string]float64
	// Elapsed is the wall time of the run.
	Elapsed time.Duration
	// AgentErrors collects handler errors from every runtime.
	AgentErrors []error
}

// Messages sums the traffic across both tiers.
func (r *Result) Messages() int {
	total := r.ParentBus.Sent
	for _, s := range r.ShardBuses {
		total += s.Sent
	}
	return total
}

// Run executes a scenario through a 2-level concentrator tree: a root bus
// carrying the Utility Agent and K concentrators, and K independent
// in-process shard buses each carrying one concentrator and its customers.
func Run(cfg Config) (*Result, error) {
	res, err := negotiate(cfg, inProcess)
	if res == nil {
		return nil, err
	}
	return &res.Result, err
}

// tree is one session's running parts, as a layout placed them.
type tree struct {
	root    bus.Bus // the Utility Agent's bus
	tier    *Tier
	fleets  []*agentrt.Fleet
	cas     map[string]*customeragent.Agent
	closers []func()                 // the layout's buses and servers, closed in reverse after the agents stop
	settle  func()                   // if set, waits (bounded) for what the tier relayed to reach the fleet's bus
	report  func(*DistributedResult) // copies the transport's counters while everything is up
}

func (t *tree) stop() {
	if t.tier != nil {
		t.tier.Stop()
	}
	for _, f := range t.fleets {
		f.Stop()
	}
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

// A layout places a session's tiers — the one step Run and RunDistributed
// take differently: it builds the buses into t, hosts the fleet and starts the
// tier under tc, registering whatever it opened in t.closers even when it
// fails halfway.
type layout func(t *tree, s core.Scenario, topo Topology, tc TierConfig) error

// negotiate is the session engine: validation, defaults, the topology, the
// tier and the Utility Agent, the stall timer, the relay, the fleet's
// quiescence, the result and the journal. Where the buses live is place's.
func negotiate(cfg Config, place layout) (*DistributedResult, error) {
	s := cfg.Scenario
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Method != utilityagent.MethodRewardTable {
		return nil, fmt.Errorf("%w: cluster negotiation requires the reward-table method, got %v", ErrBadConfig, s.Method)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("%w: shard count %d", ErrBadConfig, cfg.Shards)
	}
	topo, err := NewTopology(s.Loads(), cfg.Shards)
	if err != nil {
		return nil, err
	}

	start := time.Now() //gridlint:allow walltime(wall-duration measurement for Result.Elapsed; never feeds negotiated state)
	var t tree
	defer t.stop()
	tc := TierConfig{SessionID: s.SessionID, FleetMinResponses: s.Params.MinResponses, RoundTimeout: s.RoundTimeout / 2}
	if err := place(&t, s, topo, tc); err != nil {
		return nil, err
	}
	// The root negotiates with the K concentrators over aggregated loads.
	ua, uaRT, err := core.StartUtilityAgent(t.root, RootConfig(s, topo, cfg.TraceParent))
	if err != nil {
		return nil, err
	}
	defer uaRT.Stop()

	timeout := s.RunTimeout()
	stalled := time.After(timeout) //gridlint:allow walltime(liveness timeout for a stalled fleet; fires only when the run already failed)
	var uaResult utilityagent.Result
	select {
	case uaResult = <-ua.Done():
	case <-stalled:
		return nil, fmt.Errorf("%w after %v", ErrTimeout, timeout)
	}

	// The awards and the session end are still on their way down the tree:
	// each concentrator hands its shard's awards and then the session end to
	// its downward bus, and what reaches the fleet's bus is then in the
	// fleet's queue. A below-warrant prediction ends without any
	// announcement, so there is nothing to relay.
	if len(uaResult.History) > 0 {
		if err := t.tier.awaitRelay(stalled); err != nil {
			return nil, fmt.Errorf("%w after %v", err, timeout)
		}
		if t.settle != nil {
			t.settle()
		}
	}
	for _, f := range t.fleets {
		f.Quiesce()
	}

	res := &DistributedResult{Result: Result{
		Result:    uaResult,
		Shards:    topo.Shards(),
		FinalBids: make(map[string]float64, len(t.cas)),
		Elapsed:   time.Since(start), //gridlint:allow walltime(wall-duration measurement for Result.Elapsed; never feeds negotiated state)
	}}
	for name, ca := range t.cas {
		res.FinalBids[name] = ca.LastBid(s.SessionID)
	}
	t.report(res)
	for _, f := range t.fleets {
		res.AgentErrors = append(res.AgentErrors, f.Errors()...)
	}
	res.AgentErrors = append(append(res.AgentErrors, uaRT.Errors()...), t.tier.Errors()...)
	if cfg.Journal != nil {
		if err := journalOutcome(cfg.Journal, s.SessionID, cfg.JournalConfig, &res.Result, t.cas); err != nil {
			return res, err
		}
	}
	return res, nil
}

// inProcess is Run's layout: a lossless root bus for the Utility Agent and
// the concentrators — the utility's own backbone — and one bus per shard
// carrying a concentrator and its members, the scenario's DropRate injected
// there as one seeded stream per shard.
func inProcess(t *tree, s core.Scenario, topo Topology, tc TierConfig) error {
	parent, err := bus.NewInProc(bus.Config{})
	if err != nil {
		return err
	}
	t.closers = append(t.closers, parent.Close)
	t.root = parent

	// Shard i hosts block i of the customers sorted by name — the Topology's
	// partition — as one fleet on a bus of its own.
	fleet := slices.Clone(s.Customers)
	slices.SortFunc(fleet, func(a, b core.CustomerSpec) int { return strings.Compare(a.Name, b.Name) })
	t.cas = make(map[string]*customeragent.Agent, len(fleet))
	var shards []*bus.InProc
	for i, members := range topo.shards {
		shardBus, err := bus.NewInProc(bus.Config{DropRate: s.DropRate, Seed: s.Seed + int64(i) + 1})
		if err != nil {
			return err
		}
		t.closers = append(t.closers, shardBus.Close)
		shards = append(shards, shardBus)
		agents, hosted, err := core.HostCustomers(shardBus, fleet[:len(members)])
		if err != nil {
			return err
		}
		fleet = fleet[len(members):]
		maps.Copy(t.cas, agents)
		t.fleets = append(t.fleets, hosted)
	}
	t.report = func(res *DistributedResult) {
		res.ParentBus = parent.Stats()
		for _, b := range shards {
			res.ShardBuses = append(res.ShardBuses, b.Stats())
		}
	}
	t.tier, err = StartTier(parent, func(i int) bus.Bus { return shards[i] }, topo, tc)
	return err
}

// journalOutcome appends the session's terminal record: every in-process
// member's final bid and delivered award. A journaling failure surfaces as
// the run's error — durable mode must never report success for an outcome
// that is not on disk.
func journalOutcome(j *store.Store, session, config string, res *Result, cas map[string]*customeragent.Agent) error {
	out := store.SessionOutcome{
		SessionID: session,
		Outcome:   res.Outcome,
		Rounds:    res.Rounds,
		Config:    config,
		Bids:      maps.Clone(res.FinalBids),
		Awards:    make(map[string]store.AwardEntry, len(cas)),
	}
	for name, ca := range cas {
		if award, ok := ca.AwardFor(session); ok {
			out.Awards[name] = store.AwardEntry{CutDown: award.CutDown, Reward: award.Reward}
		}
	}
	rec, err := store.NewSessionRecord(out)
	if err != nil {
		return err
	}
	if err := j.Append(rec); err != nil {
		return err
	}
	return j.Sync()
}

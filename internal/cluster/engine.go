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

// Config parameterises a hierarchical negotiation run.
type Config struct {
	// Scenario is the flat scenario to negotiate through the tree. Only the
	// reward-table method is supported (the prototype's method; the offer
	// and request-for-bids methods have no additive aggregate).
	Scenario core.Scenario
	// Shards is the number of concentrators (default 4).
	Shards int
	// ShardRoundTimeout closes a shard round without full quorum; it must
	// be comfortably shorter than the scenario's RoundTimeout so a forced
	// shard answer still reaches the root inside the root's round window
	// (defaults to half the scenario's RoundTimeout). Required, like the
	// flat engine's, whenever the scenario is lossy or has silent
	// customers.
	ShardRoundTimeout time.Duration
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
	if cfg.ShardRoundTimeout <= 0 {
		cfg.ShardRoundTimeout = s.RoundTimeout / 2
	}
	timeout := s.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}

	topo, err := NewTopology(s.Loads(), cfg.Shards)
	if err != nil {
		return nil, err
	}

	// The root tier is lossless: concentrator links model the utility's own
	// backbone, while the scenario's DropRate injects loss on the customer
	// links, one seeded stream per shard.
	parent, err := bus.NewInProc(bus.Config{})
	if err != nil {
		return nil, err
	}
	defer parent.Close()

	start := time.Now() //gridlint:allow walltime(wall-duration measurement for Result.Elapsed; never feeds negotiated state)

	var tier *Tier
	var fleets []*agentrt.Fleet
	var shardBuses []*bus.InProc
	defer func() {
		if tier != nil {
			tier.Stop()
		}
		for _, f := range fleets {
			f.Stop()
		}
		for _, b := range shardBuses {
			b.Close()
		}
	}()

	// Shard i hosts block i of the customers sorted by name — the Topology's
	// partition — as one fleet on a bus of its own.
	fleet := slices.Clone(s.Customers)
	slices.SortFunc(fleet, func(a, b core.CustomerSpec) int { return strings.Compare(a.Name, b.Name) })
	cas := make(map[string]*customeragent.Agent, len(fleet))
	for i, members := range topo.shards {
		shardBus, err := bus.NewInProc(bus.Config{DropRate: s.DropRate, Seed: s.Seed + int64(i) + 1})
		if err != nil {
			return nil, err
		}
		shardBuses = append(shardBuses, shardBus)
		agents, hosted, err := core.HostCustomers(shardBus, fleet[:len(members)])
		if err != nil {
			return nil, err
		}
		fleet = fleet[len(members):]
		maps.Copy(cas, agents)
		fleets = append(fleets, hosted)
	}

	tier, err = StartTier(parent, func(i int) bus.Bus { return shardBuses[i] }, topo, TierConfig{
		SessionID:         s.SessionID,
		FleetMinResponses: s.Params.MinResponses,
		RoundTimeout:      cfg.ShardRoundTimeout,
		InboxSize:         4 * max(topo.maxShardSize(), 16),
	})
	if err != nil {
		return nil, err
	}

	// The root negotiates with the K concentrators over aggregated loads.
	ua, err := utilityagent.New(utilityagent.Config{
		Name:         "ua",
		SessionID:    s.SessionID,
		Window:       s.Window,
		NormalUse:    s.NormalUse,
		Loads:        topo.AggregateLoads(),
		Method:       utilityagent.MethodRewardTable,
		Params:       RootParams(s.Params),
		LeadTime:     s.LeadTime,
		InitialSlope: s.InitialSlope,
		RoundTimeout: s.RoundTimeout,
		WarrantRatio: s.Params.AllowedOveruseRatio,
		TraceParent:  cfg.TraceParent,
	})
	if err != nil {
		return nil, err
	}
	uaRT, err := agentrt.Start("ua", parent, ua, 4*max(topo.Shards(), 16))
	if err != nil {
		return nil, err
	}
	defer uaRT.Stop()

	stalled := time.After(timeout) //gridlint:allow walltime(liveness timeout for a stalled fleet; fires only when the run already failed)
	var uaResult utilityagent.Result
	select {
	case uaResult = <-ua.Done():
	case <-stalled:
		return nil, fmt.Errorf("%w after %v", ErrTimeout, timeout)
	}

	// The awards and the session end are still on their way down the tree:
	// each concentrator hands its shard's awards and then the session end to
	// the shard bus, and what that bus did not lose is then in the shard
	// fleet's queue. A below-warrant prediction ends without any
	// announcement, so there is nothing to relay.
	if len(uaResult.History) > 0 {
		if err := tier.awaitRelay(stalled); err != nil {
			return nil, fmt.Errorf("%w after %v", err, timeout)
		}
	}
	for _, f := range fleets {
		f.Quiesce()
	}

	res := &Result{
		Result:    uaResult,
		Shards:    topo.Shards(),
		ParentBus: parent.Stats(),
		FinalBids: make(map[string]float64, len(cas)),
		Elapsed:   time.Since(start), //gridlint:allow walltime(wall-duration measurement for Result.Elapsed; never feeds negotiated state)
	}
	for name, ca := range cas {
		res.FinalBids[name] = ca.LastBid(s.SessionID)
	}
	for _, b := range shardBuses {
		res.ShardBuses = append(res.ShardBuses, b.Stats())
	}
	for _, f := range fleets {
		res.AgentErrors = append(res.AgentErrors, f.Errors()...)
	}
	res.AgentErrors = append(res.AgentErrors, uaRT.Errors()...)
	res.AgentErrors = append(res.AgentErrors, tier.Errors()...)
	if cfg.Journal != nil {
		if err := journalOutcome(cfg.Journal, s.SessionID, cfg.JournalConfig, res, cas); err != nil {
			return res, err
		}
	}
	return res, nil
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
		Bids:      make(map[string]float64, len(res.FinalBids)),
		Awards:    make(map[string]store.AwardEntry, len(cas)),
	}
	for name, bid := range res.FinalBids {
		out.Bids[name] = bid
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

// shardQuorum scales the fleet-level "acceptable number of bids" to one
// shard, rounding up so shards are never laxer than the flat session.
func shardQuorum(fleetMin, fleetSize, shardSize int) int {
	if fleetMin <= 0 || fleetSize <= 0 || shardSize == 0 {
		return 0
	}
	q := (fleetMin*shardSize + fleetSize - 1) / fleetSize
	if q > shardSize {
		q = shardSize
	}
	if q < 1 {
		q = 1
	}
	return q
}

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
// The package holds the tree — its Topology, Tier and Concentrator — and the
// tree's layouts; the session itself is core's engine (core.Negotiate). Run,
// RunDistributed and RunDialIn are three layouts: in-process buses; tiers
// joined by loopback TCP; or a fleet, and optionally its concentrators, that
// dials in over buses the caller serves.
package cluster

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"loadbalance/internal/bus"
	"loadbalance/internal/core"
	"loadbalance/internal/customeragent"
	"loadbalance/internal/store"
	"loadbalance/internal/trace"
	"loadbalance/internal/utilityagent"
)

// Config parameterises a hierarchical negotiation run: in process (Run), over
// loopback TCP (RunDistributed) or with a fleet that dials in (RunDialIn).
type Config struct {
	// Scenario is the flat scenario to negotiate through the tree. Only the
	// reward-table method is supported (the prototype's method; the offer
	// and request-for-bids methods have no additive aggregate). A lossy
	// scenario or one with silent customers needs a RoundTimeout, like the
	// flat run's; each concentrator closes its shard round after half of
	// it, so a forced shard answer still reaches the root inside the root's
	// round window.
	Scenario core.Scenario
	// Shards is the number of concentrators (default 4).
	Shards int
	// Journal optionally records the negotiation's terminal outcome — the
	// per-member bids and awards and the root's trace — as the engine's
	// durable session record before the run returns, making a long scenario
	// run resumable from its data dir; a session that ends without an outcome
	// is recorded as aborted.
	Journal *store.Store
	// JournalConfig fingerprints the parameters this run executes under;
	// it is copied into the session record so a resume can refuse an
	// outcome computed under different parameters.
	JournalConfig string
	// TraceParent links the session's root span under an enclosing trace
	// (a live tick's renegotiation decision); invalid starts a new trace.
	TraceParent trace.Context
}

// Result is the outcome of one hierarchical negotiation run: the engine's,
// whose Bus sums both tiers' counters and whose FinalBids map each member to
// its last cut-down bid — every non-silent customer, or each worker
// concentrator's aggregate when the root only sees those (RunDialIn with a
// root bus) — and each tier's own counters.
type Result struct {
	core.Result
	// Shards is the concentrator count used.
	Shards int
	// ParentBus holds the root-tier transport counters.
	ParentBus bus.Stats
	// ShardBuses holds each shard bus's counters.
	ShardBuses []bus.Stats
}

// Flat is the run as the engine reports every session, so flat and sharded
// renders compare fairly.
func (r *Result) Flat() *core.Result { return &r.Result }

// Run executes a scenario through a 2-level concentrator tree: a root bus
// carrying the Utility Agent and K concentrators, and K independent
// in-process shard buses each carrying one concentrator and its customers.
func Run(cfg Config) (*Result, error) {
	res, err := negotiate(context.Background(), cfg, true, inProcess)
	if res == nil {
		return nil, err
	}
	return &res.Result, err
}

// tree is one session's placement as a cluster layout builds it.
type tree struct {
	*core.Placement
	res  *DistributedResult // where the layout reports its tiers' counters
	s    core.Scenario
	topo Topology
}

// A layout places a tree's tiers: it builds the buses into t, finds or hosts
// the fleet and starts the tier (t.startTier), and has the engine report the
// tiers' counters into t.res.
type layout func(ctx context.Context, t *tree) error

// negotiate runs one session of a tree through the session engine
// (core.Negotiate). The topology, the root's configuration and the tier's
// rules are the tree's, and place lays them out; the session loop, its
// timeout, the error path and the journal are the engine's. The reward-table
// method is required where there is a tier (tiered).
func negotiate(ctx context.Context, cfg Config, tiered bool, place layout) (*DistributedResult, error) {
	s := cfg.Scenario
	if tiered && s.Method != utilityagent.MethodRewardTable {
		return nil, fmt.Errorf("%w: cluster negotiation requires the reward-table method, got %v", ErrBadConfig, s.Method)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("%w: shard count %d", ErrBadConfig, cfg.Shards)
	}
	res := &DistributedResult{}
	out, err := core.Negotiate(ctx, s, func(ctx context.Context, p *core.Placement) error {
		topo, err := Partition(s.Roster(), cfg.Shards)
		if err != nil {
			return err
		}
		res.Shards = topo.Shards()
		// The root negotiates with the K concentrators over aggregated loads,
		// or on a flat layout with the customers themselves.
		if tiered {
			p.UA = RootConfig(s, topo, cfg.TraceParent)
		} else {
			p.UA = s.UAConfig(s.Loads())
			p.UA.TraceParent = cfg.TraceParent
		}
		return place(ctx, &tree{p, res, s, topo})
	}, cfg.Journal, cfg.JournalConfig)
	if out == nil {
		return nil, err
	}
	res.Result.Result, res.Bus = *out, res.ParentBus
	for _, b := range res.ShardBuses {
		res.Bus.Sent += b.Sent
		res.Bus.Delivered += b.Delivered
		res.Bus.Dropped += b.Dropped
		res.Bus.Rejected += b.Rejected
	}
	return res, err
}

// startTier starts the tree's concentrators, upward-facing on parent and
// downward on shardBus(i) (StartTier), for the engine to wait on, read and
// stop: the session has settled once every concentrator relayed the session
// end, and a fleet the session does not host was awarded what they sent. A
// concentrator closes its shard round after half the root's round timeout.
func (t *tree) startTier(parent bus.Bus, shardBus func(int) bus.Bus) error {
	s := t.s
	tier, err := StartTier(parent, shardBus, t.topo, TierConfig{SessionID: s.SessionID, FleetMinResponses: s.Params.MinResponses, RoundTimeout: s.RoundTimeout / 2})
	if err != nil {
		return err
	}
	t.Stops, t.Errors = append(t.Stops, tier.Stop), append(t.Errors, tier.Errors)
	t.Settle, t.Awarded = append(t.Settle, tier.awaitRelay), tier.awarded
	return nil
}

// newBus opens an in-process bus for the session, closed with it.
func (t *tree) newBus(cfg bus.Config) (*bus.InProc, error) {
	b, err := bus.NewInProc(cfg)
	if err != nil {
		return nil, err
	}
	t.Stops = append(t.Stops, b.Close)
	return b, nil
}

// inProcess is Run's layout: a lossless root bus for the Utility Agent and
// the concentrators — the utility's own backbone — and one bus per shard
// carrying a concentrator and its members, the scenario's DropRate injected
// there as one seeded stream per shard.
func inProcess(_ context.Context, t *tree) error {
	parent, err := t.newBus(bus.Config{})
	if err != nil {
		return err
	}
	t.Bus = parent

	// Shard i hosts block i of the customers sorted by name — the Topology's
	// partition — as one fleet on a bus of its own.
	fleet := slices.Clone(t.s.Customers)
	slices.SortFunc(fleet, func(a, b core.CustomerSpec) int { return strings.Compare(a.Name, b.Name) })
	t.Agents = make(map[string]*customeragent.Agent, len(fleet))
	var shards []*bus.InProc
	for i := 0; i < t.topo.Shards(); i++ {
		shardBus, err := t.newBus(bus.Config{DropRate: t.s.DropRate, Seed: t.s.Seed + int64(i) + 1})
		if err != nil {
			return err
		}
		shards = append(shards, shardBus)
		size := t.topo.Shard(i).Len()
		if err := t.Host(shardBus, fleet[:size]); err != nil {
			return err
		}
		fleet = fleet[size:]
	}
	t.Report = func(*core.Result) {
		t.res.ParentBus = parent.Stats()
		for _, b := range shards {
			t.res.ShardBuses = append(t.res.ShardBuses, b.Stats())
		}
	}
	return t.startTier(parent, func(i int) bus.Bus { return shards[i] })
}

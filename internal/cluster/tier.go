package cluster

import (
	"context"
	"fmt"
	"time"

	"loadbalance/internal/bus"
	"loadbalance/internal/core"
	"loadbalance/internal/protocol"
	"loadbalance/internal/trace"
	"loadbalance/internal/utilityagent"
)

// TierConfig parameterises StartTier.
type TierConfig struct {
	// SessionID identifies the negotiation the tier relays.
	SessionID string
	// FleetMinResponses is the fleet-level "acceptable number of bids",
	// scaled proportionally (rounding up) to each shard; 0 means every
	// member.
	FleetMinResponses int
	// RoundTimeout is each concentrator's shard round timeout; it must be
	// comfortably shorter than the root's round timeout.
	RoundTimeout time.Duration
	// InboxSize sizes each concentrator's mailboxes; 0 — what every caller
	// outside bench/ passes — sizes them for the largest shard.
	InboxSize int
}

// Tier is a started concentrator tier fronting a fleet. Every in-process tier
// is built through it — the tree's layouts (Run: one bus per shard;
// RunDistributed: every shard on one TCP-bridged member bus; RunDialIn: every
// shard on the bus the dialed-in fleet hangs on) — so the root-tier contract
// (quorum scaling, concentrator naming, mailbox sizing, the root's
// configuration in RootParams and RootConfig) lives in exactly one place.
type Tier struct {
	Topology      Topology
	Concentrators []*Concentrator
}

// StartTier starts one Concentrator per shard of the topology: upward-facing
// on parent, downward-facing on shardBus(i). shardBus may return the same
// bus for every shard (fan-out names its recipients), but never the parent
// bus.
func StartTier(parent bus.Bus, shardBus func(i int) bus.Bus, topo Topology, cfg TierConfig) (*Tier, error) {
	t := &Tier{Topology: topo}
	inbox := cfg.InboxSize
	if inbox <= 0 {
		inbox = core.FanInInbox(topo.maxShardSize())
	}
	for i := 0; i < topo.Shards(); i++ {
		shard := topo.Shard(i)
		cc, err := NewConcentrator(ConcentratorConfig{
			Name:         topo.ConcentratorName(i),
			SessionID:    cfg.SessionID,
			Members:      shard,
			MinResponses: shardQuorum(cfg.FleetMinResponses, topo.FleetSize(), shard.Len()),
			RoundTimeout: cfg.RoundTimeout,
		})
		if err != nil {
			t.Stop()
			return nil, err
		}
		if err := cc.Start(parent, shardBus(i), inbox); err != nil {
			t.Stop()
			return nil, err
		}
		t.Concentrators = append(t.Concentrators, cc)
	}
	return t, nil
}

// Stop tears down every concentrator.
func (t *Tier) Stop() {
	for _, c := range t.Concentrators {
		c.Stop()
	}
}

// awaitRelay blocks until every concentrator has relayed the session end to
// its shard, or ctx ends.
func (t *Tier) awaitRelay(ctx context.Context) error {
	for _, c := range t.Concentrators {
		select {
		case <-c.Relayed():
		case <-ctx.Done():
			return fmt.Errorf("%s never relayed the session end: %w", c.cfg.Name, context.Cause(ctx))
		}
	}
	return nil
}

// awarded is every member's award as its concentrator sent it.
func (t *Tier) awarded() []protocol.CustomerAward {
	var out []protocol.CustomerAward
	for _, c := range t.Concentrators {
		c.mu.Lock()
		out = append(out, c.awards...)
		c.mu.Unlock()
	}
	return out
}

// Errors collects handler errors from every concentrator.
func (t *Tier) Errors() []error {
	var out []error
	for _, c := range t.Concentrators {
		out = append(out, c.Errors()...)
	}
	return out
}

// RootParams adapts the fleet's negotiation parameters for the root session
// over a concentrator tier: aggregated bids are continuous, and the
// concentrators' own quorum and timeout rules guarantee one answer per shard
// per round, so the root waits for every concentrator's bid.
func RootParams(p protocol.Params) protocol.Params {
	p.ContinuousBids = true
	p.MinResponses = 0
	return p
}

// RootConfig is the Utility Agent at the root of a concentrator tree: the
// scenario's own (core.Scenario.UAConfig) over the tier's aggregated loads,
// with the root's parameters and the reward-table method, its session span
// under parent. Every tree layout configures its root here.
func RootConfig(s core.Scenario, topo Topology, parent trace.Context) utilityagent.Config {
	cfg := s.UAConfig(topo.AggregateLoads())
	cfg.Method = utilityagent.MethodRewardTable
	cfg.Params = RootParams(s.Params)
	cfg.TraceParent = parent
	return cfg
}

// shardQuorum scales the fleet-level "acceptable number of bids" to one
// shard, rounding up so shards are never laxer than the flat session.
func shardQuorum(fleetMin, fleetSize, shardSize int) int {
	if fleetMin <= 0 || fleetSize <= 0 || shardSize == 0 {
		return 0
	}
	return min(max((fleetMin*shardSize+fleetSize-1)/fleetSize, 1), shardSize)
}

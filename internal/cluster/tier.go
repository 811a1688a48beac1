package cluster

import (
	"fmt"
	"time"

	"loadbalance/internal/bus"
	"loadbalance/internal/protocol"
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
	// InboxSize sizes each concentrator's mailboxes.
	InboxSize int
}

// Tier is a started concentrator tier fronting a fleet. Both negotiation
// engines build their trees through it — the in-process engine (Run) with
// one bus per shard, cmd/gridd with all shards sharing the TCP-bridged bus —
// so the root-tier contract (quorum scaling, concentrator naming, parameter
// overrides) lives in exactly one place.
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
	for i := 0; i < topo.Shards(); i++ {
		cc, err := NewConcentrator(ConcentratorConfig{
			Name:         topo.ConcentratorName(i),
			SessionID:    cfg.SessionID,
			Members:      topo.MemberLoads(i),
			MinResponses: shardQuorum(cfg.FleetMinResponses, topo.FleetSize(), len(topo.Members(i))),
			RoundTimeout: cfg.RoundTimeout,
		})
		if err != nil {
			t.Stop()
			return nil, err
		}
		if err := cc.Start(parent, shardBus(i), cfg.InboxSize); err != nil {
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
// its shard, or stalled fires.
func (t *Tier) awaitRelay(stalled <-chan time.Time) error {
	for _, c := range t.Concentrators {
		select {
		case <-c.Relayed():
		case <-stalled:
			return fmt.Errorf("%w: %s never relayed the session end", ErrTimeout, c.cfg.Name)
		}
	}
	return nil
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

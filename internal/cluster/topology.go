package cluster

import (
	"errors"
	"fmt"
	"sort"

	"loadbalance/internal/protocol"
	"loadbalance/internal/units"
)

// Errors reported by the package.
var (
	ErrBadTopology = errors.New("cluster: invalid topology")
	ErrBadConfig   = errors.New("cluster: invalid configuration")
)

// Topology is a deterministic K-shard partition of a customer fleet: sorted
// customer names split into contiguous blocks whose sizes differ by at most
// one. Shard counts above the fleet size yield empty shards, whose
// concentrators simply bid a cut-down of 0 every round.
type Topology struct {
	shards [][]string
	loads  map[string]protocol.CustomerLoad
}

// NewTopology partitions the fleet described by loads into the given number
// of shards.
func NewTopology(loads map[string]protocol.CustomerLoad, shards int) (Topology, error) {
	if shards < 1 {
		return Topology{}, fmt.Errorf("%w: shard count %d", ErrBadTopology, shards)
	}
	names := make([]string, 0, len(loads))
	for n := range loads {
		if n == "" {
			return Topology{}, fmt.Errorf("%w: unnamed customer", ErrBadTopology)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	t := Topology{
		shards: make([][]string, shards),
		loads:  make(map[string]protocol.CustomerLoad, len(loads)),
	}
	for n, l := range loads {
		t.loads[n] = l
	}
	base, extra := len(names)/shards, len(names)%shards
	at := 0
	for i := range t.shards {
		size := base
		if i < extra {
			size++
		}
		t.shards[i] = names[at : at+size]
		at += size
	}
	return t, nil
}

// Shards returns the number of shards.
func (t Topology) Shards() int { return len(t.shards) }

// FleetSize returns the total number of customers across all shards.
func (t Topology) FleetSize() int { return len(t.loads) }

// maxShardSize returns the size of the largest shard (shard sizes differ by
// at most one), which sizes the concentrators' fan-in inboxes.
func (t Topology) maxShardSize() int { return (len(t.loads) + len(t.shards) - 1) / len(t.shards) }

// Members returns shard i's customer names.
func (t Topology) Members(i int) []string {
	return append([]string(nil), t.shards[i]...)
}

// ConcentratorName returns the bus name of shard i's Concentrator Agent.
func (t Topology) ConcentratorName(i int) string {
	return fmt.Sprintf("cc-%03d", i)
}

// concentratorNames returns every shard's concentrator name, in shard order.
func (t Topology) concentratorNames() []string {
	names := make([]string, len(t.shards))
	for i := range names {
		names[i] = t.ConcentratorName(i)
	}
	return names
}

// MemberLoads returns the Utility-Agent-style model of shard i's customers,
// which seeds the shard's concentrator.
func (t Topology) MemberLoads(i int) map[string]protocol.CustomerLoad {
	out := make(map[string]protocol.CustomerLoad, len(t.shards[i]))
	for _, n := range t.shards[i] {
		out[n] = t.loads[n]
	}
	return out
}

// AggregateLoads returns the root Utility Agent's model of the cluster: one
// CustomerLoad per concentrator, with predicted and allowed use summed over
// the shard. Predicted-use curves are additive across customers (Section 6's
// predicted_overuse is a sum), so the root's balance prediction over these
// aggregates equals the flat prediction over the fleet.
func (t Topology) AggregateLoads() map[string]protocol.CustomerLoad {
	out := make(map[string]protocol.CustomerLoad, len(t.shards))
	for i, shard := range t.shards {
		var pred, allowed units.Energy
		for _, n := range shard {
			pred = pred.Add(t.loads[n].Predicted)
			allowed = allowed.Add(t.loads[n].Allowed)
		}
		out[t.ConcentratorName(i)] = protocol.CustomerLoad{Predicted: pred, Allowed: allowed}
	}
	return out
}

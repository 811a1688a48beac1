package cluster

import (
	"errors"
	"fmt"

	"loadbalance/internal/protocol"
	"loadbalance/internal/units"
)

// Errors reported by the package.
var (
	ErrBadTopology = errors.New("cluster: invalid topology")
	ErrBadConfig   = errors.New("cluster: invalid configuration")
)

// Topology is a deterministic K-shard partition of a customer fleet: the
// fleet's roster (customers sorted by name) split into contiguous blocks whose
// sizes differ by at most one. Shard counts above the fleet size yield empty
// shards, whose concentrators simply bid a cut-down of 0 every round.
type Topology struct {
	roster protocol.Roster
	bounds []int // shard i is roster[bounds[i]:bounds[i+1]]
}

// NewTopology partitions the fleet described by loads into the given number
// of shards (Partition over the loads' roster).
func NewTopology(loads map[string]protocol.CustomerLoad, shards int) (Topology, error) {
	return Partition(protocol.NewRoster(loads), shards)
}

// Partition splits a fleet's roster into the given number of shards; the
// topology shares the roster's arrays.
func Partition(r protocol.Roster, shards int) (Topology, error) {
	if shards < 1 {
		return Topology{}, fmt.Errorf("%w: shard count %d", ErrBadTopology, shards)
	}
	if r.Len() > 0 && r.Names()[0] == "" { // "" sorts first
		return Topology{}, fmt.Errorf("%w: unnamed customer", ErrBadTopology)
	}
	t := Topology{roster: r, bounds: make([]int, shards+1)}
	base, extra := r.Len()/shards, r.Len()%shards
	for i := 0; i < shards; i++ {
		t.bounds[i+1] = t.bounds[i] + base
		if i < extra {
			t.bounds[i+1]++
		}
	}
	return t, nil
}

// Shards returns the number of shards.
func (t Topology) Shards() int { return len(t.bounds) - 1 }

// FleetSize returns the total number of customers across all shards.
func (t Topology) FleetSize() int { return t.roster.Len() }

// maxShardSize returns the size of the largest shard (shard sizes differ by
// at most one), which sizes the concentrators' fan-in inboxes.
func (t Topology) maxShardSize() int { return (t.FleetSize() + t.Shards() - 1) / t.Shards() }

// Shard returns shard i's customers: a view of the fleet's roster, not a copy.
// It seeds the shard's concentrator.
func (t Topology) Shard(i int) protocol.Roster { return t.roster.Slice(t.bounds[i], t.bounds[i+1]) }

// Members returns shard i's customer names, sorted. The slice is the
// topology's own: callers read it and never write it.
func (t Topology) Members(i int) []string { return t.Shard(i).Names() }

// ConcentratorName returns the bus name of shard i's Concentrator Agent.
func (t Topology) ConcentratorName(i int) string {
	return fmt.Sprintf("cc-%03d", i)
}

// concentratorNames returns every shard's concentrator name, in shard order.
func (t Topology) concentratorNames() []string {
	names := make([]string, t.Shards())
	for i := range names {
		names[i] = t.ConcentratorName(i)
	}
	return names
}

// AggregateLoads returns the root Utility Agent's model of the cluster: one
// CustomerLoad per concentrator, with predicted and allowed use summed over
// the shard. Predicted-use curves are additive across customers (Section 6's
// predicted_overuse is a sum), so the root's balance prediction over these
// aggregates equals the flat prediction over the fleet.
func (t Topology) AggregateLoads() map[string]protocol.CustomerLoad {
	out := make(map[string]protocol.CustomerLoad, t.Shards())
	for i := 0; i < t.Shards(); i++ {
		shard := t.Shard(i)
		var pred, allowed units.Energy
		for j := 0; j < shard.Len(); j++ {
			pred = pred.Add(shard.Load(j).Predicted)
			allowed = allowed.Add(shard.Load(j).Allowed)
		}
		out[t.ConcentratorName(i)] = protocol.CustomerLoad{Predicted: pred, Allowed: allowed}
	}
	return out
}

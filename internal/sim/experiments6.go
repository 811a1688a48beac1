package sim

import (
	"encoding/json"
	"fmt"
	"sort"

	"loadbalance/internal/cluster"
	"loadbalance/internal/core"
	"loadbalance/internal/protocol"
)

// E15DistributedNegotiation exercises the distributed deployment the paper's
// Discussion aims at ("large open distributed industrial systems"): one
// seeded scenario negotiated three ways — flat in-process, through the
// in-process concentrator tree, and through a concentrator tier whose every
// member sits behind its own pair of TCP connections on the binary wire
// protocol. The table shows all three reach the identical outcome; the
// distributed row additionally reports the transport's frame/byte counts and
// whether its delivered awards are byte-identical to the flat run's — the
// correctness bar for moving the tier into separate OS processes.
func E15DistributedNegotiation(n, shards int, seed int64) (*Table, error) {
	if shards < 1 {
		shards = 4
	}
	if n < shards {
		n = shards
	}
	scenario := func() (core.Scenario, error) {
		return core.SyntheticScenario(core.SyntheticConfig{N: n, Seed: seed})
	}

	t := &Table{
		Name:    fmt.Sprintf("E15DistributedNegotiation: %d customers, %d concentrators over TCP", n, shards),
		Columns: []string{"mode", "outcome", "rounds", "overuse_kwh", "reward_paid", "messages", "wire_frames", "wire_kb", "awards_vs_flat"},
		Notes:   "flat, in-proc sharded and TCP-distributed negotiations of one seeded scenario; awards_vs_flat compares the delivered award bytes",
	}

	s, err := scenario()
	if err != nil {
		return nil, err
	}
	flat, err := core.Run(s)
	if err != nil {
		return nil, err
	}
	flatAwards, err := canonicalAwards(flat.Awards)
	if err != nil {
		return nil, err
	}
	t.AddRowF("flat", flat.Outcome, flat.Rounds, flat.FinalOveruseKWh,
		protocol.TotalRewardPaid(flat.Awards), flat.Bus.Sent, "-", "-", "(reference)")

	s, err = scenario()
	if err != nil {
		return nil, err
	}
	inproc, err := cluster.Run(cluster.Config{Scenario: s, Shards: shards})
	if err != nil {
		return nil, err
	}
	t.AddRowF("sharded", inproc.Outcome, inproc.Rounds, inproc.FinalOveruseKWh,
		protocol.TotalRewardPaid(inproc.Awards), inproc.Bus.Sent, "-", "-", "(bids match)")

	s, err = scenario()
	if err != nil {
		return nil, err
	}
	dist, err := cluster.RunDistributed(cluster.DistributedConfig{Scenario: s, Shards: shards})
	if err != nil {
		return nil, err
	}
	for _, e := range dist.AgentErrors {
		return nil, fmt.Errorf("sim: distributed agent error: %w", e)
	}
	distAwards := make([]protocol.CustomerAward, 0, len(dist.MemberAwards))
	names := make([]string, 0, len(dist.MemberAwards))
	for name := range dist.MemberAwards {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		distAwards = append(distAwards, protocol.CustomerAward{Customer: name, Award: dist.MemberAwards[name]})
	}
	distJSON, err := canonicalAwards(distAwards)
	if err != nil {
		return nil, err
	}
	match := "DIFFER"
	if distJSON == flatAwards {
		match = "byte-identical"
	}
	frames := dist.RootWire.FramesIn + dist.RootWire.FramesOut + dist.MemberWire.FramesIn + dist.MemberWire.FramesOut
	kb := float64(dist.RootWire.BytesIn+dist.RootWire.BytesOut+dist.MemberWire.BytesIn+dist.MemberWire.BytesOut) / 1024
	t.AddRowF("distributed", dist.Outcome, dist.Rounds, dist.FinalOveruseKWh,
		protocol.TotalRewardPaid(distAwards), dist.Bus.Sent, frames, kb, match)
	return t, nil
}

// canonicalAwards renders an award list as comparable JSON.
func canonicalAwards(awards []protocol.CustomerAward) (string, error) {
	b, err := json.Marshal(awards)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"loadbalance"
	"loadbalance/internal/bus"
	"loadbalance/internal/cluster"
	"loadbalance/internal/core"
	"loadbalance/internal/message"
	"loadbalance/internal/protocol"
	"loadbalance/internal/units"
	"loadbalance/internal/utilityagent"
)

// outcome is what one negotiation session negotiated, in the form the
// correctness gate compares: the awards (per customer where the engine
// exposes them), the final bids, and the trace the protocol verifier reads.
type outcome struct {
	awards      []protocol.CustomerAward
	bids        map[string]float64
	history     []protocol.RoundRecord
	rounds      int
	agentErrors []error
	busStats    bus.Stats     // summed over every in-process bus of the session
	wire        bus.WireStats // summed over both TCP servers (distributed only)
}

// digest is the SHA-256 of the canonical JSON of the awards sorted by
// customer, followed by the final bids sorted by customer. The sharded
// engine only exposes concentrator-level awards, so the member bids are what
// pins every customer's outcome there.
func (o *outcome) digest() string {
	awards := append([]protocol.CustomerAward(nil), o.awards...)
	sort.Slice(awards, func(i, j int) bool { return awards[i].Customer < awards[j].Customer })
	type bid struct {
		Customer string
		CutDown  float64
	}
	bids := make([]bid, 0, len(o.bids))
	for name, cd := range o.bids {
		bids = append(bids, bid{name, cd})
	}
	sort.Slice(bids, func(i, j int) bool { return bids[i].Customer < bids[j].Customer })
	doc, err := json.Marshal(struct {
		Awards []protocol.CustomerAward
		Bids   []bid
	}{awards, bids})
	if err != nil {
		// Plain structs of strings and finite floats; a failure here is a bug.
		panic(fmt.Sprintf("bench: awards digest: %v", err))
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}

// awardsDigest is the digest over the awards alone: the surface on which a
// flat run and a distributed run of one scenario must agree byte for byte.
func awardsDigest(awards []protocol.CustomerAward) string {
	o := outcome{awards: awards}
	return o.digest()
}

// sessionOp runs one complete session and returns what it negotiated.
type sessionOp func() (*outcome, error)

func addStats(a, b bus.Stats) bus.Stats {
	return bus.Stats{Sent: a.Sent + b.Sent, Delivered: a.Delivered + b.Delivered, Dropped: a.Dropped + b.Dropped, Rejected: a.Rejected + b.Rejected}
}

func flatOp(s core.Scenario) sessionOp {
	return func() (*outcome, error) {
		r, err := core.Run(s)
		if err != nil {
			return nil, err
		}
		return &outcome{awards: r.Awards, bids: r.FinalBids, history: r.History, rounds: r.Rounds, agentErrors: r.AgentErrors, busStats: r.Bus}, nil
	}
}

func clusterOutcome(r *cluster.Result) *outcome {
	o := &outcome{awards: r.Awards, bids: r.FinalBids, history: r.History, rounds: r.Rounds, agentErrors: r.AgentErrors, busStats: r.ParentBus}
	for _, st := range r.ShardBuses {
		o.busStats = addStats(o.busStats, st)
	}
	return o
}

func shardedOp(s core.Scenario, shards int) sessionOp {
	return func() (*outcome, error) {
		r, err := cluster.Run(cluster.Config{Scenario: s, Shards: shards})
		if err != nil {
			return nil, err
		}
		return clusterOutcome(r), nil
	}
}

// distributedOp reports the member awards exactly as delivered over the
// tree, in the flat run's shape, so its digest is comparable to a flat one.
func distributedOp(s core.Scenario, shards int) sessionOp {
	return func() (*outcome, error) {
		r, err := cluster.RunDistributed(cluster.DistributedConfig{Scenario: s, Shards: shards})
		if err != nil {
			return nil, err
		}
		o := clusterOutcome(&r.Result)
		o.awards = memberAwards(r.MemberAwards)
		o.wire = bus.WireStats{
			FramesIn:  r.RootWire.FramesIn + r.MemberWire.FramesIn,
			FramesOut: r.RootWire.FramesOut + r.MemberWire.FramesOut,
			BytesIn:   r.RootWire.BytesIn + r.MemberWire.BytesIn,
			BytesOut:  r.RootWire.BytesOut + r.MemberWire.BytesOut,
			Dropped:   r.RootWire.Dropped + r.MemberWire.Dropped,
		}
		return o, nil
	}
}

func memberAwards(m map[string]message.Award) []protocol.CustomerAward {
	out := make([]protocol.CustomerAward, 0, len(m))
	for name, aw := range m {
		out = append(out, protocol.CustomerAward{Customer: name, Award: aw})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Customer < out[j].Customer })
	return out
}

// checkOutcome is the per-session half of the correctness gate: no agent
// errors, a trace the protocol verifier accepts, and the reference digest.
// It returns a one-line reason, empty when the session is correct.
func checkOutcome(o *outcome, params protocol.Params, wantDigest string, digestOf func(*outcome) string) string {
	if len(o.agentErrors) > 0 {
		return fmt.Sprintf("%d agent errors, first: %v", len(o.agentErrors), o.agentErrors[0])
	}
	if rep := loadbalance.VerifyTrace(&core.Result{Result: utilityagent.Result{History: o.history}}, params); !rep.OK() {
		return fmt.Sprintf("VerifyTrace: %v", rep.Error())
	}
	if got := digestOf(o); got != wantDigest {
		return fmt.Sprintf("awards digest %s != reference %s", short(got), short(wantDigest))
	}
	return ""
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}

// samplePrefix restricts a scenario to its first n customers, with capacity
// rescaled to the scenario's own initial overuse, so a prefix negotiates the
// same situation at a smaller size.
func samplePrefix(s core.Scenario, n int, sessionID string) core.Scenario {
	if n > len(s.Customers) {
		n = len(s.Customers)
	}
	var all, part float64
	for i, c := range s.Customers {
		all += c.Predicted.KWhs()
		if i < n {
			part += c.Predicted.KWhs()
		}
	}
	out := s
	out.SessionID = sessionID
	out.Customers = append([]core.CustomerSpec(nil), s.Customers[:n]...)
	out.NormalUse = units.Energy(s.NormalUse.KWhs() * part / all)
	return out
}

// rewardTolerance is the relative difference allowed between a reward paid
// through the concentrator tree and the flat run's. The customers' cut-downs
// must agree exactly; the rewards are read off reward tables whose updates
// sum the fleet's overuse in a different order in the two engines, so on the
// synthetic fleets they agree to the last few ulps, not bit for bit.
const rewardTolerance = 1e-9

// awardsAgree holds a tree-delivered award list to the flat run's: the same
// customers, rounds and cut-downs, rewards within rewardTolerance. It returns
// a one-line reason, empty when they agree.
func awardsAgree(flat, tree []protocol.CustomerAward) string {
	if len(flat) != len(tree) {
		return fmt.Sprintf("%d awards, flat run has %d", len(tree), len(flat))
	}
	want := make(map[string]message.Award, len(flat))
	for _, a := range flat {
		want[a.Customer] = a.Award
	}
	for _, a := range tree {
		w, ok := want[a.Customer]
		if !ok {
			return fmt.Sprintf("award for %s, which the flat run did not award", a.Customer)
		}
		if a.Award.Round != w.Round || a.Award.CutDown != w.CutDown {
			return fmt.Sprintf("%s awarded cut-down %v in round %d, flat run %v in round %d", a.Customer, a.Award.CutDown, a.Award.Round, w.CutDown, w.Round)
		}
		if diff := math.Abs(a.Award.Reward - w.Reward); diff > rewardTolerance*math.Max(1, math.Abs(w.Reward)) {
			return fmt.Sprintf("%s rewarded %v, flat run %v", a.Customer, a.Award.Reward, w.Reward)
		}
	}
	return ""
}

// sameBids reports whether two sessions left every customer at the same
// final cut-down: the repo's flat ≡ sharded invariant.
func sameBids(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for name, cd := range a {
		if got, ok := b[name]; !ok || got != cd {
			return false
		}
	}
	return true
}

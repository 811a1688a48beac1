// Package loadbalance is a multi-agent system for load balancing of
// electricity use, reproducing Brazier, Cornelissen, Gustavsson, Jonker,
// Lindeberg, Polak & Treur, "Agents Negotiating for Load Balancing of
// Electricity Use" (ICDCS 1998).
//
// A Utility Agent predicts a consumption peak and negotiates cut-downs with
// a fleet of Customer Agents under the monotonic concession protocol, using
// any of the paper's three announcement methods: a one-shot offer, iterated
// requests for bids, or (the prototype's method) announced reward tables
// that grow by
//
//	new_reward = reward + beta · overuse · (1 − reward/max_reward) · reward
//
// until the peak is acceptable or the rewards saturate.
//
// Quickstart:
//
//	s, _ := loadbalance.PaperScenario()     // the paper's Figures 6-9 setup
//	res, _ := loadbalance.Run(s)            // message-passing negotiation
//	fmt.Println(loadbalance.Render(res))    // per-round tables, bids, awards
//
// Synthetic fleets come from the household simulator:
//
//	s, _ := loadbalance.PopulationScenario(loadbalance.PopulationConfig{
//	        N: 200, Seed: 1, Margin: 0.2,
//	})
//	res, _ := loadbalance.Run(s)
//
// Large fleets negotiate hierarchically: Concentrator Agents each front a
// shard of customers and bid their shard's aggregated cut-down upward, so
// the Utility Agent sees K concentrators instead of N customers:
//
//	s, _ := loadbalance.SyntheticScenario(loadbalance.SyntheticConfig{N: 100000, Seed: 1})
//	res, _ := loadbalance.RunSharded(loadbalance.ClusterConfig{Scenario: s, Shards: 64})
//
// Every negotiation trace can be verified against the protocol's formal
// properties (monotonicity, termination, ceilings) with VerifyTrace.
package loadbalance

import (
	"loadbalance/internal/bus"
	"loadbalance/internal/cluster"
	"loadbalance/internal/core"
	"loadbalance/internal/customeragent"
	"loadbalance/internal/protocol"
	"loadbalance/internal/sim"
	"loadbalance/internal/utilityagent"
	"loadbalance/internal/verify"
)

// Scenario describes one negotiation: the window, capacity, parameters and
// customer fleet.
type Scenario = core.Scenario

// CustomerSpec declares one Customer Agent of a Scenario.
type CustomerSpec = core.CustomerSpec

// PopulationConfig parameterises synthetic-fleet generation.
type PopulationConfig = core.PopulationConfig

// Result is a finished negotiation: outcome, per-round history, awards and
// transport statistics.
type Result = core.Result

// Params are the Utility Agent's reward-table negotiation parameters
// (beta, max_reward, epsilon, allowed overuse).
type Params = protocol.Params

// Method selects the announcement method (offer, request for bids, reward
// tables, or automatic selection).
type Method = utilityagent.Method

// Announcement methods.
const (
	MethodAuto           = utilityagent.MethodAuto
	MethodOffer          = utilityagent.MethodOffer
	MethodRequestForBids = utilityagent.MethodRequestForBids
	MethodRewardTable    = utilityagent.MethodRewardTable
)

// Preferences is a customer's private cut-down-reward table.
type Preferences = customeragent.Preferences

// Strategy is a customer's bidding strategy.
type Strategy = customeragent.Strategy

// Bidding strategies.
const (
	StrategyGreedy      = customeragent.StrategyGreedy
	StrategyIncremental = customeragent.StrategyIncremental
	StrategyHoldout     = customeragent.StrategyHoldout
)

// VerifyReport is the outcome of checking a trace against the protocol
// properties.
type VerifyReport = verify.Report

// PaperScenario returns the calibrated reproduction of the paper's
// prototype run (Figures 6-9): capacity 100, predicted usage 135, reward 17
// at cut-down 0.4 in round 1 growing to ≈24.8 in round 3.
func PaperScenario() (Scenario, error) { return core.PaperScenario() }

// PaperParams returns the calibrated negotiation parameters (beta 1.85,
// max_reward slope 125, epsilon 1, allowed overuse 0.13).
func PaperParams() Params { return core.PaperParams() }

// PopulationScenario synthesises a fleet of households whose devices
// determine both predicted load and preference tables.
func PopulationScenario(cfg PopulationConfig) (Scenario, error) {
	return core.PopulationScenario(cfg)
}

// Run executes a scenario on the session engine's flat layout: the Utility
// Agent and the fleet of Customer Agents passing messages on one in-process
// bus, under any announcement method, and a full trace in the result. The
// engine is the one RunSharded and RunDistributed run, timeout included.
func Run(s Scenario) (*Result, error) { return core.Run(s) }

// ClusterConfig parameterises a hierarchical (sharded) negotiation: the flat
// scenario plus the number of Concentrator Agents fronting it.
type ClusterConfig = cluster.Config

// ClusterResult is a finished hierarchical negotiation, including per-tier
// transport statistics.
type ClusterResult = cluster.Result

// SyntheticConfig parameterises the O(N) scale-test fleet generator.
type SyntheticConfig = core.SyntheticConfig

// RunSharded executes a scenario through a 2-level concentrator tree: the
// Utility Agent negotiates with K Concentrator Agents, each fronting a shard
// of Customer Agents on its own bus. A seeded scenario reaches the same
// terminal outcome as Run, with per-round root work dropping from O(N) to
// O(K) and shards running in parallel.
func RunSharded(cfg ClusterConfig) (*ClusterResult, error) { return cluster.Run(cfg) }

// BusStats holds one transport's cumulative message counters.
type BusStats = bus.Stats

// DistributedConfig parameterises a negotiation whose concentrator tier runs
// behind TCP connections — the multi-process deployment.
type DistributedConfig = cluster.DistributedConfig

// DistributedResult extends ClusterResult with the transport's frame
// counters and the awards exactly as delivered over the tree.
type DistributedResult = cluster.DistributedResult

// RunDistributed executes a scenario through a concentrator tree whose tiers
// are joined by TCP on the binary wire protocol: root bus ⇄ root server ⇄ K
// concentrator connections ⇄ member server ⇄ the customers. A seeded
// scenario produces awards byte-identical to Run's.
func RunDistributed(cfg DistributedConfig) (*DistributedResult, error) {
	return cluster.RunDistributed(cfg)
}

// SyntheticScenario builds an N-customer scale-test fleet (seeded variations
// of the paper's customer) without the cost of the household simulator.
func SyntheticScenario(cfg SyntheticConfig) (Scenario, error) {
	return core.SyntheticScenario(cfg)
}

// NewPreferences builds a customer preference table from explicit minimum
// rewards per cut-down level (missing levels are infeasible).
func NewPreferences(levels []float64, required map[float64]float64) (Preferences, error) {
	return customeragent.NewPreferences(levels, required)
}

// VerifyTrace checks a reward-table negotiation history against the
// monotonic concession properties: table monotonicity, bid monotonicity,
// termination, contiguous rounds, reward ceilings and overuse consistency.
func VerifyTrace(res *Result, p Params) VerifyReport {
	return verify.CheckRewardTableTrace(res.History, p)
}

// Render formats a result as the textual counterpart of the prototype's
// GUI screens.
func Render(res *Result) string { return sim.RenderResult(res) }

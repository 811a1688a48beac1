// Package core is the paper's prototype system: it wires one Utility Agent,
// a set of Customer Agents (each backed by its preferences/RCA reports) and
// a message bus into a running negotiation, and exposes the canonical
// scenarios the experiments replay.
//
// It holds the one session engine, Negotiate: one Utility Agent conceding in
// lock-step to its bidders (Section 3.2.3), whatever carries the messages. A
// Layout places the parts — Run's flat layout puts the Utility Agent and the
// fleet on one bus; package cluster's layouts put concentrator trees in
// process, over TCP or dialed in — and the engine starts the Utility Agent,
// bounds the session by the scenario's timeout, takes the one error path for
// a session without an outcome and journals the outcome.
//
// The PaperScenario reproduces the exact situation of Figures 6-9: normal
// capacity 100, predicted usage 135 (ten customers at 13.5 kWh), a linear
// round-1 reward table with slope 42.5 (reward 17 at cut-down 0.4), and a
// customer population calibrated so the negotiation runs three rounds with
// the round-3 reward at cut-down 0.4 reaching 24.8 and predicted overuse
// falling from 35 to ≈12-13, matching the prototype screenshots.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"loadbalance/internal/customeragent"
	"loadbalance/internal/message"
	"loadbalance/internal/protocol"
	"loadbalance/internal/resource"
	"loadbalance/internal/units"
	"loadbalance/internal/utilityagent"
	"loadbalance/internal/world"
)

// Errors reported by the package.
var (
	ErrBadScenario = errors.New("core: invalid scenario")
	ErrTimeout     = errors.New("core: negotiation timed out")
)

// CustomerSpec declares one Customer Agent in a scenario.
type CustomerSpec struct {
	Name      string
	Predicted units.Energy
	Allowed   units.Energy
	Prefs     customeragent.Preferences
	Strategy  customeragent.Strategy
	// Silent customers register on the bus but never answer (E9).
	Silent bool
}

// Scenario is a complete negotiation setup.
type Scenario struct {
	SessionID string
	Window    units.Interval
	NormalUse units.Energy
	Method    utilityagent.Method
	LeadTime  time.Duration

	Params       protocol.Params
	InitialSlope float64
	RFB          protocol.RFBParams
	Offer        message.OfferTerms

	Customers []CustomerSpec

	// RoundTimeout lets rounds close without full quorum; required when
	// DropRate > 0 or any customer is silent.
	RoundTimeout time.Duration
	// DropRate injects message loss on the bus.
	DropRate float64
	// Seed drives the loss randomness.
	Seed int64
	// Timeout bounds the whole run (default 30s, RunTimeout).
	Timeout time.Duration
}

// Validate checks the scenario is runnable.
func (s Scenario) Validate() error {
	if s.SessionID == "" {
		return fmt.Errorf("%w: empty session id", ErrBadScenario)
	}
	if len(s.Customers) == 0 {
		return fmt.Errorf("%w: no customers", ErrBadScenario)
	}
	if s.NormalUse <= 0 {
		return fmt.Errorf("%w: normal use must be positive", ErrBadScenario)
	}
	seen := make(map[string]bool, len(s.Customers))
	anySilent := false
	for _, c := range s.Customers {
		if c.Name == "" {
			return fmt.Errorf("%w: unnamed customer", ErrBadScenario)
		}
		if seen[c.Name] {
			return fmt.Errorf("%w: duplicate customer %q", ErrBadScenario, c.Name)
		}
		seen[c.Name] = true
		if c.Silent {
			anySilent = true
		}
	}
	if (s.DropRate > 0 || anySilent) && s.RoundTimeout <= 0 {
		return fmt.Errorf("%w: lossy or silent scenarios need RoundTimeout", ErrBadScenario)
	}
	return nil
}

// Loads derives the Utility Agent's customer models from the specs.
func (s Scenario) Loads() map[string]protocol.CustomerLoad {
	loads := make(map[string]protocol.CustomerLoad, len(s.Customers))
	for _, c := range s.Customers {
		loads[c.Name] = protocol.CustomerLoad{Predicted: c.Predicted, Allowed: c.Allowed}
	}
	return loads
}

// Roster derives the same customer models as Loads, as a session holds them:
// sorted by name, in arrays rather than a map.
func (s Scenario) Roster() protocol.Roster {
	names := make([]string, len(s.Customers))
	loads := make([]protocol.CustomerLoad, len(s.Customers))
	for i, c := range s.Customers {
		names[i], loads[i] = c.Name, protocol.CustomerLoad{Predicted: c.Predicted, Allowed: c.Allowed}
	}
	return protocol.RosterOf(names, loads)
}

// UAConfig is the Utility Agent that negotiates the scenario over loads —
// s.Loads() when it faces the customers themselves, a concentrator tier's
// aggregates at the root of a tree (cluster.RootConfig). Every engine
// configures its Utility Agent here.
func (s Scenario) UAConfig(loads map[string]protocol.CustomerLoad) utilityagent.Config {
	return utilityagent.Config{
		Name:         "ua",
		SessionID:    s.SessionID,
		Window:       s.Window,
		NormalUse:    s.NormalUse,
		Loads:        loads,
		Method:       s.Method,
		LeadTime:     s.LeadTime,
		Params:       s.Params,
		InitialSlope: s.InitialSlope,
		Offer:        s.Offer,
		RFB:          s.RFB,
		RoundTimeout: s.RoundTimeout,
		WarrantRatio: s.Params.AllowedOveruseRatio,
	}
}

// RunTimeout bounds a run of the scenario: Timeout, or 30 s when unset.
func (s Scenario) RunTimeout() time.Duration {
	if s.Timeout <= 0 {
		return 30 * time.Second
	}
	return s.Timeout
}

// paperWindow is the canonical evening peak window.
func paperWindow() units.Interval {
	start := time.Date(1998, 1, 20, 17, 0, 0, 0, time.UTC)
	return units.Interval{Start: start, End: start.Add(2 * time.Hour)}
}

// PaperParams returns the calibrated negotiation parameters: beta 1.85 is
// the constant that makes the reward at cut-down 0.4 reach 24.8 in round 3
// (Figure 7) starting from 17 in round 1 (Figure 6) under the calibrated
// population's bid trajectory; max_reward(0.4) = 50.
func PaperParams() protocol.Params {
	return protocol.Params{
		Beta:                1.85,
		MaxRewardSlope:      125,
		Epsilon:             1,
		AllowedOveruseRatio: 0.13,
	}
}

// paperLevels is the prototype's cut-down grid 0.0 … 0.9.
func paperLevels() []float64 {
	cds := units.StandardCutDowns()
	out := make([]float64, len(cds))
	for i, cd := range cds {
		out[i] = cd.Float()
	}
	return out
}

// paperCustomerSpec builds one 13.5 kWh customer with the given finite
// requirement rows.
func paperCustomerSpec(name string, required map[float64]float64) (CustomerSpec, error) {
	req := map[float64]float64{0: 0}
	for l, r := range required {
		req[l] = r
	}
	prefs, err := customeragent.NewPreferences(paperLevels(), req)
	if err != nil {
		return CustomerSpec{}, err
	}
	return CustomerSpec{
		Name:      name,
		Predicted: 13.5,
		Allowed:   13.5,
		Prefs:     prefs.WithExpectedUse(13.5),
		Strategy:  customeragent.StrategyGreedy,
	}, nil
}

// PaperScenario builds the canonical Figures 6-9 reproduction.
//
// Customer c01 is the Figures 8-9 customer: it bids 0.2 in round 1 and 0.4
// from round 2 on. Its requirement at 0.3 is 13 rather than the screenshot's
// 10: under the linear round-1 table of Figure 6 (12.75 at 0.3) a
// requirement of 10 would make 0.3 acceptable immediately, contradicting the
// text's "chooses ... a cut-down of 0.2" — the screenshots evidently used a
// non-linear initial table. The requirement at 0.4 is the screenshot's 21.
// The other nine customers are calibrated so the fleet's bids total 1.0,
// 1.5 and 1.7 cut-down across the three rounds, which yields the published
// overuse trajectory 35 → ≈14.8 → ≈12 and the round-3 reward 24.8.
func PaperScenario() (Scenario, error) {
	specs := []struct {
		name string
		req  map[float64]float64
	}{
		{"c01", map[float64]float64{0.1: 4, 0.2: 8, 0.3: 13, 0.4: 21}},
		{"c02", map[float64]float64{0.1: 4, 0.2: 8, 0.3: 15, 0.4: 30}},
		{"c03", map[float64]float64{0.1: 4, 0.2: 8, 0.3: 15, 0.4: 30}},
		{"c04", map[float64]float64{0.1: 4, 0.2: 8, 0.3: 19}},
		{"c05", map[float64]float64{0.1: 4, 0.2: 8, 0.3: 19}},
		{"c06", map[float64]float64{0.1: 5, 0.2: 13}},
		{"c07", map[float64]float64{0.1: 6, 0.2: 14}},
		{"c08", map[float64]float64{0.1: 6, 0.2: 14}},
		{"c09", map[float64]float64{0.1: 7, 0.2: 15}},
		{"c10", map[float64]float64{0.1: 7, 0.2: 15}},
	}
	s := Scenario{
		SessionID:    "paper-fig6",
		Window:       paperWindow(),
		NormalUse:    100,
		Method:       utilityagent.MethodRewardTable,
		Params:       PaperParams(),
		InitialSlope: 42.5,
	}
	for _, spec := range specs {
		cs, err := paperCustomerSpec(spec.name, spec.req)
		if err != nil {
			return Scenario{}, err
		}
		s.Customers = append(s.Customers, cs)
	}
	return s, nil
}

// PopulationConfig parameterises a synthetic-population scenario.
type PopulationConfig struct {
	// N is the number of customers.
	N int
	// Seed drives household synthesis and weather.
	Seed int64
	// TargetOveruse sets normal capacity so the fleet's predicted demand
	// exceeds it by this ratio (default 0.35, the paper's situation).
	TargetOveruse float64
	// Margin is the customers' profit margin on comfort costs.
	Margin float64
	// Strategy applies to every customer (default greedy).
	Strategy customeragent.Strategy
	// Method picks the announcement method.
	Method utilityagent.Method
	// Window defaults to the paper's evening peak.
	Window units.Interval
}

// PopulationScenario synthesises a scenario from the world simulator: each
// household's devices determine both its predicted load and its preference
// table (via its Resource Consumer Agents). This is the workload generator
// for experiments E5-E7 and E9.
func PopulationScenario(cfg PopulationConfig) (Scenario, error) {
	if cfg.N <= 0 {
		return Scenario{}, fmt.Errorf("%w: population size %d", ErrBadScenario, cfg.N)
	}
	if cfg.TargetOveruse == 0 {
		cfg.TargetOveruse = 0.35
	}
	if cfg.Strategy == 0 {
		cfg.Strategy = customeragent.StrategyGreedy
	}
	window := cfg.Window
	if window.Start.IsZero() {
		window = paperWindow()
	}
	pop, err := world.NewPopulation(world.PopulationConfig{
		N:       cfg.N,
		Seed:    cfg.Seed,
		EVShare: 0.2,
	})
	if err != nil {
		return Scenario{}, err
	}
	samples := resource.DefaultSampleCount(window)
	levels := paperLevels()

	s := Scenario{
		SessionID:    fmt.Sprintf("pop-%d-%d", cfg.N, cfg.Seed),
		Window:       window,
		Method:       cfg.Method,
		Params:       PaperParams(),
		InitialSlope: 42.5,
	}
	var totalPredicted units.Energy
	var req04 []float64
	for _, h := range pop.Households {
		rep, err := resource.BuildReport(h, window, pop.Weather, samples)
		if err != nil {
			return Scenario{}, err
		}
		prefs, err := customeragent.FromReport(rep, levels, cfg.Margin)
		if err != nil {
			return Scenario{}, err
		}
		s.Customers = append(s.Customers, CustomerSpec{
			Name:      h.ID,
			Predicted: rep.TotalUse,
			Allowed:   rep.TotalUse,
			Prefs:     prefs,
			Strategy:  cfg.Strategy,
		})
		totalPredicted = totalPredicted.Add(rep.TotalUse)
		if r := prefs.RequiredFor(0.4); !math.IsInf(r, 1) {
			req04 = append(req04, r)
		}
	}
	s.NormalUse = totalPredicted.Scale(1 / (1 + cfg.TargetOveruse))

	// Calibrate the reward scale to the fleet: the round-1 table covers
	// about half the median requirement at cut-down 0.4, so negotiations
	// concede over several rounds (as in the prototype) instead of clearing
	// instantly; the ceiling sits at 3× the median so convergence stays
	// reachable.
	if len(req04) > 0 {
		sort.Float64s(req04)
		median := req04[len(req04)/2]
		if median > 0 {
			s.InitialSlope = 0.5 * median / 0.4
			s.Params.MaxRewardSlope = 3 * median / 0.4
			s.Params.Epsilon = 0.02 * median // keep the step rule proportionate
		}
	}
	return s, nil
}

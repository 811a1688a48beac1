package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"loadbalance/internal/customeragent"
	"loadbalance/internal/protocol"
	"loadbalance/internal/units"
	"loadbalance/internal/utilityagent"
)

func runPaper(t *testing.T) *Result {
	t.Helper()
	s, err := PaperScenario()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AgentErrors) != 0 {
		t.Fatalf("agent errors: %v", res.AgentErrors)
	}
	return res
}

// TestPaperScenarioGoldenE2E3 is the E2/E3 golden: the full Figures 6-7
// trajectory. Round 1 announces reward 17 at cut-down 0.4 with predicted
// overuse 35 (Figure 6); the negotiation runs exactly three rounds; the
// round-3 table offers ≈24.8 at 0.4 and the overuse ends ≈12-13 (Figure 7).
func TestPaperScenarioGoldenE2E3(t *testing.T) {
	res := runPaper(t)

	if res.Method != utilityagent.MethodRewardTable {
		t.Fatalf("method = %v", res.Method)
	}
	if res.Outcome != protocol.OutcomeConverged.String() {
		t.Fatalf("outcome = %q", res.Outcome)
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
	if !units.NearlyEqual(res.InitialOveruseKWh, 35, 1e-9) {
		t.Fatalf("initial overuse = %v, want 35 (Figure 6)", res.InitialOveruseKWh)
	}

	h := res.History
	// Figure 6: round-1 table is linear with 17 at 0.4.
	r1, ok := h[0].Table.RewardFor(0.4)
	if !ok || !units.NearlyEqual(r1, 17, 1e-9) {
		t.Fatalf("round-1 reward(0.4) = %v, want 17", r1)
	}
	if r, _ := h[0].Table.RewardFor(0.1); !units.NearlyEqual(r, 4.25, 1e-9) {
		t.Fatalf("round-1 reward(0.1) = %v, want 4.25", r)
	}
	// Calibrated trajectory: overuse 21.5 → 14.75 → 12.05 kWh.
	wantOveruse := []float64{21.5, 14.75, 12.05}
	for i, rec := range h {
		if !units.NearlyEqual(rec.OveruseKWh, wantOveruse[i], 0.01) {
			t.Fatalf("round %d overuse = %v, want %v", rec.Round, rec.OveruseKWh, wantOveruse[i])
		}
	}
	// Figure 7: round-3 reward at 0.4 is 24.8 (paper) — ours within 0.5.
	r3, ok := h[2].Table.RewardFor(0.4)
	if !ok || !units.NearlyEqual(r3, 24.8, 0.5) {
		t.Fatalf("round-3 reward(0.4) = %v, want 24.8±0.5", r3)
	}
	// And the analytic value of the calibration is 24.81 ± 0.01.
	if !units.NearlyEqual(r3, 24.806, 0.01) {
		t.Fatalf("round-3 reward(0.4) = %v, want 24.806 (calibrated)", r3)
	}
	// Final overuse ≈ 12-13 ("the predicted overuse has been reduced to 13").
	if res.FinalOveruseKWh < 10 || res.FinalOveruseKWh > 13 {
		t.Fatalf("final overuse = %v, want ≈12-13", res.FinalOveruseKWh)
	}
	// Monotonic concession across announcements.
	for i := 1; i < len(h); i++ {
		if !h[i].Table.DominatesOrEqual(h[i-1].Table) {
			t.Fatalf("round %d table does not dominate round %d", h[i].Round, h[i-1].Round)
		}
	}
}

// TestPaperScenarioGoldenE4 is the E4 golden: the Figures 8-9 customer
// chooses 0.2 in round 1 and 0.4 in rounds 2 and 3.
func TestPaperScenarioGoldenE4(t *testing.T) {
	res := runPaper(t)
	bids := BidsOf(res.History, "c01")
	want := []float64{0.2, 0.4, 0.4}
	if len(bids) != len(want) {
		t.Fatalf("bids = %v", bids)
	}
	for i := range want {
		if !units.NearlyEqual(bids[i], want[i], 1e-12) {
			t.Fatalf("c01 round %d bid = %v, want %v", i+1, bids[i], want[i])
		}
	}
	// The award the customer receives matches the final table.
	var c01Award *protocol.CustomerAward
	for i := range res.Awards {
		if res.Awards[i].Customer == "c01" {
			c01Award = &res.Awards[i]
		}
	}
	if c01Award == nil {
		t.Fatal("c01 received no award")
	}
	if !units.NearlyEqual(c01Award.Award.CutDown, 0.4, 1e-12) {
		t.Fatalf("c01 award cut-down = %v", c01Award.Award.CutDown)
	}
	if !units.NearlyEqual(c01Award.Award.Reward, 24.806, 0.01) {
		t.Fatalf("c01 award reward = %v, want ≈24.81", c01Award.Award.Reward)
	}
}

func TestPaperScenarioFleetBids(t *testing.T) {
	res := runPaper(t)
	// Final bids per the calibration: c01 0.4; c02-c03 0.3; c04-c05 0.2;
	// c06-c08 0.1; c09-c10 0.
	want := map[string]float64{
		"c01": 0.4, "c02": 0.3, "c03": 0.3, "c04": 0.2, "c05": 0.2,
		"c06": 0.1, "c07": 0.1, "c08": 0.1, "c09": 0, "c10": 0,
	}
	for name, wantBid := range want {
		if got := res.FinalBids[name]; !units.NearlyEqual(got, wantBid, 1e-12) {
			t.Fatalf("%s final bid = %v, want %v", name, got, wantBid)
		}
	}
	// Total reward paid: awards priced by the final (round 3) table.
	if !units.NearlyEqual(res.TotalReward, 105.42, 0.2) {
		t.Fatalf("total reward = %v, want ≈105.4", res.TotalReward)
	}
}

func TestScenarioValidation(t *testing.T) {
	valid, err := PaperScenario()
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{name: "empty session", mutate: func(s *Scenario) { s.SessionID = "" }},
		{name: "no customers", mutate: func(s *Scenario) { s.Customers = nil }},
		{name: "zero capacity", mutate: func(s *Scenario) { s.NormalUse = 0 }},
		{name: "duplicate customer", mutate: func(s *Scenario) { s.Customers[1].Name = s.Customers[0].Name }},
		{name: "unnamed customer", mutate: func(s *Scenario) { s.Customers[0].Name = "" }},
		{name: "drops without timeout", mutate: func(s *Scenario) { s.DropRate = 0.1 }},
		{name: "silent without timeout", mutate: func(s *Scenario) { s.Customers[0].Silent = true }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, err := PaperScenario()
			if err != nil {
				t.Fatal(err)
			}
			tt.mutate(&s)
			if err := s.Validate(); !errors.Is(err, ErrBadScenario) {
				t.Fatalf("error = %v, want ErrBadScenario", err)
			}
		})
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("paper scenario invalid: %v", err)
	}
}

func TestRunRejectsInvalidScenario(t *testing.T) {
	if _, err := Run(Scenario{}); !errors.Is(err, ErrBadScenario) {
		t.Fatalf("error = %v", err)
	}
}

func TestPopulationScenario(t *testing.T) {
	s, err := PopulationScenario(PopulationConfig{N: 12, Seed: 7, Margin: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Customers) != 12 {
		t.Fatalf("customers = %d", len(s.Customers))
	}
	// Target overuse 0.35 by construction.
	ratio := protocol.OveruseRatio(s.Loads(), s.NormalUse)
	if !units.NearlyEqual(ratio, 0.35, 1e-6) {
		t.Fatalf("initial ratio = %v, want 0.35", ratio)
	}
	if _, err := PopulationScenario(PopulationConfig{N: 0}); !errors.Is(err, ErrBadScenario) {
		t.Fatal("empty population should fail")
	}
}

// TestPopulationNegotiationReducesPeak is the E5-style smoke test: a
// synthetic population negotiates and the peak shrinks.
func TestPopulationNegotiationReducesPeak(t *testing.T) {
	s, err := PopulationScenario(PopulationConfig{N: 20, Seed: 3, Margin: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AgentErrors) != 0 {
		t.Fatalf("agent errors: %v", res.AgentErrors)
	}
	if res.FinalOveruseKWh >= res.InitialOveruseKWh {
		t.Fatalf("overuse did not shrink: %v → %v", res.InitialOveruseKWh, res.FinalOveruseKWh)
	}
	if res.Bus.Sent == 0 || res.Bus.Delivered == 0 {
		t.Fatalf("bus stats = %+v", res.Bus)
	}
}

// TestLossyRunStillTerminates is the E9 liveness test: with 10% message
// loss and round timeouts, the negotiation still reaches a terminal state.
func TestLossyRunStillTerminates(t *testing.T) {
	s, err := PaperScenario()
	if err != nil {
		t.Fatal(err)
	}
	s.DropRate = 0.1
	s.Seed = 17
	s.RoundTimeout = 25 * time.Millisecond
	s.Timeout = 20 * time.Second
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == "" || res.Rounds == 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Bus.Dropped == 0 {
		t.Fatal("expected some dropped messages at 10% loss")
	}
}

// TestSilentCustomersRun covers the other E9 axis: a third of the fleet
// never responds, and the negotiation still terminates with the remaining
// customers carrying the reduction.
func TestSilentCustomersRun(t *testing.T) {
	s, err := PaperScenario()
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Customers {
		if i%3 == 0 {
			s.Customers[i].Silent = true
		}
	}
	s.RoundTimeout = 25 * time.Millisecond
	s.Timeout = 20 * time.Second
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == "" {
		t.Fatalf("result = %+v", res)
	}
	for i, spec := range s.Customers {
		if spec.Silent {
			if _, ok := res.FinalBids[spec.Name]; ok {
				t.Fatalf("silent customer %d has a recorded bid", i)
			}
		}
	}
}

// TestRunTimesOutOnTheEngineErrorPath: a fleet that never answers, under a
// round timeout longer than the run's, ends on the engine's one error path —
// ErrTimeout within a few of the scenario's timeouts, and nothing of the
// session left running.
func TestRunTimesOutOnTheEngineErrorPath(t *testing.T) {
	s, err := PaperScenario()
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Customers {
		s.Customers[i].Silent = true
	}
	s.RoundTimeout = time.Hour
	s.Timeout = 50 * time.Millisecond
	before := runtime.NumGoroutine()
	start := time.Now()
	res, err := Run(s)
	took := time.Since(start)
	if !errors.Is(err, ErrTimeout) || res != nil {
		t.Fatalf("Run of a silent fleet = %+v, %v; want ErrTimeout", res, err)
	}
	if took > 5*s.Timeout {
		t.Fatalf("Run took %v to time out after %v", took, s.Timeout)
	}
	// An exiting goroutine may still be unwinding when Run returns.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before Run, %d after it timed out", before, after)
	}
}

// TestOfferMethodOnPaperScenario runs E5's offer arm on the canonical fleet.
func TestOfferMethodOnPaperScenario(t *testing.T) {
	s, err := PaperScenario()
	if err != nil {
		t.Fatal(err)
	}
	s.Method = utilityagent.MethodOffer
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != utilityagent.MethodOffer || res.Offer == nil {
		t.Fatalf("result = %+v", res)
	}
	if res.Rounds != 1 {
		t.Fatalf("offer rounds = %d", res.Rounds)
	}
	if got := res.Offer.Accepted + res.Offer.Declined + res.Offer.Silent; got != len(s.Customers) {
		t.Fatalf("offer replies = %d", got)
	}
}

// TestRFBMethodOnPaperScenario runs E5's request-for-bids arm.
func TestRFBMethodOnPaperScenario(t *testing.T) {
	s, err := PaperScenario()
	if err != nil {
		t.Fatal(err)
	}
	s.Method = utilityagent.MethodRequestForBids
	s.RFB = protocol.RFBParams{
		LowPrice: 0.5, NormalPrice: 1, HighPrice: 4,
		AllowedOveruseRatio: 0.13,
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != utilityagent.MethodRequestForBids {
		t.Fatalf("method = %v", res.Method)
	}
	if res.Rounds == 0 || len(res.RFBHistory) != res.Rounds {
		t.Fatalf("rounds = %d, history = %d", res.Rounds, len(res.RFBHistory))
	}
	if res.FinalOveruseKWh >= res.InitialOveruseKWh {
		t.Fatalf("rfb did not reduce overuse: %v → %v", res.InitialOveruseKWh, res.FinalOveruseKWh)
	}
}

// TestStrategyMixStillConverges checks heterogeneous bidding strategies
// against the monotonic concession protocol.
func TestStrategyMixStillConverges(t *testing.T) {
	s, err := PaperScenario()
	if err != nil {
		t.Fatal(err)
	}
	strategies := []customeragent.Strategy{
		customeragent.StrategyGreedy,
		customeragent.StrategyIncremental,
		customeragent.StrategyHoldout,
	}
	for i := range s.Customers {
		s.Customers[i].Strategy = strategies[i%len(strategies)]
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AgentErrors) != 0 {
		t.Fatalf("agent errors: %v", res.AgentErrors)
	}
	if res.Outcome == "" {
		t.Fatal("no outcome")
	}
	// The protocol invariant holds regardless of strategies.
	for i := 1; i < len(res.History); i++ {
		if !res.History[i].Table.DominatesOrEqual(res.History[i-1].Table) {
			t.Fatal("table monotonicity violated")
		}
	}
}

func TestBidsOfFillsGaps(t *testing.T) {
	history := []protocol.RoundRecord{
		{Round: 1, Bids: map[string]float64{"c": 0.2}},
		{Round: 2, Bids: map[string]float64{}},
		{Round: 3, Bids: map[string]float64{"c": 0.4}},
	}
	got := BidsOf(history, "c")
	want := []float64{0.2, 0.2, 0.4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BidsOf = %v, want %v", got, want)
		}
	}
}

package desiremodel

import (
	"testing"
	"time"

	"loadbalance/internal/desire"
	"loadbalance/internal/kb"
	"loadbalance/internal/protocol"
	"loadbalance/internal/units"
	"loadbalance/internal/utilityagent"
)

func TestDecideMethodMatchesFigure2Cases(t *testing.T) {
	tests := []struct {
		name           string
		give           UASituation
		wantMethod     string
		wantAcceptance string
	}{
		{
			name:           "imminent peak",
			give:           UASituation{LeadTimeMinutes: 5, OveruseRatio: 0.35, Customers: 100},
			wantMethod:     MethodOffer,
			wantAcceptance: AcceptCountYes,
		},
		{
			name:           "small peak",
			give:           UASituation{LeadTimeMinutes: 120, OveruseRatio: 0.08, Customers: 100},
			wantMethod:     MethodOffer,
			wantAcceptance: AcceptCountYes,
		},
		{
			name:           "long horizon small fleet",
			give:           UASituation{LeadTimeMinutes: 720, OveruseRatio: 0.35, Customers: 20},
			wantMethod:     MethodRFB,
			wantAcceptance: AcceptMonotonicYMin,
		},
		{
			name:           "default reward tables",
			give:           UASituation{LeadTimeMinutes: 120, OveruseRatio: 0.35, Customers: 1000},
			wantMethod:     MethodRewardTable,
			wantAcceptance: AcceptMonotonicBids,
		},
		{
			name:           "long horizon large fleet",
			give:           UASituation{LeadTimeMinutes: 720, OveruseRatio: 0.35, Customers: 1000},
			wantMethod:     MethodRewardTable,
			wantAcceptance: AcceptMonotonicBids,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			method, acceptance, err := DecideMethod(tt.give)
			if err != nil {
				t.Fatal(err)
			}
			if method != tt.wantMethod {
				t.Fatalf("method = %q, want %q", method, tt.wantMethod)
			}
			if acceptance != tt.wantAcceptance {
				t.Fatalf("acceptance = %q, want %q", acceptance, tt.wantAcceptance)
			}
		})
	}
}

// TestSpecificationMatchesImplementation is the consistency check between
// the declarative Figure 2 model and the operational ChooseMethod, by search:
// a grid over lead time, overuse ratio and fleet size with every threshold
// (15 and 360 minutes, 50 customers, overuse 0.1 / (1 − 0.7·0.5) ≈ 0.154)
// one step to either side. Five hand-picked situations used to stand here,
// and the two disagreed on every overuse in (0.10, 0.15] they did not sample.
func TestSpecificationMatchesImplementation(t *testing.T) {
	implName := map[utilityagent.Method]string{
		utilityagent.MethodOffer:          MethodOffer,
		utilityagent.MethodRequestForBids: MethodRFB,
		utilityagent.MethodRewardTable:    MethodRewardTable,
	}
	situations, differ := 0, 0
	for _, lead := range []float64{0, 5, 14, 15, 16, 120, 359, 360, 361, 720} {
		for pct := 0; pct <= 50; pct++ {
			for _, customers := range []float64{1, 49, 50, 51, 1000} {
				s := UASituation{LeadTimeMinutes: lead, OveruseRatio: float64(pct) / 100, Customers: customers}
				spec, _, err := DecideMethod(s)
				if err != nil {
					t.Fatalf("situation %+v: %v", s, err)
				}
				impl := utilityagent.ChooseMethod(utilityagent.Situation{
					LeadTime:     time.Duration(s.LeadTimeMinutes) * time.Minute,
					OveruseRatio: s.OveruseRatio,
					Customers:    int(s.Customers),
					ResponseRate: 0.7,
				})
				situations++
				if implName[impl] != spec {
					if differ++; differ <= 5 {
						t.Errorf("situation %+v: spec %q vs implementation %q", s, spec, implName[impl])
					}
				}
			}
		}
	}
	if differ > 0 {
		t.Errorf("spec and implementation differ on %d of %d situations", differ, situations)
	}
}

func TestEvaluateNegotiationProcess(t *testing.T) {
	verdictFor := func(converged float64) string {
		t.Helper()
		opc, err := NewUAOwnProcessControl()
		if err != nil {
			t.Fatal(err)
		}
		facts := []kb.Fact{
			{Atom: kb.A("lead_time_minutes", kb.N(120)), Truth: kb.True},
			{Atom: kb.A("overuse_ratio", kb.N(0.35)), Truth: kb.True},
			{Atom: kb.A("customer_count", kb.N(100)), Truth: kb.True},
			{Atom: kb.A("outcome_converged", kb.N(converged)), Truth: kb.True},
			{Atom: kb.A("rounds_used", kb.N(3)), Truth: kb.True},
		}
		out, err := desire.Run(opc, facts)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range out {
			if f.Atom.Pred == "process_verdict" && f.Truth == kb.True {
				return f.Atom.Args[0].Name
			}
		}
		return ""
	}
	if got := verdictFor(1); got != "successful" {
		t.Fatalf("verdict = %q, want successful", got)
	}
	if got := verdictFor(0); got != "needs_review" {
		t.Fatalf("verdict = %q, want needs_review", got)
	}
}

// TestDecideBidReproducesPaperCustomer runs the Figure 5 composition on the
// Figures 8-9 situation.
func TestDecideBidReproducesPaperCustomer(t *testing.T) {
	announcedRound1 := map[float64]float64{0.1: 4.25, 0.2: 8.5, 0.3: 12.75, 0.4: 17}
	required := map[float64]float64{0.1: 4, 0.2: 8, 0.3: 13, 0.4: 21}
	savables := map[string][2]float64{
		"water_heater":  {3.0, 0.6},
		"space_heating": {2.5, 1.2},
		"white_goods":   {1.0, 0.4},
	}
	bid, err := DecideBid(announcedRound1, required, 13.5, savables)
	if err != nil {
		t.Fatal(err)
	}
	if !units.NearlyEqual(bid.CutDown, 0.2, 1e-12) {
		t.Fatalf("round-1 bid = %v, want 0.2", bid.CutDown)
	}
	// Implementation instructions: shed 0.2×13.5 = 2.7 kWh cheapest-first:
	// white_goods 1.0 then water_heater 1.7.
	if !units.NearlyEqual(bid.Instructions["white_goods"], 1.0, 1e-9) {
		t.Fatalf("white_goods instruction = %v, want 1.0", bid.Instructions["white_goods"])
	}
	if !units.NearlyEqual(bid.Instructions["water_heater"], 1.7, 1e-9) {
		t.Fatalf("water_heater instruction = %v, want 1.7", bid.Instructions["water_heater"])
	}
	if v, ok := bid.Instructions["space_heating"]; ok && v > 0 {
		t.Fatalf("space_heating should not shed at 0.2, got %v", v)
	}

	// Round 3 announcement: 0.4 now pays 24.8 ≥ 21.
	announcedRound3 := map[float64]float64{0.1: 6.2, 0.2: 12.4, 0.3: 18.6, 0.4: 24.8}
	bid, err = DecideBid(announcedRound3, required, 13.5, savables)
	if err != nil {
		t.Fatal(err)
	}
	if !units.NearlyEqual(bid.CutDown, 0.4, 1e-12) {
		t.Fatalf("round-3 bid = %v, want 0.4", bid.CutDown)
	}
	// 0.4×13.5 = 5.4 kWh: white_goods 1.0 + water_heater 3.0 + heating 1.4.
	if !units.NearlyEqual(bid.Instructions["space_heating"], 1.4, 1e-9) {
		t.Fatalf("space_heating instruction = %v, want 1.4", bid.Instructions["space_heating"])
	}
}

func TestDecideBidNothingAcceptable(t *testing.T) {
	announced := map[float64]float64{0.1: 1, 0.2: 2}
	required := map[float64]float64{0.1: 10, 0.2: 20}
	bid, err := DecideBid(announced, required, 13.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bid.CutDown != 0 {
		t.Fatalf("bid = %v, want 0", bid.CutDown)
	}
	if len(bid.Instructions) != 0 {
		t.Fatalf("instructions = %v, want none", bid.Instructions)
	}
}

// TestRound2InferenceAllocs holds the reference oracle's floor: the inference
// one customer runs in the second round of a negotiation — ten required_reward
// facts, the announced_reward facts of two ten-entry tables, the model's
// "generate bids" rule, to its fixpoint on a clone of the store — allocates at
// most 30 times (measured 18; 352 before the fact store was hash-indexed). A
// ceiling with room for a runtime upgrade, not an exact count.
func TestRound2InferenceAllocs(t *testing.T) {
	first, err := protocol.StandardTable(42.5)
	if err != nil {
		t.Fatal(err)
	}
	second, _ := first.Update(0.35, protocol.Params{Beta: 1.85, MaxRewardSlope: 125, Epsilon: 1, AllowedOveruseRatio: 0.13})
	store := kb.NewStore(nil)
	assert := func(a kb.Atom) {
		if err := store.AssertTrue(a); err != nil {
			t.Fatal(err)
		}
	}
	for i, l := range first.Levels() {
		// Requirements that stay finite through all ten levels, the live
		// fleet's shape: 0, 4, 9, 15, 22, 30, 39, 49, 60, 72.
		assert(kb.A("required_reward", kb.N(l), kb.N(float64(i*(i+7))/2)))
	}
	for _, tab := range []protocol.Table{first, second} {
		for _, e := range tab.Entries {
			assert(kb.A("announced_reward", kb.N(e.CutDown), kb.N(e.Reward)))
		}
	}
	base, err := generateBidsRules()
	if err != nil {
		t.Fatal(err)
	}
	engine := kb.NewEngine(base)
	got := testing.AllocsPerRun(100, func() {
		if derived, err := engine.Infer(store.Clone()); err != nil || len(derived) == 0 {
			t.Fatalf("Infer derived %d facts: %v", len(derived), err)
		}
	})
	if got > 30 {
		t.Fatalf("round-2 inference allocates %v times, budget 30", got)
	}
	t.Logf("round-2 inference allocates %v times", got)
}

package loadbalance_test

import (
	"strings"
	"testing"

	"loadbalance"
)

// TestPublicAPIEndToEnd drives the library exactly as the README quickstart
// does: build the paper scenario, run it, render and verify the trace.
func TestPublicAPIEndToEnd(t *testing.T) {
	s, err := loadbalance.PaperScenario()
	if err != nil {
		t.Fatal(err)
	}
	res, err := loadbalance.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
	rep := loadbalance.VerifyTrace(res, s.Params)
	if !rep.OK() {
		t.Fatalf("trace violations: %v", rep.Violations)
	}
	out := loadbalance.Render(res)
	for _, want := range []string{"round 1", "round 3", "converged", "total reward paid"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestPublicAPICustomScenario builds a scenario by hand through the facade.
func TestPublicAPICustomScenario(t *testing.T) {
	prefs, err := loadbalance.NewPreferences(
		[]float64{0, 0.1, 0.2, 0.3},
		map[float64]float64{0: 0, 0.1: 3, 0.2: 7, 0.3: 12},
	)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := loadbalance.PaperScenario()
	if err != nil {
		t.Fatal(err)
	}
	s := loadbalance.Scenario{
		SessionID:    "custom",
		Window:       paper.Window,
		NormalUse:    20,
		Method:       loadbalance.MethodRewardTable,
		Params:       loadbalance.PaperParams(),
		InitialSlope: 42.5,
		Customers: []loadbalance.CustomerSpec{
			{Name: "x", Predicted: 15, Allowed: 15, Prefs: prefs.WithExpectedUse(15), Strategy: loadbalance.StrategyGreedy},
			{Name: "y", Predicted: 12, Allowed: 12, Prefs: prefs.WithExpectedUse(12), Strategy: loadbalance.StrategyIncremental},
		},
	}
	res, err := loadbalance.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == "" {
		t.Fatal("no outcome")
	}
	if res.FinalOveruseKWh >= res.InitialOveruseKWh {
		t.Fatalf("no reduction: %v → %v", res.InitialOveruseKWh, res.FinalOveruseKWh)
	}
}

// TestPublicAPISharded drives the hierarchical facade: the same scenario run
// flat and through concentrators agrees on outcome and overuse.
func TestPublicAPISharded(t *testing.T) {
	s, err := loadbalance.SyntheticScenario(loadbalance.SyntheticConfig{N: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := loadbalance.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := loadbalance.RunSharded(loadbalance.ClusterConfig{Scenario: s, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != flat.Outcome {
		t.Fatalf("outcome %q, flat %q", res.Outcome, flat.Outcome)
	}
	if res.Bus.Sent == 0 || res.Shards != 4 {
		t.Fatalf("bad cluster result: %+v", res)
	}
}

// TestPublicAPIPopulation exercises the synthetic-fleet path.
func TestPublicAPIPopulation(t *testing.T) {
	s, err := loadbalance.PopulationScenario(loadbalance.PopulationConfig{
		N: 15, Seed: 2, Margin: 0.2, Method: loadbalance.MethodRewardTable,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := loadbalance.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	rep := loadbalance.VerifyTrace(res, s.Params)
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
}

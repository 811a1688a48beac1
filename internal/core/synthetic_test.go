package core

import (
	"testing"

	"loadbalance/internal/units"
)

func TestSyntheticScenarioShape(t *testing.T) {
	s, err := SyntheticScenario(SyntheticConfig{N: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Customers) != 50 {
		t.Fatalf("customers = %d", len(s.Customers))
	}
	var total units.Energy
	for _, c := range s.Customers {
		total = total.Add(c.Predicted)
	}
	ratio := total.KWhs()/s.NormalUse.KWhs() - 1
	if ratio < 0.34 || ratio > 0.36 {
		t.Fatalf("initial overuse ratio = %v, want ≈0.35", ratio)
	}
	// Determinism: the same seed yields the same fleet.
	s2, err := SyntheticScenario(SyntheticConfig{N: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Customers {
		if s.Customers[i].Prefs.RequiredFor(0.4) != s2.Customers[i].Prefs.RequiredFor(0.4) {
			t.Fatalf("customer %d differs across identical seeds", i)
		}
	}
	if _, err := SyntheticScenario(SyntheticConfig{}); err == nil {
		t.Fatal("zero population should fail")
	}
	if _, err := SyntheticScenario(SyntheticConfig{N: 5, TargetOveruse: -1}); err == nil {
		t.Fatal("negative target overuse should fail")
	}
}

func TestSyntheticScenarioNegotiates(t *testing.T) {
	s, err := SyntheticScenario(SyntheticConfig{N: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 {
		t.Fatalf("no negotiation ran: %+v", res.Result)
	}
	if res.FinalOveruseKWh >= res.InitialOveruseKWh {
		t.Fatalf("overuse did not fall: %v → %v", res.InitialOveruseKWh, res.FinalOveruseKWh)
	}
}

// TestRunAllocationBudget holds a whole flat negotiation — set-up, every
// round's broadcast, bids and awards, tear-down — to 26 allocations per
// customer (measured 17; 35 while every agent mirrored its response counters
// into two kb stores; 188 when each customer JSON-parsed the table and judged
// it by its own kb composition). It is the unit `go run ./bench
// -workload flat_1k` reports as allocs_per_unit, at a fleet small enough for
// tier-1.
func TestRunAllocationBudget(t *testing.T) {
	const n = 64
	s, err := SyntheticScenario(SyntheticConfig{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	perRun := testing.AllocsPerRun(5, func() {
		if res, err := Run(s); err != nil || res.Rounds == 0 {
			t.Errorf("Run = %+v, %v", res, err)
		}
	})
	if got := perRun / n; got > 26 {
		t.Fatalf("a %d-customer session allocates %.1f times per customer, budget 26", n, got)
	} else {
		t.Logf("%.1f allocations per customer", got)
	}
}

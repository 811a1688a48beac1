package customeragent_test

import (
	"fmt"
	"testing"

	"loadbalance/internal/core"
	"loadbalance/internal/customeragent"
	"loadbalance/internal/desiremodel"
)

// TestDecisionMatchesReferenceOracles is the differential test over the three
// answers this tree has to "which cut-down does a greedy customer bid": the
// production decider (a kb rule under a desire.Composed, read here as the bid
// each Customer Agent actually sent in a full negotiation), the direct
// function Preferences.AcceptableLevels, and the paper's Figure 5
// composition, desiremodel.DecideBid. For every customer and every round's
// announced table of the paper scenario and of seeded synthetic fleets, all
// three must name the same cut-down — the equivalence a compiled decision
// function has to keep.
func TestDecisionMatchesReferenceOracles(t *testing.T) {
	paper, err := core.PaperScenario()
	if err != nil {
		t.Fatal(err)
	}
	scenarios := map[string]core.Scenario{"paper": paper}
	for seed := int64(1); seed <= 20; seed++ {
		s, err := core.SyntheticScenario(core.SyntheticConfig{N: 64, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		scenarios[fmt.Sprintf("synthetic/seed=%d", seed)] = s
	}
	for name, s := range scenarios {
		t.Run(name, func(t *testing.T) {
			res, err := core.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.History) == 0 {
				t.Fatal("negotiation recorded no rounds")
			}
			for _, round := range res.History {
				announced := make(map[float64]float64, len(round.Table.Entries))
				for _, e := range round.Table.Entries {
					announced[e.CutDown] = e.Reward
				}
				for _, c := range s.Customers {
					if c.Strategy != customeragent.StrategyGreedy {
						t.Fatalf("%s is not greedy; the oracles model the greedy strategy", c.Name)
					}
					production, ok := round.Bids[c.Name]
					if !ok {
						t.Fatalf("round %d: %s sent no bid", round.Round, c.Name)
					}
					acceptable := c.Prefs.AcceptableLevels(round.Table.RewardFor)
					if len(acceptable) == 0 {
						t.Fatalf("round %d: %s accepts nothing, not even cut-down 0", round.Round, c.Name)
					}
					direct := acceptable[len(acceptable)-1]
					figure5, err := desiremodel.DecideBid(announced, c.Prefs.Required, c.Prefs.ExpectedUse.KWhs(), nil)
					if err != nil {
						t.Fatal(err)
					}
					if production != direct || production != figure5.CutDown {
						t.Errorf("round %d, %s: production decider bid %v, max(AcceptableLevels) %v, desiremodel.DecideBid %v",
							round.Round, c.Name, production, direct, figure5.CutDown)
					}
				}
			}
		})
	}
}

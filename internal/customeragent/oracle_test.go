package customeragent_test

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"loadbalance/internal/core"
	"loadbalance/internal/customeragent"
	"loadbalance/internal/desiremodel"
	"loadbalance/internal/message"
)

// acceptableLevels is Section 6.2 read literally, one lookup per grid level:
// the levels (ascending) at which the table offers a reward no lower than the
// customer's requirement. It is the reference the production decision's walk
// of two sorted arrays is held to.
func acceptableLevels(prefs customeragent.Preferences, offered func(level float64) (float64, bool)) []float64 {
	var out []float64
	for _, l := range prefs.Levels {
		if off, ok := offered(l); ok && off >= prefs.RequiredFor(l) {
			out = append(out, l)
		}
	}
	return out
}

// requiredMap is the customer's private table in desiremodel's shape.
func requiredMap(prefs customeragent.Preferences) map[float64]float64 {
	out := make(map[float64]float64, len(prefs.Levels))
	for _, l := range prefs.Levels {
		out[l] = prefs.RequiredFor(l)
	}
	return out
}

// TestDecisionMatchesReferenceOracles is the differential test over the three
// answers this tree has to "which cut-down does a greedy customer bid": the
// production decider (DecideCutDown, read here as the bid each Customer Agent
// actually sent in a full negotiation), the acceptability rule read literally
// (acceptableLevels), and the paper's Figure 5 composition,
// desiremodel.DecideBid. For every customer and every round's announced table
// of the paper scenario and of seeded synthetic fleets, all three must name
// the same cut-down — the equivalence a compiled decision function has to
// keep.
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
					acceptable := acceptableLevels(c.Prefs, round.Table.RewardFor)
					if len(acceptable) == 0 {
						t.Fatalf("round %d: %s accepts nothing, not even cut-down 0", round.Round, c.Name)
					}
					direct := acceptable[len(acceptable)-1]
					figure5, err := desiremodel.DecideBid(announced, requiredMap(c.Prefs), c.Prefs.ExpectedUse.KWhs(), nil)
					if err != nil {
						t.Fatal(err)
					}
					if production != direct || production != figure5.CutDown {
						t.Errorf("round %d, %s: production decider bid %v, max(acceptableLevels) %v, desiremodel.DecideBid %v",
							round.Round, c.Name, production, direct, figure5.CutDown)
					}
				}
			}
		})
	}
}

// holdoutPremium is the holdout strategy's reward premium (decide.go's
// holdoutFactor), restated as the specification the reference reads.
const holdoutPremium = 1.15

// referenceDecision is every strategy stated over acceptableLevels, one
// lookup per level: the reference DecideCutDown's walk of two sorted arrays
// is held to.
func referenceDecision(prefs customeragent.Preferences, strat customeragent.Strategy, table message.RewardTable, lastBid float64) float64 {
	best := lastBid
	next := lastBid // the smallest grid level above the previous bid
	for _, l := range prefs.Levels {
		if l > lastBid {
			next = l
			break
		}
	}
	for _, l := range acceptableLevels(prefs, table.RewardFor) {
		off, _ := table.RewardFor(l)
		req := prefs.RequiredFor(l)
		switch {
		case l <= best:
		case strat == customeragent.StrategyGreedy,
			strat == customeragent.StrategyIncremental && l == next,
			strat == customeragent.StrategyHoldout && (req == 0 || off >= holdoutPremium*req):
			best = l
		}
	}
	return best
}

// TestDecisionAtItsBoundaries samples the decision where it can turn, the
// way TestSpecificationMatchesImplementation samples Figure 2: two customers'
// requirement tables against every table whose reward at each feasible level
// is absent, at its requirement or at the holdout premium, or one float step
// either side of either; with and without cut-down 0, infeasible levels paid
// far above any requirement, and entries just off the grid. Every strategy
// from every previous bid must equal referenceDecision, and a greedy first
// bid must equal desiremodel.DecideBid, the paper's Figure 5.
func TestDecisionAtItsBoundaries(t *testing.T) {
	start := time.Date(1998, 1, 20, 17, 0, 0, 0, time.UTC)
	window := message.Window{Start: start, End: start.Add(2 * time.Hour)}
	strategies := []customeragent.Strategy{customeragent.StrategyGreedy, customeragent.StrategyIncremental, customeragent.StrategyHoldout}
	lastBids := []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5}
	offGrid := []float64{0.05, 0.25, math.Nextafter(0.3, 1), 0.95}
	for _, factor := range []float64{1, 1.37} {
		prefs, err := core.ScaledPaperPreferences(factor)
		if err != nil {
			t.Fatal(err)
		}
		var feasible []float64 // the levels above 0 with a finite requirement
		for _, l := range prefs.Levels {
			if l > 0 && !math.IsInf(prefs.RequiredFor(l), 1) {
				feasible = append(feasible, l)
			}
		}
		offers := make([][]float64, len(feasible)) // NaN: the level is not announced
		for i, l := range feasible {
			req := prefs.RequiredFor(l)
			offers[i] = []float64{math.NaN()}
			for _, v := range []float64{req, holdoutPremium * req} {
				offers[i] = append(offers[i], math.Nextafter(v, 0), v, math.Nextafter(v, math.Inf(1)))
			}
		}
		tables, decided := 0, 0
		pick := make([]int, len(feasible))
		for {
			for _, edges := range []bool{false, true} {
				var entries []message.RewardEntry
				for i, l := range feasible {
					if off := offers[i][pick[i]]; !math.IsNaN(off) {
						entries = append(entries, message.RewardEntry{CutDown: l, Reward: off})
					}
				}
				if edges {
					entries = append(entries, message.RewardEntry{CutDown: 0, Reward: 0})
					for _, l := range prefs.Levels {
						if math.IsInf(prefs.RequiredFor(l), 1) {
							entries = append(entries, message.RewardEntry{CutDown: l, Reward: 1e9})
						}
					}
					for _, l := range offGrid {
						entries = append(entries, message.RewardEntry{CutDown: l, Reward: 1e9})
					}
				}
				sort.Slice(entries, func(a, b int) bool { return entries[a].CutDown < entries[b].CutDown })
				table := message.RewardTable{Window: window, Round: 1, Entries: entries}
				if len(entries) == 0 {
					continue
				}
				if err := table.Validate(); err != nil {
					t.Fatalf("sampled table %v: %v", entries, err)
				}
				tables++
				for _, strat := range strategies {
					for _, last := range lastBids {
						got, err := customeragent.DecideCutDown(&prefs, strat, table, last)
						if want := referenceDecision(prefs, strat, table, last); err != nil || got != want {
							t.Fatalf("factor %v, %v from %v, table %v: DecideCutDown = %v, %v; reference %v",
								factor, strat, last, entries, got, err, want)
						}
						decided++
					}
				}
				if !edges {
					continue // Figure 5 is sampled once per reward pattern
				}
				announced := make(map[float64]float64, len(entries))
				for _, e := range entries {
					announced[e.CutDown] = e.Reward
				}
				figure5, err := desiremodel.DecideBid(announced, requiredMap(prefs), prefs.ExpectedUse.KWhs(), nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := referenceDecision(prefs, customeragent.StrategyGreedy, table, 0); figure5.CutDown != got {
					t.Fatalf("factor %v, table %v: greedy bid %v, desiremodel.DecideBid %v", factor, entries, got, figure5.CutDown)
				}
			}
			// Next reward pattern, odometer-style.
			i := 0
			for ; i < len(pick); i++ {
				if pick[i]++; pick[i] < len(offers[i]) {
					break
				}
				pick[i] = 0
			}
			if i == len(pick) {
				break
			}
		}
		t.Logf("factor %v: %d tables, %d decisions", factor, tables, decided)
	}
}

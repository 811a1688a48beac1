package customeragent

import (
	"fmt"
	"math"

	"loadbalance/internal/desire"
	"loadbalance/internal/kb"
	"loadbalance/internal/message"
)

// Strategy selects among acceptable cut-downs. The paper's prototype
// customer always "chooses the highest acceptable cut-down as its preferred
// cut-down" (Section 6.2) — StrategyGreedy. The other strategies implement
// the bidding-strategy variation the paper's own process model allows
// ("evaluation of the bid in the light of the Customer Agent's bidding
// strategy", Section 5.2.2).
type Strategy int

// Strategies.
const (
	// StrategyGreedy bids the highest acceptable cut-down immediately.
	StrategyGreedy Strategy = iota + 1
	// StrategyIncremental concedes one level per round ("one step forward"),
	// and only when that level is acceptable.
	StrategyIncremental
	// StrategyHoldout bids only when the offered reward exceeds the
	// requirement by the holdout factor, then bids greedily; it models
	// customers that wait for the UA to raise rewards.
	StrategyHoldout
)

// String renders the strategy name.
func (s Strategy) String() string {
	switch s {
	case StrategyGreedy:
		return "greedy"
	case StrategyIncremental:
		return "incremental"
	case StrategyHoldout:
		return "holdout"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// holdoutFactor is the reward premium a holdout customer waits for.
const holdoutFactor = 1.15

// decider is the CA's DESIRE decision kernel: a reasoning component holding
// the acceptability knowledge base. Its stores persist across rounds; since
// the monotonic concession protocol only ever raises rewards, stale
// announcement facts from earlier rounds can only mark levels acceptable
// that are acceptable under the newest table too, so accumulation is sound.
type decider struct {
	comp *desire.Composed
}

// Predicates of the CA decision ontology.
const (
	predRequired   = "required_reward"
	predAnnounced  = "announced_reward"
	predAcceptable = "acceptable_cutdown"
)

// The decision ontology and the acceptability knowledge base are the same
// for every customer: they are built once and shared, read-only. Only the
// composition and its information states are per customer.
var (
	decisionOnt  = mustDecisionOntology()
	decisionBase = mustDecisionBase()
)

func mustDecisionOntology() *kb.Ontology {
	ont := kb.NewOntology()
	for _, err := range []error{
		ont.DeclarePred(predRequired, kb.SortNumber, kb.SortNumber),
		ont.DeclarePred(predAnnounced, kb.SortNumber, kb.SortNumber),
		ont.DeclarePred(predAcceptable, kb.SortNumber),
	} {
		if err != nil {
			panic(fmt.Sprintf("customeragent: decision ontology: %v", err))
		}
	}
	return ont
}

func mustDecisionBase() *kb.Base {
	base, err := kb.NewBase("acceptability", kb.Rule{
		Name: "acceptable_if_offer_clears_requirement",
		If: []kb.Literal{
			kb.Pos(kb.A(predRequired, kb.V("Cut"), kb.V("Req"))),
			kb.Pos(kb.A(predAnnounced, kb.V("Cut"), kb.V("Off"))),
		},
		Guards: []kb.Guard{{Op: kb.OpGeq, Left: kb.V("Off"), Right: kb.V("Req")}},
		Then:   []kb.Atom{kb.A(predAcceptable, kb.V("Cut"))},
	})
	if err != nil {
		panic(fmt.Sprintf("customeragent: decision rule base: %v", err))
	}
	return base
}

// newDecider builds the decision composition for one customer.
func newDecider(prefs Preferences) (*decider, error) {
	comp := desire.NewComposed("determine_bid", decisionOnt, 0)
	reason := desire.NewReasoning("determine_acceptability", decisionOnt, decisionBase, predAcceptable)
	if err := comp.AddChild(reason); err != nil {
		return nil, err
	}
	links := []desire.Link{
		{
			Name: "announcement_in",
			From: desire.Endpoint{Port: desire.In},
			To:   desire.Endpoint{Component: "determine_acceptability", Port: desire.In},
		},
		{
			Name: "acceptability_out",
			From: desire.Endpoint{Component: "determine_acceptability", Port: desire.Out},
			To:   desire.Endpoint{Port: desire.Out},
		},
	}
	for _, l := range links {
		if err := comp.AddLink(l); err != nil {
			return nil, err
		}
	}
	if err := comp.SetControl([]desire.Step{
		{Transfer: "announcement_in"},
		{Activate: "determine_acceptability"},
		{Transfer: "acceptability_out"},
	}); err != nil {
		return nil, err
	}

	// Seed the customer's private requirements (finite levels only; an
	// infeasible level simply has no required_reward fact and can never
	// become acceptable).
	for _, l := range prefs.Levels {
		r := prefs.RequiredFor(l)
		if math.IsInf(r, 1) {
			continue
		}
		fact := kb.A(predRequired, kb.N(l), kb.N(r))
		if err := comp.Input().Assert(fact, kb.True); err != nil {
			return nil, err
		}
	}
	return &decider{comp: comp}, nil
}

// acceptableLevels feeds an announced table into the composition and returns
// the acceptable cut-down levels, ascending.
func (d *decider) acceptableLevels(table message.RewardTable) ([]float64, error) {
	for _, e := range table.Entries {
		fact := kb.A(predAnnounced, kb.N(e.CutDown), kb.N(e.Reward))
		if err := d.comp.Input().Assert(fact, kb.True); err != nil {
			return nil, err
		}
	}
	if _, err := d.comp.Activate(); err != nil {
		return nil, err
	}
	out := make([]float64, 0, d.comp.Output().Len())
	_ = d.comp.Output().Each(func(f kb.Fact) error { // the callback returns no error
		if f.Atom.Pred == predAcceptable && f.Truth == kb.True {
			out = append(out, f.Atom.Args[0].Num)
		}
		return nil
	})
	sortFloats(out)
	return out, nil
}

// sortFloats sorts ascending without pulling in sort for a 10-element slice
// in the hot path.
func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// DecideCutDown picks this round's bid given the announced table, the
// previous bid (monotonic floor) and the strategy.
func (d *decider) DecideCutDown(prefs Preferences, strat Strategy, table message.RewardTable, lastBid float64) (float64, error) {
	acceptable, err := d.acceptableLevels(table)
	if err != nil {
		return 0, err
	}
	best := lastBid // never regress (monotonic concession)
	switch strat {
	case StrategyGreedy:
		for _, l := range acceptable {
			if l > best {
				best = l
			}
		}
	case StrategyIncremental:
		// Concede exactly one grid step beyond the previous bid, when
		// acceptable.
		next := nextLevel(prefs.Levels, lastBid)
		for _, l := range acceptable {
			if l == next && l > best {
				best = l
			}
		}
	case StrategyHoldout:
		for _, l := range acceptable {
			off, ok := table.RewardFor(l)
			if !ok {
				continue
			}
			req := prefs.RequiredFor(l)
			if req == 0 || off >= holdoutFactor*req {
				if l > best {
					best = l
				}
			}
		}
	default:
		return 0, fmt.Errorf("%w: %d", ErrBadStrategy, int(strat))
	}
	return best, nil
}

// nextLevel returns the smallest grid level strictly above cur (or cur when
// already at the top).
func nextLevel(levels []float64, cur float64) float64 {
	for _, l := range levels {
		if l > cur {
			return l
		}
	}
	return cur
}

// DecideOffer evaluates a take-it-or-leave-it offer: the CA compares the
// electricity bill if it declines (normal price for everything) against the
// bill plus comfort cost if it accepts (low price up to the cap, and the
// cheaper of high-priced excess or shedding the excess).
func DecideOffer(prefs Preferences, terms message.OfferTerms) bool {
	use := prefs.ExpectedUse.KWhs()
	if use <= 0 {
		return true // nothing at stake; the discount can only help
	}
	cap := terms.AllowanceKWh * terms.XMax
	declineCost := terms.NormalPrice * use
	within := use
	if within > cap {
		within = cap
	}
	acceptCost := terms.LowPrice * within
	if excess := use - cap; excess > 0 {
		payThrough := terms.HighPrice * excess
		shed := prefs.ShedCost(unitsEnergy(excess))
		if shed < payThrough {
			acceptCost += shed
		} else {
			acceptCost += payThrough
		}
	}
	return acceptCost < declineCost
}

// DecideEnergyBid computes this round's yMin for the request-for-bids
// method: shed load stepwise (one grid level per round) while the avoided
// peak-price premium exceeds the comfort cost of the step.
func DecideEnergyBid(prefs Preferences, req message.BidRequest, committedYMin float64) float64 {
	use := prefs.ExpectedUse.KWhs()
	if use <= 0 {
		return committedYMin
	}
	floor := use * (1 - prefs.MaxCutDown)
	step := use * gridStep(prefs.Levels)
	proposed := committedYMin - step
	if proposed < floor {
		proposed = floor
	}
	if proposed >= committedYMin {
		return committedYMin // stand still
	}
	// Step forward only when the premium saved beats the comfort cost.
	saved := (req.HighPrice - req.LowPrice) * (committedYMin - proposed)
	cost := prefs.ShedCost(unitsEnergy(committedYMin - proposed))
	if math.IsInf(cost, 1) || cost >= saved {
		return committedYMin
	}
	return proposed
}

// gridStep returns the spacing of the preference grid (assumed uniform; the
// first non-zero level).
func gridStep(levels []float64) float64 {
	for _, l := range levels {
		if l > 0 {
			return l
		}
	}
	return 0.1
}

package customeragent

import (
	"fmt"
	"math"

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

// DecideCutDown picks this round's bid given the announced table, the
// previous bid (monotonic floor) and the strategy. Acceptability is judged
// against the announced table alone: a grid level is acceptable when the
// table offers a reward at exactly that level and the reward is no lower
// than the customer's requirement (Section 6.2). The table must be one
// Validate accepts, so its entries are strictly increasing in CutDown, as
// the grid is; every strategy is then one walk of the two sorted arrays.
// The paper's knowledge-based composition of the greedy decision is
// internal/desiremodel, held equal to this function by
// TestDecisionMatchesReferenceOracles.
func DecideCutDown(prefs *Preferences, strat Strategy, table message.RewardTable, lastBid float64) (float64, error) {
	var next float64
	switch strat {
	case StrategyGreedy, StrategyHoldout:
	case StrategyIncremental:
		// Concede exactly one grid step beyond the previous bid, when
		// acceptable.
		next = nextLevel(prefs.Levels, lastBid)
	default:
		return 0, fmt.Errorf("%w: %d", ErrBadStrategy, int(strat))
	}
	best := lastBid // never regress (monotonic concession)
	entries, j := table.Entries, 0
	for i, req := range prefs.required {
		l := prefs.Levels[i]
		for j < len(entries) && entries[j].CutDown < l {
			j++
		}
		if j == len(entries) {
			break
		}
		off := entries[j].Reward
		if entries[j].CutDown != l || off < req || l <= best {
			continue // not announced, not acceptable, or no concession
		}
		switch strat {
		case StrategyGreedy:
			best = l
		case StrategyIncremental:
			if l == next {
				best = l
			}
		case StrategyHoldout:
			if req == 0 || off >= holdoutFactor*req {
				best = l
			}
		}
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
func DecideOffer(prefs *Preferences, terms message.OfferTerms) bool {
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
func DecideEnergyBid(prefs *Preferences, req message.BidRequest, committedYMin float64) float64 {
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

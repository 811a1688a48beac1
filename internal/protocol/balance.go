// Package protocol implements the negotiation machinery of the paper: the
// balance-prediction formulae of Section 6, the reward-table update rule
// (monotonic concession, Section 3.1/3.2.3), and session state machines for
// all three announcement methods the Utility Agent can employ (offer,
// request for bids, announce reward tables).
//
// The package is transport-agnostic: sessions are pure state machines that
// the core engine drives with decoded messages, which keeps every protocol
// rule unit-testable without goroutines.
package protocol

import (
	"errors"
	"fmt"
	"sort"

	"loadbalance/internal/units"
)

// Errors reported by protocol operations.
var (
	ErrSessionClosed   = errors.New("protocol: session is closed")
	ErrUnknownCustomer = errors.New("protocol: unknown customer")
	ErrWrongRound      = errors.New("protocol: bid for wrong round")
	ErrNonMonotonicBid = errors.New("protocol: bid regresses (monotonic concession violated)")
	ErrBadParams       = errors.New("protocol: invalid parameters")
	ErrBadTable        = errors.New("protocol: invalid reward table")
)

// CustomerLoad is the Utility Agent's model of one customer inside a
// negotiation window: the predicted use, the contractual allowed use, and
// the cut-down the customer has currently bid (0 before any bid).
type CustomerLoad struct {
	Predicted units.Energy
	Allowed   units.Energy
	CutDown   float64
	Responded bool
}

// UseWithCutDown evaluates the paper's predicted_use_with_cutdown(c):
//
//	predicted_use(c)                 if (1-cutdown(c))·allowed_use(c) >= predicted_use(c)
//	(1-cutdown(c))·allowed_use(c)    otherwise
//
// i.e. the cut-down caps usage at a fraction of the allowance, and a cap
// above the prediction does not bind.
func UseWithCutDown(c CustomerLoad) units.Energy {
	cap := c.Allowed.Scale(1 - c.CutDown)
	if cap >= c.Predicted {
		return c.Predicted
	}
	return cap
}

// PredictedOveruse evaluates predicted_overuse = Σ_c use_with_cutdown(c) −
// normal_use, in kWh. The value is negative when predicted demand sits below
// normal capacity. The sum runs in sorted-name order: float addition is not
// associative, so summing in map-iteration order makes two runs of the same
// seeded scenario disagree in the last ulp — and every reward table derived
// from the overuse with them.
//
// A session sums over its Roster instead, whose index order is this sorted
// order, so the two agree bit for bit.
func PredictedOveruse(loads map[string]CustomerLoad, normalUse units.Energy) float64 {
	total := 0.0
	for _, n := range sortedLoadNames(loads) {
		total += UseWithCutDown(loads[n]).KWhs()
	}
	return total - normalUse.KWhs()
}

// sortedLoadNames returns the fleet's customer names in sorted order: every
// float accumulation over a load map iterates these, never the map itself,
// so repeated runs of the same scenario stay bitwise identical (enforced by
// gridlint's floatmaprange analyzer). It is also a Roster's order, which is
// how NewRoster builds one.
func sortedLoadNames(loads map[string]CustomerLoad) []string {
	names := make([]string, 0, len(loads))
	for n := range loads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// OveruseRatio evaluates overuse = predicted_overuse / normal_use. A zero
// normal use yields zero.
func OveruseRatio(loads map[string]CustomerLoad, normalUse units.Energy) float64 {
	if normalUse == 0 {
		return 0
	}
	return PredictedOveruse(loads, normalUse) / normalUse.KWhs()
}

// Params holds the Utility Agent's negotiation parameters for the reward
// table method.
type Params struct {
	// Beta determines "how steeply the reward values increase" (Section 6).
	Beta float64
	// MaxRewardSlope defines max_reward per cut-down level as
	// MaxRewardSlope × cutdown: the most the UA will ever pay for a given
	// saving. The paper's max_reward is "determined in advance".
	MaxRewardSlope float64
	// Epsilon ends the negotiation when the largest reward increase in a
	// round is ≤ Epsilon; the paper uses 1.
	Epsilon float64
	// AllowedOveruseRatio is the acceptable residual overuse (fraction of
	// normal use); the peak is "satisfactorily low" at or below it.
	AllowedOveruseRatio float64
	// MaxRounds bounds the negotiation as a safety net; 0 means the default.
	MaxRounds int
	// MinResponses is the "acceptable number of bids" before the UA closes a
	// round even if some customers stayed silent; 0 means all customers.
	MinResponses int
	// AdaptiveBeta enables the Section 7 extension ("the effects of
	// dynamically varying the value of beta on the basis of experience"):
	// when a round reduces the overuse by less than AdaptThreshold
	// (relative), the session scales beta up by AdaptFactor for subsequent
	// updates, accelerating concession when customers stall.
	AdaptiveBeta bool
	// AdaptThreshold is the minimum relative overuse reduction per round
	// considered progress (default 0.1).
	AdaptThreshold float64
	// AdaptFactor multiplies beta after a stalled round (default 1.5,
	// compounded, capped at 8× the base beta).
	AdaptFactor float64
	// ContinuousBids accepts cut-down bids at any fraction in [0,1] rather
	// than only at the announced table's levels, with rewards linearly
	// interpolated between rows. Concentrator Agents in a hierarchical
	// (sharded) negotiation bid the effective cut-down of a whole shard,
	// which is a capacity-weighted aggregate and rarely lands on a grid
	// level; direct customers keep bidding grid levels.
	ContinuousBids bool
}

const defaultMaxRounds = 64

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.Beta <= 0:
		return fmt.Errorf("%w: beta %v must be positive", ErrBadParams, p.Beta)
	case p.MaxRewardSlope <= 0:
		return fmt.Errorf("%w: max reward slope %v must be positive", ErrBadParams, p.MaxRewardSlope)
	case p.Epsilon < 0:
		return fmt.Errorf("%w: epsilon %v must be non-negative", ErrBadParams, p.Epsilon)
	case p.AllowedOveruseRatio < 0:
		return fmt.Errorf("%w: allowed overuse %v must be non-negative", ErrBadParams, p.AllowedOveruseRatio)
	case p.MaxRounds < 0:
		return fmt.Errorf("%w: max rounds %d must be non-negative", ErrBadParams, p.MaxRounds)
	case p.MinResponses < 0:
		return fmt.Errorf("%w: min responses %d must be non-negative", ErrBadParams, p.MinResponses)
	case p.AdaptThreshold < 0:
		return fmt.Errorf("%w: adapt threshold %v must be non-negative", ErrBadParams, p.AdaptThreshold)
	case p.AdaptFactor < 0:
		return fmt.Errorf("%w: adapt factor %v must be non-negative", ErrBadParams, p.AdaptFactor)
	}
	return nil
}

// adaptThreshold returns the effective stall threshold.
func (p Params) adaptThreshold() float64 {
	if p.AdaptThreshold == 0 {
		return 0.1
	}
	return p.AdaptThreshold
}

// adaptFactor returns the effective beta multiplier.
func (p Params) adaptFactor() float64 {
	if p.AdaptFactor == 0 {
		return 1.5
	}
	return p.AdaptFactor
}

// maxBetaScale caps compounded adaptive scaling.
const maxBetaScale = 8.0

// MaxRewardAt returns the reward ceiling for one cut-down level.
func (p Params) MaxRewardAt(cutDown float64) float64 {
	return p.MaxRewardSlope * cutDown
}

// maxRounds returns the effective round bound.
func (p Params) maxRounds() int {
	if p.MaxRounds <= 0 {
		return defaultMaxRounds
	}
	return p.MaxRounds
}

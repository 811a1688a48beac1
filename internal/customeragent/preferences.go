// Package customeragent implements the Customer Agent (CA) of the paper: it
// maintains the customer's private cut-down-reward table, decides how to
// answer each kind of announcement from the Utility Agent, and negotiates
// with its Resource Consumer Agents (via internal/resource) to learn how
// much load it can shed.
//
// The decision follows the paper's own decomposition (Figure 5, "determine
// bid"): acceptability ("each cut-down for which the required reward value
// of the customer is lower than the reward offered by the Utility Agent, is
// an acceptable cut-down", Section 6.2) is a direct function of the
// announced table and the preferences; the bid selection among acceptable
// cut-downs is a calculation task parameterised by a bidding strategy. The
// same decision as a DESIRE composition of knowledge bases is
// internal/desiremodel, the reference this package is tested against.
package customeragent

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"loadbalance/internal/resource"
	"loadbalance/internal/units"
)

// Errors reported by the package.
var (
	ErrBadPreferences = errors.New("customeragent: invalid preferences")
	ErrBadStrategy    = errors.New("customeragent: unknown strategy")
)

// Preferences is the customer's private valuation: for each cut-down level
// the minimum acceptable reward (+Inf where the cut is infeasible), plus the
// aggregates used for offer and request-for-bids decisions.
type Preferences struct {
	// Levels is the cut-down grid, strictly increasing, starting at 0.
	Levels []float64
	// required[i] is the minimum acceptable reward at Levels[i]: the two
	// arrays are the private table, by index, so a decision walks them
	// beside the announced table's entries (DecideCutDown). Only
	// NewPreferences fills it: a Preferences literal requires +Inf
	// everywhere, so it accepts no cut-down.
	required []float64
	// MaxCutDown is the largest feasible cut-down fraction.
	MaxCutDown float64
	// ExpectedUse is the customer's own expectation of its energy use in the
	// negotiation window; it converts between cut-down fractions and kWh.
	ExpectedUse units.Energy
	// MarginalComfortCost approximates the comfort cost per shed kWh of the
	// first increment of shedding — used for offer/RFB decisions. It is +Inf
	// until ExpectedUse is known (WithExpectedUse or FromReport).
	MarginalComfortCost float64
}

// NewPreferences validates and constructs preferences from an explicit
// table, as when reproducing the paper's hand-written customer (Figures 8-9:
// at least 10 for 0.3, at least 21 for 0.4).
func NewPreferences(levels []float64, required map[float64]float64) (Preferences, error) {
	if len(levels) == 0 {
		return Preferences{}, fmt.Errorf("%w: no levels", ErrBadPreferences)
	}
	prev := -1.0
	for _, l := range levels {
		if l < 0 || l > 1 || math.IsNaN(l) || l <= prev {
			return Preferences{}, fmt.Errorf("%w: levels %v", ErrBadPreferences, levels)
		}
		prev = l
	}
	if levels[0] != 0 {
		return Preferences{}, fmt.Errorf("%w: grid must start at 0", ErrBadPreferences)
	}
	// One array holds both halves: a customer's table is one allocation.
	n := len(levels)
	both := make([]float64, 2*n)
	p := Preferences{
		Levels:              both[:n:n],
		required:            both[n:],
		MarginalComfortCost: math.Inf(1),
	}
	copy(p.Levels, levels)
	prevReq := 0.0
	for i, l := range levels {
		r, ok := required[l]
		if !ok {
			r = math.Inf(1)
		}
		if r < 0 || math.IsNaN(r) {
			return Preferences{}, fmt.Errorf("%w: required(%v) = %v", ErrBadPreferences, l, r)
		}
		if !math.IsInf(r, 1) {
			if r+1e-9 < prevReq {
				return Preferences{}, fmt.Errorf("%w: required rewards must be non-decreasing", ErrBadPreferences)
			}
			prevReq = r
			p.MaxCutDown = l
		}
		p.required[i] = r
	}
	if p.required[0] != 0 {
		return Preferences{}, fmt.Errorf("%w: required(0) must be 0", ErrBadPreferences)
	}
	return p, nil
}

// WithExpectedUse returns a copy of the preferences knowing the customer's
// expected energy use, which fixes the marginal comfort cost per kWh.
func (p Preferences) WithExpectedUse(e units.Energy) Preferences {
	p.ExpectedUse = e
	p.MarginalComfortCost = p.marginalCostPerKWh()
	return p
}

// FromReport derives preferences from the customer's Resource Consumer
// Agents (the normal path in simulations).
func FromReport(rep resource.Report, levels []float64, margin float64) (Preferences, error) {
	required, err := rep.RequiredRewards(levels, margin)
	if err != nil {
		return Preferences{}, fmt.Errorf("customeragent: %w", err)
	}
	p, err := NewPreferences(levels, required)
	if err != nil {
		return Preferences{}, err
	}
	return p.WithExpectedUse(rep.TotalUse), nil
}

// marginalCostPerKWh estimates the comfort cost per kWh of the first
// feasible shedding increment.
func (p Preferences) marginalCostPerKWh() float64 {
	if p.ExpectedUse <= 0 {
		return math.Inf(1)
	}
	for i, r := range p.required {
		if l := p.Levels[i]; l > 0 && !math.IsInf(r, 1) {
			return r / (l * p.ExpectedUse.KWhs())
		}
	}
	return math.Inf(1) // fully inflexible customer
}

// RequiredFor returns the minimum acceptable reward at a level (+Inf when
// the level is not on the grid or infeasible).
func (p Preferences) RequiredFor(level float64) float64 {
	i := sort.SearchFloat64s(p.Levels, level)
	if i >= len(p.required) || p.Levels[i] != level {
		return math.Inf(1)
	}
	return p.required[i]
}

// Surplus returns the customer's gain at a level for an offered reward
// (offered − required); negative means unacceptable.
func (p Preferences) Surplus(level, offeredReward float64) float64 {
	return offeredReward - p.RequiredFor(level)
}

// ShedCost returns the approximate comfort cost of shedding the given
// energy, priced at the marginal comfort cost.
func (p Preferences) ShedCost(e units.Energy) float64 {
	if math.IsInf(p.MarginalComfortCost, 1) {
		return math.Inf(1)
	}
	return e.KWhs() * p.MarginalComfortCost
}

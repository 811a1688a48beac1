package protocol

import (
	"fmt"

	"loadbalance/internal/units"
)

// This file supports reusing a completed session's state to open a new
// session over part of the fleet: live operation detects that some customers
// drifted from their negotiated profile and re-negotiates only those, while
// the rest of the fleet keeps its awards. The helpers derive the partial
// session's inputs — the subset's customer models carrying their committed
// cut-downs, and the capacity left over once the untouched complement is held
// at its negotiated use.

// ApplyBids returns a copy of loads with each named customer's committed
// cut-down merged in (Responded set). Customers without a bid keep cut-down
// 0, exactly as the flat session models silent customers.
func ApplyBids(loads map[string]CustomerLoad, bids map[string]float64) map[string]CustomerLoad {
	out := make(map[string]CustomerLoad, len(loads))
	for name, l := range loads {
		if cd, ok := bids[name]; ok {
			l.CutDown = cd
			l.Responded = true
		}
		out[name] = l
	}
	return out
}

// SubsetLoads extracts the named customers' models from a fleet. Unknown
// names are an error: a partial session over customers the prior session
// never modelled has no state to reuse.
func SubsetLoads(loads map[string]CustomerLoad, names []string) (map[string]CustomerLoad, error) {
	out := make(map[string]CustomerLoad, len(names))
	for _, n := range names {
		l, ok := loads[n]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownCustomer, n)
		}
		out[n] = l
	}
	return out, nil
}

// minResidualFraction floors the residual capacity handed to a partial
// session: when the untouched complement already consumes (almost) all of
// normal use, the partial session still needs a positive target to negotiate
// against — the floor makes it escalate to the reward ceiling instead of
// failing validation.
const minResidualFraction = 0.01

// ResidualNormalUse returns the normal use available to a partial session:
// the fleet's normal use minus complement, the predicted use of every
// customer outside the session under its committed cut-downs, summed in
// roster order (the sorted-name order PredictedOveruse fixes, which keeps
// repeated runs of a seeded live loop bitwise reproducible). The result is
// floored at a small positive fraction of the fleet capacity, so a partial
// session is always runnable; a converged partial session then keeps the
// whole fleet within (1+allowed_overuse)·normal_use, because the
// complement's use is already accounted for.
func ResidualNormalUse(normalUse, complement units.Energy) units.Energy {
	residual := normalUse.Sub(complement)
	if floor := normalUse.Scale(minResidualFraction); residual < floor {
		residual = floor
	}
	return residual
}

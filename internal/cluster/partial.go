package cluster

import (
	"fmt"

	"loadbalance/internal/core"
	"loadbalance/internal/units"
)

// SubScenario derives an incremental re-negotiation scenario from a parent
// scenario: only the named members take part, under a fresh session id and a
// residual capacity target, with each member's demand rescaled to what live
// metering measured. Preferences, strategies and negotiation parameters are
// reused from the parent, so a partial fleet negotiates under exactly the
// rules it originally agreed to.
//
// scale multiplies a member's predicted AND allowed use (missing names keep
// factor 1): an allowance that tracks demand keeps cut-down fractions
// commensurable across sessions, so the paper's balance formulae apply to the
// re-negotiation unchanged.
func SubScenario(s core.Scenario, members []string, scale map[string]float64, normalUse units.Energy, sessionID string) (core.Scenario, error) {
	if len(members) == 0 {
		return core.Scenario{}, fmt.Errorf("%w: no members for partial scenario", ErrBadConfig)
	}
	if sessionID == "" {
		return core.Scenario{}, fmt.Errorf("%w: empty partial session id", ErrBadConfig)
	}
	if normalUse <= 0 {
		return core.Scenario{}, fmt.Errorf("%w: partial normal use %v", ErrBadConfig, normalUse)
	}
	want := make(map[string]bool, len(members))
	for _, n := range members {
		want[n] = true
	}
	sub := s
	sub.SessionID = sessionID
	sub.NormalUse = normalUse
	sub.Customers = make([]core.CustomerSpec, 0, len(members))
	for _, spec := range s.Customers {
		if !want[spec.Name] {
			continue
		}
		if f, ok := scale[spec.Name]; ok {
			if f < 0 {
				return core.Scenario{}, fmt.Errorf("%w: scale %v for %q", ErrBadConfig, f, spec.Name)
			}
			spec.Predicted = spec.Predicted.Scale(f)
			spec.Allowed = spec.Allowed.Scale(f)
		}
		sub.Customers = append(sub.Customers, spec)
		delete(want, spec.Name)
	}
	// Name the first unknown member in the caller's order: a map range would
	// name a different one from run to run.
	for _, n := range members {
		if want[n] {
			return core.Scenario{}, fmt.Errorf("%w: member %q not in parent scenario", ErrBadConfig, n)
		}
	}
	return sub, nil
}

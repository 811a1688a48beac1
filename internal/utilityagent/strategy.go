// Package utilityagent implements the Utility Agent (UA): the pro-active
// party that predicts the consumption/production balance, decides whether a
// coming peak warrants negotiation, selects an announcement method, and
// drives the negotiation sessions defined in internal/protocol over the bus.
//
// The structure mirrors the paper's task decomposition (Section 5.1):
//
//   - own process control → determine general negotiation strategy
//     (ChooseMethod) and evaluate negotiation process (the Result);
//   - agent specific tasks → determine predicted balance (EvaluatePrediction);
//   - cooperation management → determine announcement / determine bid
//     acceptance (the session drivers in agent.go);
//   - agent interaction management → the agent.Runtime;
//   - maintenance of agent information → agent.Model (response statistics,
//     kept for the one session a Utility Agent lives).
package utilityagent

import (
	"errors"
	"fmt"
	"time"

	"loadbalance/internal/protocol"
	"loadbalance/internal/units"
)

// Errors reported by the package.
var (
	ErrBadConfig = errors.New("utilityagent: invalid configuration")
)

// Method is the announcement method for a negotiation (Section 3.2).
type Method int

// Methods.
const (
	// MethodAuto lets the UA pick via ChooseMethod (generate and select).
	MethodAuto Method = iota
	// MethodOffer is the one-shot take-it-or-leave-it offer (3.2.1).
	MethodOffer
	// MethodRequestForBids is the iterated free bid method (3.2.2).
	MethodRequestForBids
	// MethodRewardTable is the announce-reward-tables method (3.2.3) used by
	// the paper's prototype.
	MethodRewardTable
)

// String renders the method name.
func (m Method) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodOffer:
		return "offer"
	case MethodRequestForBids:
		return "request_for_bids"
	case MethodRewardTable:
		return "reward_table"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Situation is the input to strategy selection: what the UA knows when a
// peak is predicted.
type Situation struct {
	// LeadTime is how long before the peak window starts.
	LeadTime time.Duration
	// OveruseRatio is the predicted overuse fraction.
	OveruseRatio float64
	// Customers is the number of Customer Agents addressed.
	Customers int
	// ResponseRate is the historically observed positive-response rate;
	// zero means no history, for which ChooseMethod assumes the paper's
	// rule of thumb, "normally about 70%". A Utility Agent lives for one
	// session and starts with an empty agent.Model, so MethodAuto passes
	// zero here today: no response statistics carry from one session's
	// Result into the next session's Config.
	ResponseRate float64
}

// Default strategy thresholds. The offer method "is very fast, because only
// one round of negotiation is required" and so is the only choice shortly
// before a peak; the request-for-bids method "cannot be made shortly before
// a peak is expected".
const (
	// offerLeadTime is the lead time below which only the offer method fits.
	offerLeadTime = 15 * time.Minute
	// rfbLeadTime is the lead time above which the slow request-for-bids
	// method becomes admissible.
	rfbLeadTime = 6 * time.Hour
	// smallOveruse is an overuse ratio small enough that the blunt offer
	// method is expected to clear it without per-customer targeting.
	smallOveruse = 0.10
)

// ChooseMethod implements "determine general negotiation strategy" by the
// generate-and-select approach (Section 5.1.3): every admissible method is
// generated, a predicted outcome is attached, and the best is selected.
//
// The decision logic encodes Section 3.2.4's evaluation: offer is fastest
// but gives customers no influence; request for bids maximises customer
// influence but is slow; reward tables sit in between and are the default.
func ChooseMethod(s Situation) Method {
	if s.LeadTime < offerLeadTime {
		return MethodOffer // nothing else can finish in time
	}
	rate := s.ResponseRate
	if rate <= 0 {
		rate = 0.7 // the paper's prior
	}
	// Predicted relative reduction from an offer: responders cap around the
	// announced fraction; a blunt instrument that suffices for small peaks.
	if s.OveruseRatio*(1-rate*0.5) <= smallOveruse && s.OveruseRatio <= smallOveruse*2 {
		return MethodOffer
	}
	// With a long horizon and few customers the fine-grained RFB method can
	// afford its many rounds.
	if s.LeadTime >= rfbLeadTime && s.Customers <= 50 {
		return MethodRequestForBids
	}
	return MethodRewardTable
}

// EvaluatePrediction implements the agent-specific task "evaluate
// prediction": whether the predicted overuse warrants starting a negotiation
// at all ("whether the predicted overuse is high enough to warrant the
// effort involved", Section 5.1.2).
func EvaluatePrediction(loads map[string]protocol.CustomerLoad, normalUse units.Energy, warrantRatio float64) (ratio float64, negotiate bool) {
	ratio = protocol.OveruseRatio(loads, normalUse)
	return ratio, ratio > warrantRatio
}

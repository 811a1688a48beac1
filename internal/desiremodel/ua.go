// Package desiremodel contains executable DESIRE compositions of the
// paper's process-abstraction figures: the Utility Agent's own process
// control (Figure 2) and cooperation management (Figure 3), and the
// Customer Agent's own process control (Figure 4) and cooperation
// management (Figure 5).
//
// These compositions are the *declarative specification* of the agents:
// components, information links and task control exactly as the figures
// draw them, with knowledge bases expressing the decision knowledge in
// rules. The operational agents (internal/utilityagent,
// internal/customeragent) implement the same decisions in plain Go for the
// hot path; the tests in this package check the two stay consistent — the
// compositional-verification discipline of the companion ICMAS'98 paper.
//
// It is the reference specification, reached from tests only
// (customeragent's TestDecisionMatchesReferenceOracles holds every production
// bid equal to DecideBid): no production binary links this package, and CI
// (.github/scripts/orphan-packages.sh) enforces that.
package desiremodel

import (
	"fmt"

	"loadbalance/internal/desire"
	"loadbalance/internal/kb"
)

// Method constants mirrored as kb constants of sort "method".
const (
	MethodOffer       = "offer"
	MethodRFB         = "request_for_bids"
	MethodRewardTable = "reward_table"
)

// Acceptance strategy constants of sort "acceptance".
const (
	AcceptCountYes      = "count_yes"
	AcceptMonotonicBids = "accept_monotonic_bids"
	AcceptMonotonicYMin = "accept_monotonic_ymin"
)

// uaOntology declares the UA model's information types.
func uaOntology() (*kb.Ontology, error) {
	o := kb.NewOntology()
	steps := []error{
		o.DeclareSort("method", kb.SortAny),
		o.DeclareSort("acceptance", kb.SortAny),
		o.DeclareSort("verdict", kb.SortAny),
		o.DeclareConst(MethodOffer, "method"),
		o.DeclareConst(MethodRFB, "method"),
		o.DeclareConst(MethodRewardTable, "method"),
		o.DeclareConst(AcceptCountYes, "acceptance"),
		o.DeclareConst(AcceptMonotonicBids, "acceptance"),
		o.DeclareConst(AcceptMonotonicYMin, "acceptance"),
		o.DeclareConst("successful", "verdict"),
		o.DeclareConst("needs_review", "verdict"),

		// Situation inputs.
		o.DeclarePred("lead_time_minutes", kb.SortNumber),
		o.DeclarePred("overuse_ratio", kb.SortNumber),
		o.DeclarePred("customer_count", kb.SortNumber),
		// Decisions.
		o.DeclarePred("chosen_method", "method"),
		o.DeclarePred("bid_acceptance", "acceptance"),
		// Evaluation inputs and output.
		o.DeclarePred("outcome_converged", kb.SortNumber), // 1 or 0
		o.DeclarePred("rounds_used", kb.SortNumber),
		o.DeclarePred("process_verdict", "verdict"),
	}
	for _, err := range steps {
		if err != nil {
			return nil, fmt.Errorf("desiremodel: ua ontology: %w", err)
		}
	}
	return o, nil
}

// smallPeak is the largest overuse ratio the offer method is expected to
// clear: internal/utilityagent predicts an offer to remove half of what the
// responders (the paper's 70% prior) carry and wants what is left to be at
// most 0.1, so the peak itself may be 0.1 / (1 − 0.7·0.5) ≈ 0.154.
const smallPeak = 0.1 / (1 - 0.7*0.5)

// strategyRules encodes "determine announcement method": the Section 3.2.4
// evaluation as knowledge. Thresholds mirror internal/utilityagent: the
// offer when time is short (< 15 minutes) or the peak small (≤ smallPeak);
// request-for-bids with a long horizon (≥ 360 minutes) and a small fleet
// (≤ 50); reward tables otherwise.
func strategyRules() (*kb.Base, error) {
	return kb.NewBase("determine_announcement_method",
		kb.Rule{
			Name: "offer_when_time_short",
			If: []kb.Literal{
				kb.Pos(kb.A("lead_time_minutes", kb.V("T"))),
			},
			Guards: []kb.Guard{{Op: kb.OpLt, Left: kb.V("T"), Right: kb.N(15)}},
			Then:   []kb.Atom{kb.A("chosen_method", kb.C(MethodOffer))},
		},
		kb.Rule{
			Name: "offer_when_peak_small",
			If: []kb.Literal{
				kb.Pos(kb.A("lead_time_minutes", kb.V("T"))),
				kb.Pos(kb.A("overuse_ratio", kb.V("O"))),
			},
			Guards: []kb.Guard{
				{Op: kb.OpGeq, Left: kb.V("T"), Right: kb.N(15)},
				{Op: kb.OpLeq, Left: kb.V("O"), Right: kb.N(smallPeak)},
			},
			Then: []kb.Atom{kb.A("chosen_method", kb.C(MethodOffer))},
		},
		kb.Rule{
			Name: "rfb_with_long_horizon_small_fleet",
			If: []kb.Literal{
				kb.Pos(kb.A("lead_time_minutes", kb.V("T"))),
				kb.Pos(kb.A("overuse_ratio", kb.V("O"))),
				kb.Pos(kb.A("customer_count", kb.V("N"))),
			},
			Guards: []kb.Guard{
				{Op: kb.OpGeq, Left: kb.V("T"), Right: kb.N(360)},
				{Op: kb.OpGt, Left: kb.V("O"), Right: kb.N(smallPeak)},
				{Op: kb.OpLeq, Left: kb.V("N"), Right: kb.N(50)},
			},
			Then: []kb.Atom{kb.A("chosen_method", kb.C(MethodRFB))},
		},
		kb.Rule{
			Name: "reward_tables_default_mid_horizon",
			If: []kb.Literal{
				kb.Pos(kb.A("lead_time_minutes", kb.V("T"))),
				kb.Pos(kb.A("overuse_ratio", kb.V("O"))),
			},
			Guards: []kb.Guard{
				{Op: kb.OpGeq, Left: kb.V("T"), Right: kb.N(15)},
				{Op: kb.OpLt, Left: kb.V("T"), Right: kb.N(360)},
				{Op: kb.OpGt, Left: kb.V("O"), Right: kb.N(smallPeak)},
			},
			Then: []kb.Atom{kb.A("chosen_method", kb.C(MethodRewardTable))},
		},
		kb.Rule{
			Name: "reward_tables_default_large_fleet",
			If: []kb.Literal{
				kb.Pos(kb.A("lead_time_minutes", kb.V("T"))),
				kb.Pos(kb.A("overuse_ratio", kb.V("O"))),
				kb.Pos(kb.A("customer_count", kb.V("N"))),
			},
			Guards: []kb.Guard{
				{Op: kb.OpGeq, Left: kb.V("T"), Right: kb.N(360)},
				{Op: kb.OpGt, Left: kb.V("O"), Right: kb.N(smallPeak)},
				{Op: kb.OpGt, Left: kb.V("N"), Right: kb.N(50)},
			},
			Then: []kb.Atom{kb.A("chosen_method", kb.C(MethodRewardTable))},
		},
	)
}

// acceptanceRules encodes "determine bid acceptance strategy": each method
// fixes how replies are judged.
func acceptanceRules() (*kb.Base, error) {
	return kb.NewBase("determine_bid_acceptance_strategy",
		kb.Rule{
			Name: "offer_counts_yes",
			If:   []kb.Literal{kb.Pos(kb.A("chosen_method", kb.C(MethodOffer)))},
			Then: []kb.Atom{kb.A("bid_acceptance", kb.C(AcceptCountYes))},
		},
		kb.Rule{
			Name: "tables_accept_monotonic_bids",
			If:   []kb.Literal{kb.Pos(kb.A("chosen_method", kb.C(MethodRewardTable)))},
			Then: []kb.Atom{kb.A("bid_acceptance", kb.C(AcceptMonotonicBids))},
		},
		kb.Rule{
			Name: "rfb_accepts_monotonic_ymin",
			If:   []kb.Literal{kb.Pos(kb.A("chosen_method", kb.C(MethodRFB)))},
			Then: []kb.Atom{kb.A("bid_acceptance", kb.C(AcceptMonotonicYMin))},
		},
	)
}

// evaluationRules encodes "evaluate negotiation process": a converged
// negotiation is successful; anything else needs review.
func evaluationRules() (*kb.Base, error) {
	return kb.NewBase("evaluate_negotiation_process",
		kb.Rule{
			Name: "converged_is_successful",
			If:   []kb.Literal{kb.Pos(kb.A("outcome_converged", kb.N(1)))},
			Then: []kb.Atom{kb.A("process_verdict", kb.C("successful"))},
		},
		kb.Rule{
			Name: "non_converged_needs_review",
			If:   []kb.Literal{kb.Pos(kb.A("outcome_converged", kb.N(0)))},
			Then: []kb.Atom{kb.A("process_verdict", kb.C("needs_review"))},
		},
	)
}

// NewUAOwnProcessControl assembles Figure 2: own process control with
// sub-components "determine general negotiation strategy" (itself split
// into announcement-method and bid-acceptance determination) and "evaluate
// negotiation process".
func NewUAOwnProcessControl() (*desire.Composed, error) {
	ont, err := uaOntology()
	if err != nil {
		return nil, err
	}
	strat, err := strategyRules()
	if err != nil {
		return nil, err
	}
	accept, err := acceptanceRules()
	if err != nil {
		return nil, err
	}
	eval, err := evaluationRules()
	if err != nil {
		return nil, err
	}

	opc := desire.NewComposed("own_process_control", ont, 0)
	children := []desire.Component{
		desire.NewReasoning("determine_announcement_method", ont, strat, "chosen_method"),
		desire.NewReasoning("determine_bid_acceptance_strategy", ont, accept, "bid_acceptance"),
		desire.NewReasoning("evaluate_negotiation_process", ont, eval, "process_verdict"),
	}
	for _, c := range children {
		if err := opc.AddChild(c); err != nil {
			return nil, err
		}
	}
	links := []desire.Link{
		{Name: "situation_to_method", From: desire.Endpoint{Port: desire.In},
			To: desire.Endpoint{Component: "determine_announcement_method", Port: desire.In}},
		{Name: "method_to_acceptance", From: desire.Endpoint{Component: "determine_announcement_method", Port: desire.Out},
			To: desire.Endpoint{Component: "determine_bid_acceptance_strategy", Port: desire.In}},
		{Name: "results_to_evaluation", From: desire.Endpoint{Port: desire.In},
			To: desire.Endpoint{Component: "evaluate_negotiation_process", Port: desire.In}},
		{Name: "method_out", From: desire.Endpoint{Component: "determine_announcement_method", Port: desire.Out},
			To: desire.Endpoint{Port: desire.Out}},
		{Name: "acceptance_out", From: desire.Endpoint{Component: "determine_bid_acceptance_strategy", Port: desire.Out},
			To: desire.Endpoint{Port: desire.Out}},
		{Name: "verdict_out", From: desire.Endpoint{Component: "evaluate_negotiation_process", Port: desire.Out},
			To: desire.Endpoint{Port: desire.Out}},
	}
	for _, l := range links {
		if err := opc.AddLink(l); err != nil {
			return nil, err
		}
	}
	err = opc.SetControl([]desire.Step{
		{Transfer: "situation_to_method"},
		{Activate: "determine_announcement_method"},
		{Transfer: "method_to_acceptance"},
		{Activate: "determine_bid_acceptance_strategy"},
		{Transfer: "results_to_evaluation"},
		{Activate: "evaluate_negotiation_process"},
		{Transfer: "method_out"},
		{Transfer: "acceptance_out"},
		{Transfer: "verdict_out"},
	})
	if err != nil {
		return nil, err
	}
	return opc, nil
}

// UASituation is the fact-level input to the Figure 2 composition.
type UASituation struct {
	LeadTimeMinutes float64
	OveruseRatio    float64
	Customers       float64
}

// DecideMethod runs the Figure 2 composition on a situation and returns the
// chosen announcement method and bid acceptance strategy.
func DecideMethod(s UASituation) (method, acceptance string, err error) {
	opc, err := NewUAOwnProcessControl()
	if err != nil {
		return "", "", err
	}
	facts := []kb.Fact{
		{Atom: kb.A("lead_time_minutes", kb.N(s.LeadTimeMinutes)), Truth: kb.True},
		{Atom: kb.A("overuse_ratio", kb.N(s.OveruseRatio)), Truth: kb.True},
		{Atom: kb.A("customer_count", kb.N(s.Customers)), Truth: kb.True},
	}
	out, err := desire.Run(opc, facts)
	if err != nil {
		return "", "", err
	}
	for _, f := range out {
		if f.Truth != kb.True {
			continue
		}
		switch f.Atom.Pred {
		case "chosen_method":
			method = f.Atom.Args[0].Name
		case "bid_acceptance":
			acceptance = f.Atom.Args[0].Name
		}
	}
	if method == "" {
		return "", "", fmt.Errorf("desiremodel: no method derived for %+v", s)
	}
	return method, acceptance, nil
}

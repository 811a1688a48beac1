package core

import (
	"fmt"
	"time"

	agentrt "loadbalance/internal/agent"
	"loadbalance/internal/bus"
	"loadbalance/internal/customeragent"
	"loadbalance/internal/protocol"
	"loadbalance/internal/utilityagent"
)

// Result is the outcome of one full negotiation run.
type Result struct {
	utilityagent.Result
	// Bus holds the transport counters (messages, drops).
	Bus bus.Stats
	// FinalBids maps each non-silent customer to its last cut-down bid.
	FinalBids map[string]float64
	// Elapsed is the wall time of the run.
	Elapsed time.Duration
	// AgentErrors collects handler errors from every runtime (empty on a
	// clean run; lossy runs may legitimately record stale-bid errors).
	AgentErrors []error
}

// Run executes a scenario to completion: it builds the bus, starts every
// Customer Agent and the Utility Agent, waits for the negotiation result and
// tears everything down.
func Run(s Scenario) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	timeout := s.RunTimeout()

	b, err := bus.NewInProc(bus.Config{DropRate: s.DropRate, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	defer b.Close()

	start := time.Now() //gridlint:allow walltime(wall-duration measurement for Result.Elapsed; never feeds negotiated state)

	// Customer Agents first so the UA's opening broadcast reaches everyone.
	cas, fleet, err := HostCustomers(b, s.Customers)
	if err != nil {
		return nil, err
	}
	defer fleet.Stop()

	ua, uaRT, err := StartUtilityAgent(b, s.UAConfig(s.Loads()))
	if err != nil {
		return nil, err
	}
	defer uaRT.Stop()

	var uaResult utilityagent.Result
	select {
	case uaResult = <-ua.Done():
	case <-time.After(timeout): //gridlint:allow walltime(liveness timeout for a stalled fleet; fires only when the run already failed)
		return nil, fmt.Errorf("%w after %v", ErrTimeout, timeout)
	}

	// The Utility Agent sent every award and the session end before it
	// reported; what the bus did not lose of them is in the fleet's queue.
	// Once that is handled, FinalBids and the awards are consistent.
	fleet.Quiesce()

	res := &Result{
		Result:    uaResult,
		FinalBids: make(map[string]float64, len(cas)),
		Elapsed:   time.Since(start), //gridlint:allow walltime(wall-duration measurement for Result.Elapsed; never feeds negotiated state)
	}
	for name, ca := range cas {
		res.FinalBids[name] = ca.LastBid(s.SessionID)
	}
	res.AgentErrors = append(fleet.Errors(), uaRT.Errors()...)
	res.Bus = b.Stats()
	return res, nil
}

// customerInbox is how far behind a hosted Customer Agent may fall, in
// envelopes queued for it on its fleet's worker: the only place that bound is
// written. The reward-table negotiation is lock-step (Section 3.2.3) —
// announce, one answer each, close, and at the end the award and the session
// end — so with a full quorum and no round timeout a customer has at most two
// envelopes waiting; over 3.4 M deliveries in the four benchmark workloads a
// customer had 0 or 1 waiting after a delivery, never 2. Four is that bound
// doubled. It bounds a count, not a buffer: the fleet's queue is sized by its
// traffic (agentrt.Fleet), not at 4 slots a customer.
//
// A customer further behind — possible only after round timeouts or under a
// partial quorum, where its bids for closed rounds are stale anyway — is a
// silent customer: the delivery is Rejected and counted in bus.Stats, the
// Utility Agent or concentrator treats it as a lost message, and the round
// closes on quorum or timeout.
const customerInbox = 4

// FanInInbox sizes the mailbox of an agent that n others answer every round —
// the Utility Agent over its customers or concentrators, a concentrator over
// its members: four envelopes a sender, at least 64. It is the only place
// that bound is written.
func FanInInbox(n int) int { return 4 * max(n, 16) }

// StartUtilityAgent starts a Utility Agent on b under cfg (named cfg.Name, as
// Scenario.UAConfig sets it), its mailbox sized for the loads it models, and
// returns it with its runtime for the caller to Stop. Every engine starts its
// Utility Agent here.
func StartUtilityAgent(b bus.Bus, cfg utilityagent.Config) (*utilityagent.Agent, *agentrt.Runtime, error) {
	ua, err := utilityagent.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	rt, err := agentrt.Start(cfg.Name, b, ua, FanInInbox(len(cfg.Loads)))
	if err != nil {
		return nil, nil, err
	}
	return ua, rt, nil
}

// HostCustomers hosts the specs' customers on b as one fleet — a Customer
// Agent each, or for a silent customer a handler that takes its envelopes and
// never answers — behind one worker goroutine, and returns the agents by name
// and the fleet, for the caller to Quiesce and Stop. Run and the cluster
// session engine (cluster.Run, cluster.RunDistributed) host their customers
// through it. On error nothing is left running.
func HostCustomers(b bus.Bus, specs []CustomerSpec) (map[string]*customeragent.Agent, *agentrt.Fleet, error) {
	cas := make(map[string]*customeragent.Agent, len(specs))
	names := make([]string, len(specs))
	handlers := make([]agentrt.Handler, len(specs))
	for i, spec := range specs {
		names[i] = spec.Name
		if spec.Silent {
			handlers[i] = agentrt.HandlerFuncs{}
			continue
		}
		ca, err := customeragent.New(spec.Name, spec.Prefs, spec.Strategy)
		if err != nil {
			return nil, nil, fmt.Errorf("core: customer %q: %w", spec.Name, err)
		}
		cas[spec.Name] = ca
		handlers[i] = ca
	}
	fleet, err := agentrt.StartFleet(b, names, handlers, customerInbox)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	return cas, fleet, nil
}

// BidsOf extracts one customer's bid per round from a reward-table history —
// the Figures 8-9 trace. Rounds without a recorded bid repeat the previous
// commitment (a lost or stale bid leaves the model unchanged).
func BidsOf(history []protocol.RoundRecord, customer string) []float64 {
	out := make([]float64, 0, len(history))
	last := 0.0
	for _, rec := range history {
		if b, ok := rec.Bids[customer]; ok {
			last = b
		}
		out = append(out, last)
	}
	return out
}

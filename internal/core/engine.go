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
	timeout := s.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}

	b, err := bus.NewInProc(bus.Config{DropRate: s.DropRate, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	defer b.Close()

	start := time.Now() //gridlint:allow walltime(wall-duration measurement for Result.Elapsed; never feeds negotiated state)

	// Customer Agents first so the UA's opening broadcast reaches everyone.
	cas, runtimes, err := HostCustomers(b, s.Customers)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, rt := range runtimes {
			rt.Stop()
		}
	}()

	ua, err := utilityagent.New(utilityagent.Config{
		Name:         "ua",
		SessionID:    s.SessionID,
		Window:       s.Window,
		NormalUse:    s.NormalUse,
		Loads:        s.Loads(),
		Method:       s.Method,
		LeadTime:     s.LeadTime,
		Params:       s.Params,
		InitialSlope: s.InitialSlope,
		Offer:        s.Offer,
		RFB:          s.RFB,
		RoundTimeout: s.RoundTimeout,
		WarrantRatio: s.Params.AllowedOveruseRatio,
	})
	if err != nil {
		return nil, err
	}
	uaRT, err := agentrt.Start("ua", b, ua, 4*max(len(s.Customers), 16))
	if err != nil {
		return nil, err
	}
	runtimes = append(runtimes, uaRT)

	var uaResult utilityagent.Result
	select {
	case uaResult = <-ua.Done():
	case <-time.After(timeout): //gridlint:allow walltime(liveness timeout for a stalled fleet; fires only when the run already failed)
		return nil, fmt.Errorf("%w after %v", ErrTimeout, timeout)
	}

	// Give in-flight awards/session-end messages a moment to land before
	// tearing the runtimes down, so FinalBids and awards are consistent.
	drainDeadline := time.Now().Add(200 * time.Millisecond) //gridlint:allow walltime(bounded message-drain deadline; liveness only, awards are already decided)
	for time.Now().Before(drainDeadline) {                  //gridlint:allow walltime(bounded message-drain deadline; liveness only, awards are already decided)
		if allAwarded(cas, s, uaResult) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	res := &Result{
		Result:    uaResult,
		FinalBids: make(map[string]float64, len(cas)),
		Elapsed:   time.Since(start), //gridlint:allow walltime(wall-duration measurement for Result.Elapsed; never feeds negotiated state)
	}
	for name, ca := range cas {
		res.FinalBids[name] = ca.LastBid(s.SessionID)
	}
	for _, rt := range runtimes {
		res.AgentErrors = append(res.AgentErrors, rt.Errors()...)
	}
	res.Bus = b.Stats()
	return res, nil
}

// customerInbox is a hosted Customer Agent's mailbox, in envelopes: the only
// place that size is written. The reward-table negotiation is lock-step
// (Section 3.2.3) — announce, one answer each, close, and at the end the
// award and the session end — so with a full quorum and no round timeout a
// customer has at most two envelopes queued; over 3.4 M deliveries in the
// four benchmark workloads the queue after a delivery held 0 or 1, never 2.
// Four is that bound doubled, and 4 × 128 B is the largest pointer-bearing
// buffer Go allocates without a header word: 512 + 96 B, where 8 slots cost
// 1 152 + 96 B and the former 64 cost 9.6 KB of a customer's 12.1 KB.
//
// A customer further behind — possible only after round timeouts or under a
// partial quorum, where its bids for closed rounds are stale anyway — is a
// silent customer: the delivery is Rejected and counted in bus.Stats, the
// Utility Agent or concentrator treats it as a lost message, and the round
// closes on quorum or timeout.
const customerInbox = 4

// HostCustomers starts one runtime per spec on b — a Customer Agent, or for a
// silent customer a handler that drains its inbox and never answers — and
// returns the agents by name with every runtime started, for the caller to
// Stop. The three engines (Run, cluster.Run, cluster.RunDistributed) host
// their fleets through it. On error nothing is left running.
func HostCustomers(b bus.Bus, specs []CustomerSpec) (map[string]*customeragent.Agent, []*agentrt.Runtime, error) {
	cas := make(map[string]*customeragent.Agent, len(specs))
	runtimes := make([]*agentrt.Runtime, 0, len(specs))
	fail := func(err error) (map[string]*customeragent.Agent, []*agentrt.Runtime, error) {
		for _, rt := range runtimes {
			rt.Stop()
		}
		return nil, nil, err
	}
	for _, spec := range specs {
		var handler agentrt.Handler
		if spec.Silent {
			handler = agentrt.HandlerFuncs{} // drains its inbox, never answers
		} else {
			ca, err := customeragent.New(spec.Name, spec.Prefs, spec.Strategy)
			if err != nil {
				return fail(fmt.Errorf("core: customer %q: %w", spec.Name, err))
			}
			cas[spec.Name] = ca
			handler = ca
		}
		rt, err := agentrt.Start(spec.Name, b, handler, customerInbox)
		if err != nil {
			return fail(fmt.Errorf("core: start %q: %w", spec.Name, err))
		}
		runtimes = append(runtimes, rt)
	}
	return cas, runtimes, nil
}

// allAwarded reports whether every awarded customer has seen its award.
func allAwarded(cas map[string]*customeragent.Agent, s Scenario, r utilityagent.Result) bool {
	for _, aw := range r.Awards {
		ca, ok := cas[aw.Customer]
		if !ok {
			continue
		}
		if _, got := ca.AwardFor(s.SessionID); !got {
			return false
		}
	}
	return true
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

package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	agentrt "loadbalance/internal/agent"
	"loadbalance/internal/bus"
	"loadbalance/internal/customeragent"
	"loadbalance/internal/message"
	"loadbalance/internal/protocol"
	"loadbalance/internal/store"
	"loadbalance/internal/utilityagent"
)

// Result is the outcome of one negotiation session, whatever its layout.
type Result struct {
	utilityagent.Result
	// Bus holds the transport counters (messages, drops), summed over every
	// in-process bus of the session.
	Bus bus.Stats
	// FinalBids maps each of the Utility Agent's non-silent bidders to its
	// last cut-down bid.
	FinalBids map[string]float64
	// Elapsed is the wall time of the run.
	Elapsed time.Duration
	// AgentErrors collects handler errors from every runtime (empty on a
	// clean run; lossy runs may legitimately record stale-bid errors).
	AgentErrors []error

	// Where AwardTo reads an award: the hosted agents under session or,
	// failing those, the awards the bidders were sent.
	agents  map[string]*customeragent.Agent
	session string
	sent    []protocol.CustomerAward
}

// AwardTo returns the award delivered to the named bidder and whether one
// reached it: what its own agent received when it was hosted, failing that,
// what was sent to it.
func (r *Result) AwardTo(name string) (message.Award, bool) {
	if r.agents != nil {
		if ca, ok := r.agents[name]; ok {
			return ca.AwardFor(r.session)
		}
		return message.Award{}, false
	}
	for _, a := range r.sent {
		if a.Customer == name {
			return a.Award, true
		}
	}
	return message.Award{}, false
}

// Run negotiates a scenario on the flat layout, unjournaled.
func Run(s Scenario) (*Result, error) {
	return Negotiate(context.Background(), s, Flat(s), nil, "")
}

// Flat is s's flat layout: one in-process bus carrying the scenario's seeded
// loss, every Customer Agent hosted on it, and the Utility Agent facing them
// itself, under any announcement method.
func Flat(s Scenario) Layout {
	return func(_ context.Context, p *Placement) error {
		b, err := bus.NewInProc(bus.Config{DropRate: s.DropRate, Seed: s.Seed})
		if err != nil {
			return err
		}
		p.Stops = append(p.Stops, b.Close)
		p.Bus, p.UA = b, s.UAConfig(s.Loads())
		p.Report = func(r *Result) { r.Bus = b.Stats() }
		return p.Host(b, s.Customers)
	}
}

// A Layout places one session's parts — the one step the entry points take
// differently. It builds the buses into p, finds or hosts the fleet, chooses
// the Utility Agent's bus and configuration, and registers whatever it opened
// in p.Stops even when it fails halfway. It waits for remote parts under ctx.
// The Utility Agent starts only once it returns, so its opening announcement
// reaches every customer the layout hosted.
type Layout func(ctx context.Context, p *Placement) error

// A Placement is one session's parts as its layout placed them. The engine
// starts the Utility Agent on Bus under UA, runs the session and takes it
// down, calling Stops in reverse; an abort goes to the Exposed buses, the
// ones other processes hang on. Once the Utility Agent reports, each Settle
// in turn waits for what it sent to reach its bidders' buses. Each bidder's
// last bid and award are read off the hosted Agents; failing those, off
// Awarded, if set (what a relay sent them); failing both, off the Utility
// Agent's awards. Errors are the handler-error sources of the session's
// agents, and Report, if set, copies the transport's counters into the
// result while everything is still up.
type Placement struct {
	Bus     bus.Bus
	UA      utilityagent.Config
	Agents  map[string]*customeragent.Agent
	Exposed []bus.Bus
	Stops   []func()
	Settle  []func(context.Context) error
	Awarded func() []protocol.CustomerAward
	Errors  []func() []error
	Report  func(*Result)

	fleets []*agentrt.Fleet
}

// Host hosts specs' customers on b as one fleet of the session — a Customer
// Agent each, all in one slice, or for a silent customer a handler that takes
// its envelopes and never answers — behind one worker goroutine, which the
// engine quiesces and stops. Its agents join Agents, which a layout hosting
// several fleets sizes for all of them. On error nothing of the fleet is left
// running.
func (p *Placement) Host(b bus.Bus, specs []CustomerSpec) error {
	if p.Agents == nil {
		p.Agents = make(map[string]*customeragent.Agent, len(specs))
	}
	names := make([]string, len(specs))
	handlers := make([]agentrt.Handler, len(specs))
	agents := make([]customeragent.Agent, len(specs))
	for i := range specs {
		spec := &specs[i] // its Prefs are read in place for the session
		names[i] = spec.Name
		if spec.Silent {
			handlers[i] = agentrt.HandlerFuncs{}
			continue
		}
		ca := &agents[i]
		if err := ca.Init(spec.Name, &spec.Prefs, spec.Strategy); err != nil {
			return fmt.Errorf("core: customer %q: %w", spec.Name, err)
		}
		p.Agents[spec.Name] = ca
		handlers[i] = ca
	}
	f, err := agentrt.StartFleet(b, names, handlers, customerInbox)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	p.fleets, p.Stops, p.Errors = append(p.fleets, f), append(p.Stops, f.Stop), append(p.Errors, f.Errors)
	return nil
}

// HostCustomers hosts specs on b as one fleet outside any session
// (Placement.Host) and returns its agents by name and the fleet, for the
// caller to Quiesce and Stop.
func HostCustomers(b bus.Bus, specs []CustomerSpec) (map[string]*customeragent.Agent, *agentrt.Fleet, error) {
	var p Placement
	if err := p.Host(b, specs); err != nil {
		return nil, nil, err
	}
	return p.Agents, p.fleets[0], nil
}

// Negotiate is the session engine every entry point runs: validation, the
// stall timer, the parts place lays out, the Utility Agent, the wait for its
// outcome and for what it sent to reach every bidder, the result and the
// journal. A session that ends without an outcome — ctx ended, the
// scenario's timeout passed, a part failed to start — takes the one error
// path, abort, whatever the layout. With a journal the outcome, or the abort,
// is recorded under journalConfig before Negotiate returns.
func Negotiate(ctx context.Context, s Scenario, place Layout, st *store.Store, journalConfig string) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	start := time.Now() //gridlint:allow walltime(wall-duration measurement for Result.Elapsed; never feeds negotiated state)
	timeout := s.RunTimeout()
	ctx, cancel := context.WithTimeoutCause(ctx, timeout, fmt.Errorf("%w after %v", ErrTimeout, timeout))
	defer cancel()
	j := journal{st, journalConfig, s.SessionID}
	var p Placement
	defer func() {
		for i := len(p.Stops) - 1; i >= 0; i-- {
			p.Stops[i]()
		}
	}()
	fail := func(err error) (*Result, error) { return nil, p.abort(j, err) }
	if err := place(ctx, &p); err != nil {
		return fail(err)
	}
	ua, rt, err := startUtilityAgent(p.Bus, p.UA)
	if err != nil {
		return fail(err)
	}
	p.Stops, p.Errors = append(p.Stops, rt.Stop), append(p.Errors, rt.Errors)
	var uaResult utilityagent.Result
	select {
	case uaResult = <-ua.Done():
	case <-ctx.Done():
		return fail(context.Cause(ctx))
	}
	// The Utility Agent sent every award and the session end before it
	// reported. Whatever relays them may still be on its way down; what
	// reaches a hosted fleet's bus is then in the fleet's queue. A
	// below-warrant prediction ends without any announcement, so there is
	// nothing to relay.
	if len(uaResult.History) > 0 {
		for _, settle := range p.Settle {
			if err := settle(ctx); err != nil {
				return fail(err)
			}
		}
	}
	for _, f := range p.fleets {
		f.Quiesce()
	}

	res := &Result{
		Result:  uaResult,
		Elapsed: time.Since(start), //gridlint:allow walltime(wall-duration measurement for Result.Elapsed; never feeds negotiated state)
	}
	// What each bidder last bid and was awarded is known to its own agent
	// when it is hosted; failing that, to whatever relayed to it; failing
	// that, the Utility Agent faced its bidders itself.
	switch {
	case p.Agents != nil:
		res.agents, res.session = p.Agents, s.SessionID
		res.FinalBids = make(map[string]float64, len(p.Agents))
		for name, ca := range p.Agents {
			res.FinalBids[name] = ca.LastBid(s.SessionID)
		}
	case p.Awarded != nil:
		res.faced(p.Awarded())
	default:
		res.faced(uaResult.Awards)
	}
	if p.Report != nil {
		p.Report(res)
	}
	for _, errs := range p.Errors {
		res.AgentErrors = append(res.AgentErrors, errs()...)
	}
	if st != nil {
		return res, j.outcome(res)
	}
	return res, nil
}

// abort ends a session that has no outcome, whatever its layout: one aborting
// session end on each bus other processes hang on, so none of them waits for
// a negotiation that is over, and with a journal an aborted record, so
// recovery never replays a half-committed session. It returns cause.
func (p *Placement) abort(j journal, cause error) error {
	reason := cause.Error()
	for _, b := range p.Exposed {
		if end, err := message.NewEnvelope("ua", "", j.session, message.SessionEnd{Reason: "aborted: " + reason}); err == nil {
			_ = b.Send(end)
		}
	}
	if j.st != nil {
		if err := j.append(store.NewAbortRecord(store.AbortInfo{SessionID: j.session, Reason: reason})); err != nil {
			return errors.Join(cause, err)
		}
	}
	return cause
}

// faced reads a session off the awards its bidders were sent: an award's
// cut-down is the bidder's last bid.
func (r *Result) faced(awards []protocol.CustomerAward) {
	r.sent, r.FinalBids = awards, make(map[string]float64, len(awards))
	for _, a := range awards {
		r.FinalBids[a.Customer] = a.Award.CutDown
	}
}

// journal is where the engine records a session: its store, if any, and the
// fingerprint of the parameters the session ran under.
type journal struct {
	st              *store.Store
	config, session string
}

// outcome records the session — every bidder's final bid and delivered
// award, and the Utility Agent's result, its trace — whichever layout ran
// it: every negotiation's record is written here. It leaves out what a
// layout or a clock decides (Elapsed, Bus, AgentErrors), so every layout of
// one session writes the same bytes. A journaling failure surfaces as the
// run's error: durable mode must never report success for an outcome that is
// not on disk.
func (j journal) outcome(res *Result) error {
	trace, err := json.Marshal(res.Result)
	if err != nil {
		return fmt.Errorf("core: journal %s: %w", j.session, err)
	}
	out := store.SessionOutcome{
		SessionID: j.session,
		Outcome:   res.Outcome,
		Rounds:    res.Rounds,
		Config:    j.config,
		Bids:      res.FinalBids,
		Awards:    make(map[string]store.AwardEntry, len(res.FinalBids)),
		Result:    trace,
	}
	for name := range res.FinalBids {
		if a, ok := res.AwardTo(name); ok {
			out.Awards[name] = store.AwardEntry{CutDown: a.CutDown, Reward: a.Reward}
		}
	}
	return j.st.AppendSession(out)
}

// append appends rec, unless making it failed, and syncs it.
func (j journal) append(rec store.Record, err error) error {
	if err == nil {
		err = j.st.Append(rec)
	}
	if err == nil {
		err = j.st.Sync()
	}
	return err
}

// customerInbox is how far behind a hosted Customer Agent may fall, in
// envelopes queued for it on its fleet's worker: the only place that bound is
// written. The reward-table negotiation is lock-step (Section 3.2.3) —
// announce, one answer each, close, and at the end the award and the session
// end — so with a full quorum and no round timeout a customer has at most two
// envelopes waiting; over 3.4 M deliveries in the four benchmark workloads a
// customer had 0 or 1 waiting after a delivery, never 2. Four is that bound
// doubled. It bounds a count, not a buffer: the fleet's queue grows in fixed
// blocks to what has waited at once, a broadcast or a fan-out to the fleet
// being one entry (agentrt.Fleet), not 4 slots a customer — as the queues of
// the Utility Agent and the concentrators are (FanInInbox).
//
// A customer further behind — possible only after round timeouts or under a
// partial quorum, where its bids for closed rounds are stale anyway — is a
// silent customer: the delivery is Rejected and counted in bus.Stats, the
// Utility Agent or concentrator treats it as a lost message, and the round
// closes on quorum or timeout.
const customerInbox = 4

// FanInInbox bounds the mailbox of an agent that n others answer every round —
// the Utility Agent over its customers or concentrators, a concentrator over
// its members: four envelopes a sender, at least 64. It is the only place
// that bound is written. It counts, it allocates nothing: in process
// agentrt.Start makes the agent a fleet of one, whose queue grows in fixed
// blocks to what has waited at once (one round of answers) and keeps them for
// the next round; only a TCP inbox channel has this size.
func FanInInbox(n int) int { return 4 * max(n, 16) }

// startUtilityAgent starts a Utility Agent on b under cfg (named cfg.Name, as
// Scenario.UAConfig sets it), its mailbox sized for the loads it models, and
// returns it with its runtime for the caller to Stop. The engine is its one
// caller: every session's Utility Agent starts here.
func startUtilityAgent(b bus.Bus, cfg utilityagent.Config) (*utilityagent.Agent, *agentrt.Runtime, error) {
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

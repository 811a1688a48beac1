package customeragent

import (
	"fmt"
	"sync"

	"loadbalance/internal/agent"
	"loadbalance/internal/message"
	"loadbalance/internal/units"
)

// unitsEnergy converts a raw kWh value to the domain type (local helper so
// decision code reads naturally).
func unitsEnergy(kwh float64) units.Energy {
	if kwh < 0 {
		return 0
	}
	return units.Energy(kwh)
}

// sessionState tracks one negotiation from the CA's perspective.
type sessionState struct {
	lastCutDownBid float64
	committedYMin  float64
	award          message.Award
	awarded        bool
	ended          bool
}

// Agent is a Customer Agent. Its OnMessage runs on the hosting Runtime's
// goroutine; the mutex guards the session state against the result accessors
// other goroutines may call (AwardFor, LastBid), and a React holds it once,
// for the whole reaction.
type Agent struct {
	name     string
	prefs    *Preferences // read only
	strategy Strategy

	mu sync.Mutex
	// An engine-hosted agent serves exactly one session, so the first
	// session's state lives in the Agent; later holds the sessions of an
	// agent that outlives its first (made on the second session id).
	started bool // firstID and first are in use
	firstID string
	first   sessionState
	later   map[string]*sessionState
}

// New constructs a Customer Agent that owns a copy of prefs (one
// allocation with the agent).
func New(name string, prefs Preferences, strategy Strategy) (*Agent, error) {
	own := &struct {
		Agent
		owned Preferences
	}{owned: prefs}
	if err := own.Init(name, &own.owned, strategy); err != nil {
		return nil, err
	}
	return &own.Agent, nil
}

// Init makes a zero Agent the Customer Agent New would return, for a host
// that lays out a fleet's agents in one slice. The agent reads prefs, which
// must not change while it is in use, in place of a copy. Init must not be
// called on an agent in use.
func (a *Agent) Init(name string, prefs *Preferences, strategy Strategy) error {
	if name == "" {
		return fmt.Errorf("%w: empty name", ErrBadPreferences)
	}
	switch strategy {
	case StrategyGreedy, StrategyIncremental, StrategyHoldout:
	default:
		return fmt.Errorf("%w: %d", ErrBadStrategy, int(strategy))
	}
	a.name, a.prefs, a.strategy = name, prefs, strategy
	return nil
}

// Name returns the agent name.
func (a *Agent) Name() string { return a.name }

// Preferences returns the customer's valuation (for experiment reporting).
func (a *Agent) Preferences() Preferences { return *a.prefs }

// OnStart implements agent.Handler. Customer Agents are reactive in the
// negotiation: the Utility Agent always opens (Section 3.2).
func (a *Agent) OnStart(rt *agent.Runtime) error { return nil }

// OnMessage implements agent.Handler: the CA's agent interaction management
// task, dispatching to cooperation management per announcement kind.
func (a *Agent) OnMessage(rt *agent.Runtime, env message.Envelope) error {
	reply, ok, err := a.React(env)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	return rt.Send(env.From, env.Session, reply)
}

// React computes the CA's response to one envelope without sending it —
// the transport-agnostic cooperation-management entry point. It returns the
// reply payload and whether one should be sent. Remote deployments
// (cmd/gridd) call React directly and ship the reply over their own
// transport.
func (a *Agent) React(env message.Envelope) (message.Payload, bool, error) {
	p, err := env.Decode()
	if err != nil {
		return nil, false, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.sessionLocked(env.Session)
	if st.ended {
		return nil, false, nil // late traffic for a finished negotiation
	}
	switch m := p.(type) {
	case message.RewardTable:
		return a.reactRewardTable(st, m)
	case message.OfferTerms:
		return a.reactOffer(m)
	case message.BidRequest:
		return a.reactBidRequest(st, m)
	case message.Award:
		st.award, st.awarded = m, true
		return nil, false, nil
	case message.SessionEnd:
		st.ended = true
		return nil, false, nil
	default:
		return nil, false, nil // not addressed to the CA role
	}
}

// reactRewardTable is the CA's "determine bid" for the reward-table method.
// The caller holds a.mu.
func (a *Agent) reactRewardTable(st *sessionState, table message.RewardTable) (message.Payload, bool, error) {
	bid, err := DecideCutDown(a.prefs, a.strategy, table, st.lastCutDownBid)
	if err != nil {
		return nil, false, err
	}
	st.lastCutDownBid = bid
	return message.CutDownBid{Round: table.Round, CutDown: bid}, true, nil
}

// reactOffer answers a take-it-or-leave-it offer.
func (a *Agent) reactOffer(terms message.OfferTerms) (message.Payload, bool, error) {
	return message.OfferReply{Round: 1, Accept: DecideOffer(a.prefs, terms)}, true, nil
}

// reactBidRequest answers a request-for-bids round. The caller holds a.mu.
func (a *Agent) reactBidRequest(st *sessionState, req message.BidRequest) (message.Payload, bool, error) {
	if st.committedYMin == 0 {
		st.committedYMin = a.prefs.ExpectedUse.KWhs()
	}
	y := DecideEnergyBid(a.prefs, req, st.committedYMin)
	st.committedYMin = y
	return message.EnergyBid{Round: req.Round, YMinKWh: y}, true, nil
}

// sessionLocked returns (creating if needed) the state for a session id. The
// caller holds a.mu.
func (a *Agent) sessionLocked(id string) *sessionState {
	if !a.started {
		a.started, a.firstID = true, id
	}
	if st := a.seenLocked(id); st != nil {
		return st
	}
	if a.later == nil {
		a.later = make(map[string]*sessionState)
	}
	st := &sessionState{}
	a.later[id] = st
	return st
}

// seenLocked returns the state of a session the agent has taken part in, or
// nil. The caller holds a.mu.
func (a *Agent) seenLocked(id string) *sessionState {
	if a.started && id == a.firstID {
		return &a.first
	}
	return a.later[id]
}

// AwardFor returns the award received in a session, if any.
func (a *Agent) AwardFor(session string) (message.Award, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.seenLocked(session)
	if st == nil || !st.awarded {
		return message.Award{}, false
	}
	return st.award, true
}

// LastBid returns the customer's current cut-down bid in a session.
func (a *Agent) LastBid(session string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.seenLocked(session)
	if st == nil {
		return 0
	}
	return st.lastCutDownBid
}

var _ agent.Handler = (*Agent)(nil)

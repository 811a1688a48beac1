package utilityagent

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"loadbalance/internal/agent"
	"loadbalance/internal/bus"
	"loadbalance/internal/message"
	"loadbalance/internal/protocol"
	"loadbalance/internal/trace"
	"loadbalance/internal/units"
)

// Latency histograms shared by every UA in the process; they surface on
// /metrics as negotiation_round_seconds / negotiation_session_seconds.
var (
	roundHist   = trace.GetHistogram("negotiation_round_seconds")
	sessionHist = trace.GetHistogram("negotiation_session_seconds")
)

// Config parameterises one Utility Agent negotiation.
type Config struct {
	// Name is the UA's bus name (default "ua").
	Name string
	// SessionID identifies the negotiation.
	SessionID string
	// Window is the peak interval being negotiated.
	Window units.Interval
	// NormalUse is the normal production capacity for the window.
	NormalUse units.Energy
	// Loads is the UA's prediction per customer.
	Loads map[string]protocol.CustomerLoad
	// Method selects the announcement method (MethodAuto to let the UA pick).
	Method Method
	// LeadTime is the horizon before the window (used by MethodAuto).
	LeadTime time.Duration

	// Params drives the reward-table method.
	Params protocol.Params
	// InitialSlope is the slope of the round-1 linear reward table.
	InitialSlope float64

	// Offer holds the terms for MethodOffer; zero values get defaults
	// derived from the loads.
	Offer message.OfferTerms
	// RFB drives the request-for-bids method.
	RFB protocol.RFBParams

	// RoundTimeout closes a round even without quorum; 0 disables timeouts
	// (quorum only — the deterministic mode used by most tests).
	RoundTimeout time.Duration
	// WarrantRatio is the overuse ratio below which no negotiation starts.
	WarrantRatio float64

	// TraceParent links this session's root span under an enclosing trace
	// (a live tick's renegotiation); invalid starts a fresh trace.
	TraceParent trace.Context
}

// Result is the UA's "evaluate negotiation process" output.
type Result struct {
	SessionID string
	Method    Method
	Outcome   string
	Rounds    int

	// History holds per-round records for the reward-table method.
	History []protocol.RoundRecord
	// RFBHistory holds per-round records for the request-for-bids method.
	RFBHistory []protocol.RFBRound
	// Offer holds the outcome of the offer method.
	Offer *protocol.OfferOutcome

	Awards            []protocol.CustomerAward
	TotalReward       float64
	InitialOveruseKWh float64
	FinalOveruseKWh   float64
	FinalOveruseRatio float64
}

// Agent is the Utility Agent. All mutable state is confined to the hosting
// runtime goroutine.
type Agent struct {
	cfg   Config
	model *agent.Model

	rts     *protocol.RTSession
	offer   *protocol.OfferSession
	rfb     *protocol.RFBSession
	method  Method
	initial float64 // initial overuse kWh

	sessionSpan  trace.Span // session root; ends when the result publishes
	sessionStart time.Time

	done chan Result
}

// New validates the configuration and constructs the agent.
func New(cfg Config) (*Agent, error) {
	if cfg.Name == "" {
		cfg.Name = "ua"
	}
	if cfg.SessionID == "" {
		return nil, fmt.Errorf("%w: empty session id", ErrBadConfig)
	}
	if len(cfg.Loads) == 0 {
		return nil, fmt.Errorf("%w: no customer loads", ErrBadConfig)
	}
	if cfg.NormalUse <= 0 {
		return nil, fmt.Errorf("%w: normal use must be positive", ErrBadConfig)
	}
	if cfg.InitialSlope == 0 {
		cfg.InitialSlope = 42.5 // the prototype's Figure 6 table
	}
	if cfg.InitialSlope < 0 {
		return nil, fmt.Errorf("%w: negative initial slope", ErrBadConfig)
	}
	return &Agent{
		cfg:   cfg,
		model: agent.NewModel(len(cfg.Loads)),
		done:  make(chan Result, 1),
	}, nil
}

// Done returns the channel carrying the negotiation result.
func (a *Agent) Done() <-chan Result { return a.done }

// OnStart implements agent.Handler: the UA's pro-active opening. It
// evaluates the predicted balance and, when warranted, opens the session
// with the chosen announcement method.
func (a *Agent) OnStart(rt *agent.Runtime) error {
	a.sessionStart = time.Now() //gridlint:allow walltime(session latency clock start; feeds the negotiation_session histogram only)
	a.sessionSpan = trace.Child(a.cfg.TraceParent, "session.open")
	a.sessionSpan.SetAgent(a.cfg.Name)
	a.sessionSpan.SetSession(a.cfg.SessionID)
	// Everything the UA sends proactively belongs to the session span.
	rt.SetTraceCtx(a.sessionSpan.Context())

	// EvaluatePrediction's ratio, from the one fleet sum (New rejected a
	// non-positive normal use).
	a.initial = protocol.PredictedOveruse(a.cfg.Loads, a.cfg.NormalUse)
	ratio := a.initial / a.cfg.NormalUse.KWhs()
	negotiate := ratio > a.cfg.WarrantRatio
	a.model.SetWorldValue("predicted_overuse_ratio", ratio)
	if !negotiate {
		a.finish(Result{
			SessionID:         a.cfg.SessionID,
			Method:            a.cfg.Method,
			Outcome:           "no negotiation needed",
			InitialOveruseKWh: a.initial,
			FinalOveruseKWh:   a.initial,
			FinalOveruseRatio: ratio,
		})
		return nil
	}

	a.method = a.cfg.Method
	if a.method == MethodAuto {
		// New built the model empty and nothing seeds it from an earlier
		// session, so this reads "no observations" (0) and ChooseMethod
		// falls back to the paper's prior.
		rate, _ := a.model.OverallResponseRate()
		a.method = ChooseMethod(Situation{
			LeadTime:     a.cfg.LeadTime,
			OveruseRatio: ratio,
			Customers:    len(a.cfg.Loads),
			ResponseRate: rate,
		})
	}

	switch a.method {
	case MethodRewardTable:
		return a.openRewardTable(rt)
	case MethodOffer:
		return a.openOffer(rt)
	case MethodRequestForBids:
		return a.openRFB(rt)
	default:
		return fmt.Errorf("%w: method %v", ErrBadConfig, a.method)
	}
}

// openRewardTable starts the prototype's method.
func (a *Agent) openRewardTable(rt *agent.Runtime) error {
	table, err := protocol.StandardTable(a.cfg.InitialSlope)
	if err != nil {
		return err
	}
	s, err := protocol.NewRTSession(a.cfg.SessionID, a.cfg.Window, a.cfg.Params, table, a.cfg.Loads, a.cfg.NormalUse)
	if err != nil {
		return err
	}
	a.rts = s
	return a.announceRT(rt)
}

// announceRT broadcasts the current table and arms the round timeout.
func (a *Agent) announceRT(rt *agent.Runtime) error {
	msg, err := a.rts.Announce()
	if err != nil {
		return err
	}
	sp := trace.Child(a.sessionSpan.Context(), "round.announce")
	sp.SetAgent(a.cfg.Name)
	sp.SetSession(a.cfg.SessionID)
	err = ignoreLost(rt.SendCtx(sp.Context(), "", a.cfg.SessionID, msg))
	sp.End()
	if err != nil {
		return err
	}
	a.armTimeout(rt, a.rts.Round())
	return nil
}

// openOffer starts the one-shot offer method.
func (a *Agent) openOffer(rt *agent.Runtime) error {
	terms := a.cfg.Offer
	if terms.AllowanceKWh == 0 && terms.XMax == 0 {
		terms = a.defaultOfferTerms()
	}
	s, err := protocol.NewOfferSession(a.cfg.SessionID, terms, a.cfg.Loads, a.cfg.NormalUse)
	if err != nil {
		return err
	}
	a.offer = s
	announce, err := s.Announce()
	if err != nil {
		return err
	}
	if err := ignoreLost(rt.Broadcast(a.cfg.SessionID, announce)); err != nil {
		return err
	}
	a.armTimeout(rt, 1)
	return nil
}

// defaultOfferTerms derives offer terms from the prediction: cap everyone at
// the fraction that would clear the peak if all accepted.
func (a *Agent) defaultOfferTerms() message.OfferTerms {
	// Sorted-name summation: float addition in map-iteration order would
	// make xmax differ in the last ulp between runs of the same scenario.
	names := make([]string, 0, len(a.cfg.Loads))
	for n := range a.cfg.Loads {
		names = append(names, n)
	}
	sort.Strings(names)
	var predicted, allowed float64
	for _, n := range names {
		l := a.cfg.Loads[n]
		predicted += l.Predicted.KWhs()
		allowed += l.Allowed.KWhs()
	}
	xmax := 1.0
	if allowed > 0 {
		xmax = a.cfg.NormalUse.KWhs() / allowed
	}
	if xmax > 1 {
		xmax = 1
	}
	if xmax < 0.1 {
		xmax = 0.1
	}
	return message.OfferTerms{
		Window:       message.FromInterval(a.cfg.Window),
		XMax:         xmax,
		AllowanceKWh: allowed / float64(len(a.cfg.Loads)),
		LowPrice:     0.5,
		NormalPrice:  1,
		HighPrice:    2,
	}
}

// openRFB starts the request-for-bids method.
func (a *Agent) openRFB(rt *agent.Runtime) error {
	p := a.cfg.RFB
	if p.HighPrice == 0 {
		p = protocol.RFBParams{
			LowPrice:            0.5,
			NormalPrice:         1,
			HighPrice:           2,
			AllowedOveruseRatio: a.cfg.Params.AllowedOveruseRatio,
			MaxRounds:           a.cfg.Params.MaxRounds,
		}
	}
	s, err := protocol.NewRFBSession(a.cfg.SessionID, a.cfg.Window, p, a.cfg.Loads, a.cfg.NormalUse)
	if err != nil {
		return err
	}
	a.rfb = s
	return a.announceRFB(rt)
}

// announceRFB broadcasts the current bid request and arms the timeout.
func (a *Agent) announceRFB(rt *agent.Runtime) error {
	req, err := a.rfb.Announce()
	if err != nil {
		return err
	}
	if err := ignoreLost(rt.Broadcast(a.cfg.SessionID, req)); err != nil {
		return err
	}
	a.armTimeout(rt, a.rfb.Round())
	return nil
}

// ignoreLost filters the result of a send to customers — every
// announcement, award and session end goes through it. A recipient whose
// inbox is full, or that has left the bus, has lost a message: the bus counts
// the delivery as Rejected, and to the negotiation that customer is silent —
// the round still arms its timeout, every other award is still sent, the
// session still ends. (A broadcast attempts every recipient and reports the
// first failure.) Any other error — a closed bus, a payload that does not
// validate — is returned to abort the step.
func ignoreLost(err error) error {
	if errors.Is(err, bus.ErrInboxFull) || errors.Is(err, bus.ErrUnknownAgent) {
		return nil
	}
	return err
}

// endSession broadcasts the termination that closes every method's session.
func (a *Agent) endSession(rt *agent.Runtime, round int, reason string) error {
	return ignoreLost(rt.Broadcast(a.cfg.SessionID, message.SessionEnd{Round: round, Reason: reason}))
}

// timeoutTopic marks self-addressed round timeout nudges.
const timeoutTopic = "round_timeout:"

// armTimeout schedules a self-message that closes the round after the
// configured timeout, so negotiations survive silent customers (E9).
func (a *Agent) armTimeout(rt *agent.Runtime, round int) {
	if a.cfg.RoundTimeout <= 0 {
		return
	}
	name := a.cfg.Name
	session := a.cfg.SessionID
	window := message.FromInterval(a.cfg.Window)
	time.AfterFunc(a.cfg.RoundTimeout, func() { //gridlint:allow walltime(round liveness timeout; closes a round on silence, never changes a collected bid)
		// Delivery failure just means the agent already stopped.
		_ = rt.Send(name, session, message.InfoRequest{
			Topic:  timeoutTopic + strconv.Itoa(round),
			Window: window,
		})
	})
}

// OnMessage implements agent.Handler: cooperation management per inbound
// payload kind.
func (a *Agent) OnMessage(rt *agent.Runtime, env message.Envelope) error {
	if env.Session != a.cfg.SessionID {
		return nil // other sessions are not ours to handle
	}
	p, err := env.Decode()
	if err != nil {
		return err
	}
	switch m := p.(type) {
	case message.CutDownBid:
		return a.handleCutDownBid(rt, env.From, m)
	case message.OfferReply:
		return a.handleOfferReply(rt, env.From, m)
	case message.EnergyBid:
		return a.handleEnergyBid(rt, env.From, m)
	case message.InfoRequest:
		if env.From == a.cfg.Name && strings.HasPrefix(m.Topic, timeoutTopic) {
			round, err := strconv.Atoi(strings.TrimPrefix(m.Topic, timeoutTopic))
			if err != nil {
				return err
			}
			return a.handleTimeout(rt, round)
		}
		return nil
	default:
		return nil
	}
}

// handleCutDownBid records a reward-table bid and closes the round when the
// quorum is in.
func (a *Agent) handleCutDownBid(rt *agent.Runtime, from string, bid message.CutDownBid) error {
	if a.rts == nil || a.rts.Closed() {
		return nil
	}
	if bid.Round != a.rts.Round() {
		return nil // stale bid from a slower customer; the model keeps its last commitment
	}
	if err := a.rts.RecordBid(from, bid); err != nil {
		// A malformed or regressing bid is the customer's problem, not a
		// protocol-stopping event: note it and move on.
		return err
	}
	a.model.RecordResponse(from, bid.CutDown > 0)
	if a.rts.QuorumReached() {
		return a.closeRTRound(rt)
	}
	return nil
}

// closeRTRound advances or terminates the reward-table session.
func (a *Agent) closeRTRound(rt *agent.Runtime) error {
	rec, err := a.rts.CloseRound()
	if err != nil {
		return err
	}
	if rec.Elapsed > 0 {
		roundHist.Observe(rec.Elapsed)
	}
	if !rec.Outcome.Terminal() {
		return a.announceRT(rt)
	}
	awards, err := a.rts.Awards()
	if err != nil {
		return err
	}
	sp := trace.Child(a.sessionSpan.Context(), "award.commit")
	sp.SetAgent(a.cfg.Name)
	sp.SetSession(a.cfg.SessionID)
	for _, aw := range awards {
		if err := ignoreLost(rt.SendCtx(sp.Context(), aw.Customer, a.cfg.SessionID, aw.Award)); err != nil {
			sp.End()
			return err
		}
	}
	sp.End()
	if err := a.endSession(rt, rec.Round, rec.Outcome.String()); err != nil {
		return err
	}
	history := a.rts.History()
	a.finish(Result{
		SessionID:         a.cfg.SessionID,
		Method:            MethodRewardTable,
		Outcome:           rec.Outcome.String(),
		Rounds:            len(history),
		History:           history,
		Awards:            awards,
		TotalReward:       protocol.TotalRewardPaid(awards),
		InitialOveruseKWh: a.initial,
		FinalOveruseKWh:   rec.OveruseKWh,
		FinalOveruseRatio: rec.OveruseRatio,
	})
	return nil
}

// handleOfferReply records a yes/no and closes once everyone answered.
func (a *Agent) handleOfferReply(rt *agent.Runtime, from string, reply message.OfferReply) error {
	if a.offer == nil {
		return nil
	}
	if err := a.offer.RecordReply(from, reply); err != nil {
		if errors.Is(err, protocol.ErrSessionClosed) {
			return nil // reply raced a timeout close; harmless
		}
		return err
	}
	a.model.RecordResponse(from, reply.Accept)
	if a.offer.ResponseCount() >= len(a.cfg.Loads) {
		return a.closeOffer(rt)
	}
	return nil
}

// closeOffer finishes the offer session.
func (a *Agent) closeOffer(rt *agent.Runtime) error {
	out, err := a.offer.Close()
	if err != nil {
		return err
	}
	if err := a.endSession(rt, 1, "offer closed"); err != nil {
		return err
	}
	a.finish(Result{
		SessionID:         a.cfg.SessionID,
		Method:            MethodOffer,
		Outcome:           "offer closed",
		Rounds:            1,
		Offer:             &out,
		TotalReward:       out.DiscountCost,
		InitialOveruseKWh: a.initial,
		FinalOveruseKWh:   out.OveruseKWh,
		FinalOveruseRatio: out.OveruseRatio,
	})
	return nil
}

// handleEnergyBid records an RFB bid and closes the round on quorum.
func (a *Agent) handleEnergyBid(rt *agent.Runtime, from string, bid message.EnergyBid) error {
	if a.rfb == nil || a.rfb.Closed() {
		return nil
	}
	if bid.Round != a.rfb.Round() {
		return nil
	}
	if err := a.rfb.RecordBid(from, bid); err != nil {
		return err
	}
	if a.rfb.ResponseCount() >= len(a.cfg.Loads) {
		return a.closeRFBRound(rt)
	}
	return nil
}

// closeRFBRound advances or terminates the request-for-bids session.
func (a *Agent) closeRFBRound(rt *agent.Runtime) error {
	rec, err := a.rfb.CloseRound()
	if err != nil {
		return err
	}
	if !rec.Outcome.Terminal() {
		return a.announceRFB(rt)
	}
	if err := a.endSession(rt, rec.Round, rec.Outcome.String()); err != nil {
		return err
	}
	history := a.rfb.History()
	a.finish(Result{
		SessionID:         a.cfg.SessionID,
		Method:            MethodRequestForBids,
		Outcome:           rec.Outcome.String(),
		Rounds:            len(history),
		RFBHistory:        history,
		InitialOveruseKWh: a.initial,
		FinalOveruseKWh:   rec.OveruseKWh,
		FinalOveruseRatio: rec.OveruseRatio,
	})
	return nil
}

// handleTimeout closes the round the timeout was armed for, if it is still
// the current one.
func (a *Agent) handleTimeout(rt *agent.Runtime, round int) error {
	switch {
	case a.rts != nil && !a.rts.Closed() && a.rts.Round() == round:
		return a.closeRTRound(rt)
	case a.offer != nil && round == 1:
		if a.offer.ResponseCount() < len(a.cfg.Loads) {
			return a.closeOffer(rt)
		}
		return nil
	case a.rfb != nil && !a.rfb.Closed() && a.rfb.Round() == round:
		return a.closeRFBRound(rt)
	default:
		return nil // stale timeout for an already-advanced round
	}
}

// finish publishes the result exactly once and closes the session span.
func (a *Agent) finish(r Result) {
	if !a.sessionStart.IsZero() {
		sessionHist.Observe(time.Since(a.sessionStart)) //gridlint:allow walltime(session latency histogram observation; metrics only)
	}
	a.sessionSpan.End()
	select {
	case a.done <- r:
	default: // result already published (e.g. timeout racing quorum)
	}
}

var _ agent.Handler = (*Agent)(nil)

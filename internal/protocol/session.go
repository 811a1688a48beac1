package protocol

import (
	"fmt"
	"slices"
	"time"

	"loadbalance/internal/message"
	"loadbalance/internal/units"
)

// Outcome classifies how a reward-table negotiation round ended.
type Outcome int

// Outcomes.
const (
	// OutcomeContinue means another round follows with an improved table.
	OutcomeContinue Outcome = iota + 1
	// OutcomeConverged means the predicted overuse is at most the allowed
	// overuse — the paper's condition (1).
	OutcomeConverged
	// OutcomeCeiling means the reward step fell to Epsilon with the table at
	// (or asymptotically near) max_reward — the paper's condition (2). The
	// saturated table is always announced before the session ends, so the
	// final bids were made against the best offer the UA can make.
	OutcomeCeiling
	// OutcomeMaxRounds means the safety bound on rounds was hit.
	OutcomeMaxRounds
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeContinue:
		return "continue"
	case OutcomeConverged:
		return "converged"
	case OutcomeCeiling:
		return "reward ceiling reached"
	case OutcomeMaxRounds:
		return "max rounds reached"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Terminal reports whether the outcome ends the session.
func (o Outcome) Terminal() bool { return o != OutcomeContinue }

// RoundRecord captures one completed round for tracing and verification —
// the data behind Figures 6-9.
type RoundRecord struct {
	Round        int
	Table        Table              // table announced this round
	Bids         map[string]float64 // cut-down bids received this round
	Responses    int
	OveruseKWh   float64 // predicted overuse after merging bids
	OveruseRatio float64
	MaxDelta     float64 // largest reward increase when advancing the table
	BetaUsed     float64 // effective beta for the table update (adaptive runs)
	Outcome      Outcome
	// Elapsed is the wall-clock time from the round's announcement to its
	// close — the per-round latency fed to the observability histograms.
	// Zero when the round closed without ever being announced. A measurement,
	// not the negotiation's: a saved trace leaves it out.
	Elapsed time.Duration `json:"-"`
}

// RTSession is the Utility Agent's state machine for one negotiation using
// the announce-reward-tables method (Section 3.2.3). It is not safe for
// concurrent use; the owning agent goroutine drives it.
type RTSession struct {
	id        string
	window    units.Interval
	params    Params
	normalUse units.Energy

	roster    Roster // the session's own copy: CloseRound merges bids into it
	table     Table
	round     int
	bids      []float64 // this round's bids by roster index, read where bid[i]
	bid       []bool
	nbids     int // the customers that bid this round: the true entries of bid
	history   []RoundRecord
	outcome   Outcome
	closed    bool
	betaScale float64 // adaptive-beta multiplier (Section 7 extension)

	announcedAt time.Time // when the current round's table went out
}

// NewRTSession starts a reward-table negotiation. initial is the round-1
// table; loads maps every addressed customer to the UA's model of it.
func NewRTSession(id string, window units.Interval, p Params, initial Table, loads map[string]CustomerLoad, normalUse units.Energy) (*RTSession, error) {
	if id == "" {
		return nil, fmt.Errorf("%w: empty session id", ErrBadParams)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(initial.Entries) == 0 {
		return nil, fmt.Errorf("%w: empty initial table", ErrBadTable)
	}
	if len(loads) == 0 {
		return nil, fmt.Errorf("%w: no customers", ErrBadParams)
	}
	r := NewRoster(loads)
	for i := range r.loads {
		r.loads[i].CutDown, r.loads[i].Responded = 0, false
	}
	return &RTSession{
		id:        id,
		window:    window,
		params:    p,
		normalUse: normalUse,
		roster:    r,
		table:     initial.Clone(),
		round:     1,
		bids:      make([]float64, r.Len()),
		bid:       make([]bool, r.Len()),
		betaScale: 1,
	}, nil
}

// ID returns the session identifier.
func (s *RTSession) ID() string { return s.id }

// Round returns the current round number (1-based).
func (s *RTSession) Round() int { return s.round }

// Table returns a copy of the current reward table.
func (s *RTSession) Table() Table { return s.table.Clone() }

// Window returns the negotiation window.
func (s *RTSession) Window() units.Interval { return s.window }

// Closed reports whether the session has terminated.
func (s *RTSession) Closed() bool { return s.closed }

// FinalOutcome returns the terminal outcome (zero before termination).
func (s *RTSession) FinalOutcome() Outcome { return s.outcome }

// History returns the completed round records.
func (s *RTSession) History() []RoundRecord {
	return append([]RoundRecord(nil), s.history...)
}

// Announce returns the wire form of the current round's table and starts
// the round's latency clock.
func (s *RTSession) Announce() (message.RewardTable, error) {
	if s.closed {
		return message.RewardTable{}, ErrSessionClosed
	}
	s.announcedAt = time.Now() //gridlint:allow walltime(round latency clock start; Elapsed is measurement, never negotiated state)
	return s.table.Message(s.window, s.round), nil
}

// RecordBid validates and stores a customer's cut-down bid for the current
// round. The monotonic concession protocol requires the bid to be "a new bid
// or the same bid again" — the cut-down may never decrease across rounds —
// and the level must appear in the announced table.
func (s *RTSession) RecordBid(customer string, bid message.CutDownBid) error {
	if s.closed {
		return ErrSessionClosed
	}
	i := s.roster.Index(customer)
	if i < 0 {
		return fmt.Errorf("%w: %q", ErrUnknownCustomer, customer)
	}
	load := s.roster.loads[i]
	if bid.Round != s.round {
		return fmt.Errorf("%w: got %d, want %d", ErrWrongRound, bid.Round, s.round)
	}
	if err := bid.Validate(); err != nil {
		return err
	}
	if !s.params.ContinuousBids {
		if _, ok := s.table.RewardFor(bid.CutDown); !ok {
			return fmt.Errorf("%w: cut-down %v not in announced table", ErrBadTable, bid.CutDown)
		}
	}
	if bid.CutDown < load.CutDown {
		return fmt.Errorf("%w: %q bid %v after %v", ErrNonMonotonicBid, customer, bid.CutDown, load.CutDown)
	}
	if !s.bid[i] {
		s.bid[i] = true
		s.nbids++
	}
	s.bids[i] = bid.CutDown
	return nil
}

// ResponseCount returns how many customers have bid this round.
func (s *RTSession) ResponseCount() int { return s.nbids }

// QuorumReached reports whether the "acceptable number of bids" has been
// collected (all customers when MinResponses is 0).
func (s *RTSession) QuorumReached() bool {
	need := s.params.MinResponses
	if need <= 0 || need > s.roster.Len() {
		need = s.roster.Len()
	}
	return s.nbids >= need
}

// CloseRound merges the round's bids into the customer models, predicts the
// new balance and applies the termination rules. It returns the completed
// round record; when record.Outcome is terminal the session is closed.
func (s *RTSession) CloseRound() (RoundRecord, error) {
	if s.closed {
		return RoundRecord{}, ErrSessionClosed
	}
	rec := RoundRecord{
		Round:     s.round,
		Table:     s.table.Clone(),
		Bids:      make(map[string]float64, s.nbids),
		Responses: s.nbids,
	}
	for i, ok := range s.bid {
		if ok {
			s.roster.loads[i].CutDown, s.roster.loads[i].Responded = s.bids[i], true
			rec.Bids[s.roster.names[i]] = s.bids[i]
		}
	}
	clear(s.bid)
	s.nbids = 0
	if !s.announcedAt.IsZero() {
		rec.Elapsed = time.Since(s.announcedAt) //gridlint:allow walltime(round latency measurement for RoundRecord.Elapsed; never feeds negotiated state)
		s.announcedAt = time.Time{}
	}

	// PredictedOveruse and OveruseRatio, summed once in roster order.
	for _, l := range s.roster.loads {
		rec.OveruseKWh += UseWithCutDown(l).KWhs()
	}
	rec.OveruseKWh -= s.normalUse.KWhs()
	if s.normalUse != 0 {
		rec.OveruseRatio = rec.OveruseKWh / s.normalUse.KWhs()
	}

	effective := s.params
	effective.Beta *= s.betaScale
	rec.BetaUsed = effective.Beta
	next, maxDelta := s.table.Update(rec.OveruseRatio, effective)
	rec.MaxDelta = maxDelta

	// Section 7 extension: scale beta up when the round made little
	// progress on the overuse.
	if s.params.AdaptiveBeta && len(s.history) > 0 {
		prev := s.history[len(s.history)-1].OveruseKWh
		if prev > 0 {
			reduction := (prev - rec.OveruseKWh) / prev
			if reduction < s.params.adaptThreshold() {
				s.betaScale *= s.params.adaptFactor()
				if s.betaScale > maxBetaScale {
					s.betaScale = maxBetaScale
				}
			}
		}
	}

	switch {
	case rec.OveruseRatio <= s.params.AllowedOveruseRatio:
		rec.Outcome = OutcomeConverged
	case maxDelta <= s.params.Epsilon:
		// The table could not improve by more than Epsilon — it has reached
		// (or can no longer meaningfully approach) max_reward. Note the
		// ceiling table itself was announced and bid on before this fires: a
		// jump straight to the ceiling still gets one more round, so
		// customers always see the best offer the UA will ever make. An
		// urgent re-negotiation over a small residual capacity relies on
		// this — its first update typically saturates the table.
		rec.Outcome = OutcomeCeiling
	case s.round >= s.params.maxRounds():
		rec.Outcome = OutcomeMaxRounds
	default:
		rec.Outcome = OutcomeContinue
	}

	s.history = append(s.history, rec)
	if rec.Outcome.Terminal() {
		s.closed = true
		s.outcome = rec.Outcome
	} else {
		s.table = next
		s.round++
	}
	return rec, nil
}

// AwardFor returns the award message for one customer at session end: the
// cut-down it last bid and the reward the final table pays for it.
func (s *RTSession) AwardFor(customer string) (message.Award, error) {
	if !s.closed {
		return message.Award{}, fmt.Errorf("protocol: session %q still open", s.id)
	}
	i := s.roster.Index(customer)
	if i < 0 {
		return message.Award{}, fmt.Errorf("%w: %q", ErrUnknownCustomer, customer)
	}
	return s.awardAt(i), nil
}

// awardAt is the award of the i-th customer of the roster.
func (s *RTSession) awardAt(i int) message.Award {
	cut := s.roster.loads[i].CutDown
	reward, ok := s.table.RewardFor(cut)
	if !ok {
		if s.params.ContinuousBids {
			reward = s.table.InterpolatedReward(cut)
		} else {
			reward = 0
		}
	}
	return message.Award{Round: s.round, CutDown: cut, Reward: reward}
}

// Awards returns the award for every responding customer, sorted by name.
func (s *RTSession) Awards() ([]CustomerAward, error) {
	if !s.closed {
		return nil, fmt.Errorf("protocol: session %q still open", s.id)
	}
	out := make([]CustomerAward, 0, s.roster.Len())
	for i, l := range s.roster.loads {
		if l.Responded {
			out = append(out, CustomerAward{Customer: s.roster.names[i], Award: s.awardAt(i)})
		}
	}
	return out, nil
}

// CustomerAward pairs a customer with its award.
type CustomerAward struct {
	Customer string
	Award    message.Award
}

// TotalRewardPaid sums the rewards of all awards — the UA's cost of the
// negotiation, used by experiment E6.
func TotalRewardPaid(awards []CustomerAward) float64 {
	total := 0.0
	for _, a := range awards {
		total += a.Award.Reward
	}
	return total
}

// LoadOf exposes the UA's current model of a customer (for tracing).
func (s *RTSession) LoadOf(customer string) (CustomerLoad, bool) {
	i := s.roster.Index(customer)
	if i < 0 {
		return CustomerLoad{}, false
	}
	return s.roster.loads[i], true
}

// Customers returns the customer names in the session, sorted.
func (s *RTSession) Customers() []string { return slices.Clone(s.roster.names) }

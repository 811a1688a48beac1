package cluster

import (
	"fmt"
	"sync"
	"time"

	"loadbalance/internal/agent"
	"loadbalance/internal/bus"
	"loadbalance/internal/message"
	"loadbalance/internal/protocol"
	"loadbalance/internal/trace"
)

// ConcentratorConfig parameterises one Concentrator Agent.
type ConcentratorConfig struct {
	// Name is the concentrator's bus name on both tiers.
	Name string
	// SessionID identifies the negotiation the concentrator relays.
	SessionID string
	// Members is the shard's roster (Topology.Shard): its customers sorted by
	// name, each modelled the way a Utility Agent would (predicted and allowed
	// use). May be empty.
	Members protocol.Roster
	// MinResponses is the shard's "acceptable number of bids" before the
	// concentrator answers upward without waiting for stragglers; 0 means
	// all members.
	MinResponses int
	// RoundTimeout answers upward even without quorum, so lossy or silent
	// shards cannot stall the root session; 0 disables the timeout.
	RoundTimeout time.Duration
}

// Concentrator fronts one shard of Customer Agents in a hierarchical
// negotiation. Downward it plays the Utility Agent's role — it fans announced
// reward tables out to its members, collects their cut-down bids and
// distributes their awards. Upward it plays a Customer Agent's role — it
// answers each announcement with a single aggregated bid: the effective
// cut-down at which the shard's capped predicted use equals
// (1−bid)·allowed_use. Because predicted use, savable load and allowance are
// additive across customers, the root session's balance prediction over K
// concentrators equals the flat prediction over all N customers, preserving
// the paper's convergence conditions (1) and (2) end to end.
//
// Two runtimes host a concentrator (one per bus tier), so its state is
// mutex-guarded: the upward-facing runtime handles root traffic, the
// downward-facing one handles member bids, and shard round timeouts fire on
// timer goroutines.
type Concentrator struct {
	cfg     ConcentratorConfig
	relayed chan struct{} // closed once the session end is fanned out to the shard

	mu       sync.Mutex
	upRT     *agent.Runtime // registered on the parent (root) bus
	downRT   *agent.Runtime // registered on the shard's bus
	upstream string         // root agent name, learned from the announcement

	table   protocol.Table // last announced table (for award lookups)
	round   int            // current root round being relayed
	replied bool           // upward bid already sent for this round
	// Per-member state, by index into cfg.Members.
	heard     []bool // bid this round
	nheard    int    // the true entries of heard
	lastBids  []float64
	responded []bool
	lastUp    float64 // last upward bid (monotonic floor)
	ended     bool    // session end received: nothing more is relayed or recorded
	awarded   bool
	awards    []protocol.CustomerAward // what distributeAwards sent

	// tctx is the trace context of the last relayed announcement; timer
	// goroutines (shard round timeouts) attribute their upward bids to it
	// because no inbound envelope carries a context for them.
	tctx trace.Context
}

// NewConcentrator validates the configuration and constructs the agent.
func NewConcentrator(cfg ConcentratorConfig) (*Concentrator, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("%w: empty concentrator name", ErrBadConfig)
	}
	if cfg.SessionID == "" {
		return nil, fmt.Errorf("%w: empty session id", ErrBadConfig)
	}
	n := cfg.Members.Len()
	if cfg.MinResponses < 0 || cfg.MinResponses > n {
		return nil, fmt.Errorf("%w: min responses %d for %d members", ErrBadConfig, cfg.MinResponses, n)
	}
	if cfg.Members.Index(cfg.Name) >= 0 {
		return nil, fmt.Errorf("%w: member %q shadows the concentrator", ErrBadConfig, cfg.Name)
	}
	return &Concentrator{
		cfg:       cfg,
		heard:     make([]bool, n),
		lastBids:  make([]float64, n),
		responded: make([]bool, n),
		relayed:   make(chan struct{}),
	}, nil
}

// Start registers the concentrator on both tiers: parent is the bus the root
// Utility Agent announces on, shard is the bus its members answer on. The
// two must be distinct buses (each registers the concentrator under its
// name), but several concentrators may share one downward bus — the TCP
// deployment bridges every remote customer onto a single bus — so member
// fan-out names its recipients (one envelope through bus.SendTo) and is
// never a broadcast.
func (c *Concentrator) Start(parent, shard bus.Bus, inboxSize int) error {
	down, err := agent.Start(c.cfg.Name, shard, downSide{c}, inboxSize)
	if err != nil {
		return err
	}
	// The root may announce the moment it sees this concentrator on the
	// parent bus — a TCP root counts a worker as connected while the worker
	// is still dialing its shard — so the shard side is up first, and the
	// lock is held across the parent registration: the handler of an early
	// announcement waits at its first state read until both handles are
	// stored, instead of relaying through a nil runtime.
	c.mu.Lock()
	up, err := agent.Start(c.cfg.Name, parent, upSide{c}, inboxSize)
	c.upRT, c.downRT = up, down
	c.mu.Unlock()
	if err != nil {
		down.Stop()
	}
	return err
}

// Stop tears down both runtimes.
func (c *Concentrator) Stop() {
	c.mu.Lock()
	up, down := c.upRT, c.downRT
	c.mu.Unlock()
	if up != nil {
		up.Stop()
	}
	if down != nil {
		down.Stop()
	}
}

// Errors returns handler errors from both runtimes.
func (c *Concentrator) Errors() []error {
	c.mu.Lock()
	up, down := c.upRT, c.downRT
	c.mu.Unlock()
	var out []error
	if up != nil {
		out = append(out, up.Errors()...)
	}
	if down != nil {
		out = append(out, down.Errors()...)
	}
	return out
}

// WaitUp blocks until the root-facing runtime exits — its bus closed the
// inbox, e.g. the TCP connection to the root died. Worker processes use it
// as a liveness signal so a vanished root cannot strand them.
func (c *Concentrator) WaitUp() {
	c.mu.Lock()
	up := c.upRT
	c.mu.Unlock()
	if up != nil {
		up.Wait()
	}
}

// Relayed is closed once the concentrator has relayed the session end to its
// shard: every member's copy has been handed to the shard bus. Awards, when
// any were due, went before it on the same runtime.
func (c *Concentrator) Relayed() <-chan struct{} { return c.relayed }

// Done reports whether Relayed is closed.
func (c *Concentrator) Done() bool {
	select {
	case <-c.relayed:
		return true
	default:
		return false
	}
}

// RespondedMembers returns the members that have bid at least once, sorted.
// Its one caller is bench/'s frozen twin of the engine.
func (c *Concentrator) RespondedMembers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.cfg.Members.Len())
	for i, n := range c.cfg.Members.Names() {
		if c.responded[i] {
			out = append(out, n)
		}
	}
	return out
}

// upSide is the root-facing half: it receives announcements, awards and the
// session end from the parent tier.
type upSide struct{ c *Concentrator }

func (h upSide) OnStart(rt *agent.Runtime) error { return nil }

func (h upSide) OnMessage(rt *agent.Runtime, env message.Envelope) error {
	c := h.c
	if env.Session != c.cfg.SessionID {
		return nil
	}
	p, err := env.Decode()
	if err != nil {
		return err
	}
	switch m := p.(type) {
	case message.RewardTable:
		return c.relayAnnouncement(rt.TraceCtx(), env.From, m)
	case message.Award:
		return c.distributeAwards(rt.TraceCtx(), m)
	case message.SessionEnd:
		return c.forwardSessionEnd(rt.TraceCtx(), m)
	default:
		return nil
	}
}

// downSide is the shard-facing half: it receives member bids.
type downSide struct{ c *Concentrator }

func (h downSide) OnStart(rt *agent.Runtime) error { return nil }

func (h downSide) OnMessage(rt *agent.Runtime, env message.Envelope) error {
	c := h.c
	if env.Session != c.cfg.SessionID {
		return nil
	}
	p, err := env.Decode()
	if err != nil {
		return err
	}
	bid, ok := p.(message.CutDownBid)
	if !ok {
		return nil
	}
	return c.recordMemberBid(rt.TraceCtx(), env.From, bid)
}

// relayAnnouncement opens a new shard round: it notes the table, fans it out
// to every member and arms the shard timeout. An empty shard answers upward
// immediately.
func (c *Concentrator) relayAnnouncement(tc trace.Context, from string, m message.RewardTable) error {
	c.mu.Lock()
	if c.ended {
		c.mu.Unlock()
		return nil
	}
	c.upstream = from
	c.table = protocol.TableFromMessage(m)
	c.round = m.Round
	c.replied = false
	clear(c.heard)
	c.nheard = 0
	c.tctx = tc
	down := c.downRT
	c.mu.Unlock()

	// A failed delivery (member gone, inbox full) is equivalent to a lost
	// announcement: the quorum/timeout rules absorb it.
	_ = down.SendAllCtx(tc, c.cfg.Members.Names(), c.cfg.SessionID, m)
	if c.cfg.RoundTimeout > 0 {
		round := m.Round
		time.AfterFunc(c.cfg.RoundTimeout, func() { //gridlint:allow walltime(round liveness timeout; closes a round on silence, never changes a collected bid)
			_ = c.closeShardRound(round)
		})
	}
	return c.maybeReplyUpward(tc, m.Round, false)
}

// recordMemberBid merges one member's bid for the current round and answers
// upward once the acceptable number of bids is in.
func (c *Concentrator) recordMemberBid(tc trace.Context, from string, bid message.CutDownBid) error {
	c.mu.Lock()
	if c.ended {
		c.mu.Unlock()
		return nil
	}
	i := c.cfg.Members.Index(from)
	if i < 0 {
		c.mu.Unlock()
		return fmt.Errorf("%w: bid from %q outside shard", protocol.ErrUnknownCustomer, from)
	}
	if bid.Round != c.round || c.replied {
		// Stale bid, or a straggler arriving after the aggregate went
		// upward: the member's last commitment stands, exactly as the flat
		// Utility Agent discards bids for a closed round. Folding it in
		// here would pay the member for a cut-down the root never counted.
		c.mu.Unlock()
		return nil
	}
	// Monotonic concession: a member may stand still or step forward, never
	// regress. A regressing bid keeps the previous commitment.
	if bid.CutDown > c.lastBids[i] {
		c.lastBids[i] = bid.CutDown
	}
	if !c.heard[i] {
		c.heard[i] = true
		c.nheard++
	}
	c.responded[i] = true
	round := c.round
	c.mu.Unlock()
	return c.maybeReplyUpward(tc, round, false)
}

// closeShardRound is the timeout path: answer upward with whatever bids are
// in (the "acceptable number of bids" rule of Section 3.2.2).
func (c *Concentrator) closeShardRound(round int) error {
	c.mu.Lock()
	tc := c.tctx
	c.mu.Unlock()
	return c.maybeReplyUpward(tc, round, true)
}

// maybeReplyUpward sends the aggregated bid for the round when quorum is
// reached (or force is set) and it has not been sent yet.
func (c *Concentrator) maybeReplyUpward(tc trace.Context, round int, force bool) error {
	c.mu.Lock()
	if c.ended || c.replied || round != c.round {
		c.mu.Unlock()
		return nil
	}
	need := c.cfg.MinResponses
	if need <= 0 {
		need = c.cfg.Members.Len()
	}
	if !force && c.nheard < need {
		c.mu.Unlock()
		return nil
	}
	cut := c.effectiveCutDownLocked()
	if cut < c.lastUp {
		cut = c.lastUp // float guard: the aggregate never regresses
	}
	c.lastUp = cut
	c.replied = true
	up, upstream := c.upRT, c.upstream
	c.mu.Unlock()
	return up.SendCtx(tc, upstream, c.cfg.SessionID, message.CutDownBid{Round: round, CutDown: cut})
}

// effectiveCutDownLocked computes the shard's aggregated bid: the cut-down x
// at which (1−x)·allowed_use equals the shard's capped predicted use under
// the members' current commitments. The root's use_with_cutdown then
// reproduces the shard's true aggregate use exactly, so hierarchical and flat
// balance predictions coincide.
func (c *Concentrator) effectiveCutDownLocked() float64 {
	// Sum in roster order, which is sorted-name order: float addition is not
	// associative, so any other order would make the aggregated bid — and
	// everything the root derives from it — vary between runs.
	var use, allowed float64
	for i, cut := range c.lastBids {
		l := c.cfg.Members.Load(i)
		l.CutDown = cut
		use += protocol.UseWithCutDown(l).KWhs()
		allowed += l.Allowed.KWhs()
	}
	if allowed <= 0 {
		return 0
	}
	x := 1 - use/allowed
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	return x
}

// distributeAwards converts the root's aggregate award into per-member
// awards: each member that ever responded is paid the final table's reward at
// its own committed cut-down, exactly as the flat Utility Agent would.
func (c *Concentrator) distributeAwards(tc trace.Context, m message.Award) error {
	c.mu.Lock()
	if c.awarded {
		c.mu.Unlock()
		return nil
	}
	c.awarded = true
	table := c.table
	down := c.downRT
	awards := make([]protocol.CustomerAward, 0, c.cfg.Members.Len())
	for i, n := range c.cfg.Members.Names() {
		if !c.responded[i] {
			continue
		}
		cut := c.lastBids[i]
		reward, ok := table.RewardFor(cut)
		if !ok {
			reward = table.InterpolatedReward(cut)
		}
		awards = append(awards, protocol.CustomerAward{Customer: n, Award: message.Award{Round: m.Round, CutDown: cut, Reward: reward}})
	}
	c.awards = awards
	c.mu.Unlock()

	var firstErr error
	for _, a := range awards {
		if err := down.SendCtx(tc, a.Customer, c.cfg.SessionID, a.Award); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// forwardSessionEnd relays the termination downward and closes the shard.
// ended stops the negotiation (and a second relay) at once; relayed is closed
// only when the fan-out has returned, so a caller that tears the tier down on
// it cannot cut the relay short.
func (c *Concentrator) forwardSessionEnd(tc trace.Context, m message.SessionEnd) error {
	c.mu.Lock()
	if c.ended {
		c.mu.Unlock()
		return nil
	}
	c.ended = true
	down := c.downRT
	c.mu.Unlock()

	err := down.SendAllCtx(tc, c.cfg.Members.Names(), c.cfg.SessionID, m)
	close(c.relayed)
	return err
}

var (
	_ agent.Handler = upSide{}
	_ agent.Handler = downSide{}
)

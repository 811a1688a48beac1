// Package cluster scales the paper's single Utility-Agent ↔ N Customer-Agent
// negotiation to large fleets by interposing an aggregation tier: a
// hierarchical negotiation tree in which each Concentrator Agent fronts a
// shard of Customer Agents. The root Utility Agent announces reward tables to
// K concentrators instead of N customers; each concentrator fans the
// announcement out to its shard, collects the shard's bids concurrently on
// its own bus, and answers upward with one aggregated bid. Per-round work at
// the root drops from O(N) to O(K), shards negotiate in parallel, and —
// because predicted use, savable load and allowance are additive across
// customers — the root's balance prediction, reward-table updates and the
// paper's convergence conditions (1) and (2) are preserved exactly.
//
// The aggregated bid is continuous (a capacity-weighted effective cut-down),
// so the root session runs with protocol.Params.ContinuousBids: bids may land
// between grid levels and rewards interpolate linearly. Customers themselves
// still bid grid levels against the very same tables they would see flat, so
// a seeded scenario negotiated flat and negotiated through the tree reaches
// the same terminal outcome with the same aggregate predicted overuse (up to
// floating-point rounding).
//
// Run, RunDistributed and RunDialIn are one session engine over three layouts
// of the tree: in-process buses; tiers joined by loopback TCP; or a fleet, and
// optionally its concentrators, that dials in over buses the caller serves.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	agentrt "loadbalance/internal/agent"
	"loadbalance/internal/bus"
	"loadbalance/internal/core"
	"loadbalance/internal/customeragent"
	"loadbalance/internal/message"
	"loadbalance/internal/protocol"
	"loadbalance/internal/store"
	"loadbalance/internal/trace"
	"loadbalance/internal/utilityagent"
)

// Config parameterises a hierarchical negotiation run: in process (Run), over
// loopback TCP (RunDistributed) or with a fleet that dials in (RunDialIn).
type Config struct {
	// Scenario is the flat scenario to negotiate through the tree. Only the
	// reward-table method is supported (the prototype's method; the offer
	// and request-for-bids methods have no additive aggregate). A lossy
	// scenario or one with silent customers needs a RoundTimeout, like the
	// flat engine's; each concentrator closes its shard round after half of
	// it, so a forced shard answer still reaches the root inside the root's
	// round window.
	Scenario core.Scenario
	// Shards is the number of concentrators (default 4).
	Shards int
	// Journal optionally records the negotiation's terminal outcome — the
	// per-member bids and awards — as a durable session record before the run
	// returns, making a long scenario run resumable from its data dir; a
	// session that ends without an outcome is recorded as aborted.
	Journal *store.Store
	// JournalConfig fingerprints the parameters this run executes under;
	// it is copied into the session record so a resume can refuse an
	// outcome computed under different parameters.
	JournalConfig string
	// TraceParent links the session's root span under an enclosing trace
	// (a live tick's renegotiation decision); invalid starts a new trace.
	TraceParent trace.Context
}

// Result is the outcome of one hierarchical negotiation run.
type Result struct {
	utilityagent.Result
	// Shards is the concentrator count used.
	Shards int
	// ParentBus holds the root-tier transport counters.
	ParentBus bus.Stats
	// ShardBuses holds each shard bus's counters.
	ShardBuses []bus.Stats
	// FinalBids maps each member to its last cut-down bid: every non-silent
	// customer, or each worker concentrator's aggregate when the root only
	// sees those (RunDialIn with a root bus).
	FinalBids map[string]float64
	// Elapsed is the wall time of the run.
	Elapsed time.Duration
	// AgentErrors collects handler errors from every runtime.
	AgentErrors []error
}

// Messages sums the traffic across both tiers.
func (r *Result) Messages() int { return r.Flat().Bus.Sent }

// Flat reports the run as the flat engine reports one: the root's result with
// both tiers' bus counters summed, so flat and sharded renders compare fairly.
func (r *Result) Flat() *core.Result {
	total := r.ParentBus
	for _, s := range r.ShardBuses {
		total.Sent += s.Sent
		total.Delivered += s.Delivered
		total.Dropped += s.Dropped
		total.Rejected += s.Rejected
	}
	return &core.Result{Result: r.Result, Bus: total, FinalBids: r.FinalBids, Elapsed: r.Elapsed, AgentErrors: r.AgentErrors}
}

// Run executes a scenario through a 2-level concentrator tree: a root bus
// carrying the Utility Agent and K concentrators, and K independent
// in-process shard buses each carrying one concentrator and its customers.
func Run(cfg Config) (*Result, error) {
	res, err := negotiate(context.Background(), cfg, inProcess)
	if res == nil {
		return nil, err
	}
	return &res.Result, err
}

// tree is one session's running parts, as a layout placed them.
type tree struct {
	root    bus.Bus // the Utility Agent's bus
	flat    bool    // the Utility Agent faces the customers itself: no concentrators
	tier    *Tier   // the in-process concentrators, if any
	ua      *agentrt.Runtime
	fleets  []*agentrt.Fleet
	cas     map[string]*customeragent.Agent // the fleet, when it is hosted in process
	exposed []bus.Bus                       // the buses other processes hang on: where an abort goes
	closers []func()                        // the layout's buses and servers, closed in reverse after the agents stop
	settle  func(context.Context) error     // if set, waits for what the concentrators relayed to reach the fleet's bus
	report  func(*DistributedResult)        // copies the transport's counters while everything is up
}

func (t *tree) stop() {
	if t.ua != nil {
		t.ua.Stop()
	}
	if t.tier != nil {
		t.tier.Stop()
	}
	for _, f := range t.fleets {
		f.Stop()
	}
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

// A layout places a session's tiers — the one step the entry points take
// differently: it builds the buses into t, finds or hosts the fleet and starts
// the tier under tc, registering whatever it opened in t.closers even when it
// fails halfway. It waits for remote parts under ctx.
type layout func(ctx context.Context, t *tree, s core.Scenario, topo Topology, tc TierConfig) error

// negotiate is the session engine: validation, defaults, the topology, the
// stall timer, the session itself, the result and the journal. Where the buses
// live is place's. A session that ends without an outcome — ctx ended, the
// scenario's timeout passed, a part failed to start — takes the one error path,
// abort, whatever the layout.
func negotiate(ctx context.Context, cfg Config, place layout) (*DistributedResult, error) {
	s := cfg.Scenario
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Method != utilityagent.MethodRewardTable {
		return nil, fmt.Errorf("%w: cluster negotiation requires the reward-table method, got %v", ErrBadConfig, s.Method)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("%w: shard count %d", ErrBadConfig, cfg.Shards)
	}
	topo, err := NewTopology(s.Loads(), cfg.Shards)
	if err != nil {
		return nil, err
	}

	start := time.Now() //gridlint:allow walltime(wall-duration measurement for Result.Elapsed; never feeds negotiated state)
	timeout := s.RunTimeout()
	ctx, cancel := context.WithTimeoutCause(ctx, timeout, fmt.Errorf("%w after %v", ErrTimeout, timeout))
	defer cancel()
	var t tree
	defer t.stop()
	uaResult, err := t.session(ctx, cfg, topo, place)
	if err != nil {
		return nil, t.abort(cfg, err)
	}

	res := &DistributedResult{Result: Result{
		Result:  uaResult,
		Shards:  topo.Shards(),
		Elapsed: time.Since(start), //gridlint:allow walltime(wall-duration measurement for Result.Elapsed; never feeds negotiated state)
	}}
	// What each member last bid and was awarded is known to its own agent;
	// failing that, to the in-process tier that relayed to it; failing that,
	// the Utility Agent faced its bidders itself.
	var award func(string) (message.Award, bool)
	switch {
	case t.cas != nil:
		res.FinalBids, award = hosted(t.cas, s.SessionID)
	case t.tier != nil:
		res.FinalBids, award = faced(t.tier.awarded())
	default:
		res.FinalBids, award = faced(uaResult.Awards)
	}
	t.report(res)
	for _, f := range t.fleets {
		res.AgentErrors = append(res.AgentErrors, f.Errors()...)
	}
	res.AgentErrors = append(res.AgentErrors, t.ua.Errors()...)
	if t.tier != nil {
		res.AgentErrors = append(res.AgentErrors, t.tier.Errors()...)
	}
	if cfg.Journal != nil {
		return res, cfg.journalOutcome(&res.Result, award)
	}
	return res, nil
}

// session places the tree, starts the Utility Agent at its root and waits,
// under ctx, for the outcome and for what it sent to reach every member.
func (t *tree) session(ctx context.Context, cfg Config, topo Topology, place layout) (utilityagent.Result, error) {
	s := cfg.Scenario
	var res utilityagent.Result
	tc := TierConfig{SessionID: s.SessionID, FleetMinResponses: s.Params.MinResponses, RoundTimeout: s.RoundTimeout / 2}
	if err := place(ctx, t, s, topo, tc); err != nil {
		return res, err
	}
	// The root negotiates with the K concentrators over aggregated loads, or
	// on a flat layout with the customers themselves.
	uaCfg := RootConfig(s, topo, cfg.TraceParent)
	if t.flat {
		uaCfg = s.UAConfig(s.Loads())
		uaCfg.TraceParent = cfg.TraceParent
	}
	ua, rt, err := core.StartUtilityAgent(t.root, uaCfg)
	if err != nil {
		return res, err
	}
	t.ua = rt
	select {
	case res = <-ua.Done():
	case <-ctx.Done():
		return res, context.Cause(ctx)
	}

	// The awards and the session end are still on their way down the tree:
	// each concentrator hands its shard's awards and then the session end to
	// its downward bus, and what reaches the fleet's bus is then in the
	// fleet's queue. A below-warrant prediction ends without any
	// announcement, so there is nothing to relay.
	if len(res.History) > 0 {
		if t.tier != nil {
			if err := t.tier.awaitRelay(ctx); err != nil {
				return res, err
			}
		}
		if t.settle != nil {
			if err := t.settle(ctx); err != nil {
				return res, err
			}
		}
	}
	for _, f := range t.fleets {
		f.Quiesce()
	}
	return res, nil
}

// abort ends a session that has no outcome, whatever its layout: one aborting
// session end on each bus other processes hang on, so none of them waits for
// a negotiation that is over, and with a journal an aborted record, so
// recovery never replays a half-committed session. It returns cause.
func (t *tree) abort(cfg Config, cause error) error {
	session, reason := cfg.Scenario.SessionID, cause.Error()
	for _, b := range t.exposed {
		if end, err := message.NewEnvelope("ua", "", session, message.SessionEnd{Reason: "aborted: " + reason}); err == nil {
			_ = b.Send(end)
		}
	}
	if cfg.Journal != nil {
		if err := cfg.journal(store.NewAbortRecord(store.AbortInfo{SessionID: session, Reason: reason})); err != nil {
			return errors.Join(cause, err)
		}
	}
	return cause
}

// inProcess is Run's layout: a lossless root bus for the Utility Agent and
// the concentrators — the utility's own backbone — and one bus per shard
// carrying a concentrator and its members, the scenario's DropRate injected
// there as one seeded stream per shard.
func inProcess(_ context.Context, t *tree, s core.Scenario, topo Topology, tc TierConfig) error {
	parent, err := bus.NewInProc(bus.Config{})
	if err != nil {
		return err
	}
	t.closers = append(t.closers, parent.Close)
	t.root = parent

	// Shard i hosts block i of the customers sorted by name — the Topology's
	// partition — as one fleet on a bus of its own.
	fleet := slices.Clone(s.Customers)
	slices.SortFunc(fleet, func(a, b core.CustomerSpec) int { return strings.Compare(a.Name, b.Name) })
	t.cas = make(map[string]*customeragent.Agent, len(fleet))
	var shards []*bus.InProc
	for i, members := range topo.shards {
		shardBus, err := bus.NewInProc(bus.Config{DropRate: s.DropRate, Seed: s.Seed + int64(i) + 1})
		if err != nil {
			return err
		}
		t.closers = append(t.closers, shardBus.Close)
		shards = append(shards, shardBus)
		agents, f, err := core.HostCustomers(shardBus, fleet[:len(members)])
		if err != nil {
			return err
		}
		fleet = fleet[len(members):]
		maps.Copy(t.cas, agents)
		t.fleets = append(t.fleets, f)
	}
	t.report = func(res *DistributedResult) {
		res.ParentBus = parent.Stats()
		for _, b := range shards {
			res.ShardBuses = append(res.ShardBuses, b.Stats())
		}
	}
	t.tier, err = StartTier(parent, func(i int) bus.Bus { return shards[i] }, topo, tc)
	return err
}

// hosted reads a session off the Customer Agents hosted in process: each one's
// last bid, and a lookup of the award it received.
func hosted(cas map[string]*customeragent.Agent, session string) (map[string]float64, func(string) (message.Award, bool)) {
	bids := make(map[string]float64, len(cas))
	for name, ca := range cas {
		bids[name] = ca.LastBid(session)
	}
	return bids, func(name string) (message.Award, bool) { return cas[name].AwardFor(session) }
}

// faced reads a session off the awards its bidders were sent: an award's
// cut-down is the bidder's last bid.
func faced(awards []protocol.CustomerAward) (map[string]float64, func(string) (message.Award, bool)) {
	bids := make(map[string]float64, len(awards))
	sent := make(map[string]message.Award, len(awards))
	for _, a := range awards {
		bids[a.Customer], sent[a.Customer] = a.Award.CutDown, a.Award
	}
	return bids, func(name string) (message.Award, bool) { a, ok := sent[name]; return a, ok }
}

// journalOutcome appends the session's terminal record — every member's final
// bid and delivered award — and is the one writer of a cluster session's
// record, whichever layout ran it. The other session records come from other
// engines: telemetry's LiveEngine.journalSession records a live grid's
// initial negotiation, loadsim's journalFlatResult a flat run, and
// cmd/experiments one record per completed experiment. A journaling failure
// surfaces as the run's error: durable mode must never report success for an
// outcome that is not on disk.
func (cfg Config) journalOutcome(res *Result, award func(string) (message.Award, bool)) error {
	out := store.SessionOutcome{
		SessionID: cfg.Scenario.SessionID,
		Outcome:   res.Outcome,
		Rounds:    res.Rounds,
		Config:    cfg.JournalConfig,
		Bids:      res.FinalBids,
		Awards:    make(map[string]store.AwardEntry, len(res.FinalBids)),
	}
	for name := range res.FinalBids {
		if a, ok := award(name); ok {
			out.Awards[name] = store.AwardEntry{CutDown: a.CutDown, Reward: a.Reward}
		}
	}
	return cfg.journal(store.NewSessionRecord(out))
}

// journal appends rec, unless making it failed, and syncs it.
func (cfg Config) journal(rec store.Record, err error) error {
	if err == nil {
		err = cfg.Journal.Append(rec)
	}
	if err == nil {
		err = cfg.Journal.Sync()
	}
	return err
}

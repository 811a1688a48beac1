package cluster

import (
	"context"
	"fmt"
	"time"

	agentrt "loadbalance/internal/agent"
	"loadbalance/internal/bus"
	"loadbalance/internal/core"
	"loadbalance/internal/customeragent"
	"loadbalance/internal/message"
	"loadbalance/internal/trace"
	"loadbalance/internal/utilityagent"
)

// Distributed cluster mode: the concentrator tier runs behind real TCP
// connections instead of in-process buses, so each concentrator can live in
// its own OS process (cmd/gridd -role concentrator) or behind its own
// loopback connection pair. Two servers bridge the tiers: the root server
// carries the Utility Agent's announcements to the concentrators, the member
// server carries each concentrator's fan-out to its shard. Because the
// binary wire codec is content-preserving and the aggregation arithmetic is
// order-independent under full quorum, a seeded scenario negotiated this way
// produces byte-identical awards to the flat in-process run.

// DialTier starts one Concentrator per shard of the topology with every
// concentrator behind its own pair of TCP connections (bus.Dial under the
// hood): upward to rootAddr, downward to memberAddr. The returned remotes
// own the connections; Tier.Stop closes them via the runtimes.
func DialTier(rootAddr, memberAddr string, topo Topology, cfg TierConfig) (*Tier, *bus.Remote, *bus.Remote, error) {
	return DialTierList([]string{rootAddr}, []string{memberAddr}, topo, cfg)
}

// DialTierList is DialTier over dial lists: each tier names its primary
// address first and failover addresses after it, so a worker tier started
// against a replicated grid head finds whichever replica is serving. Every
// Register tries the lists in order.
func DialTierList(rootAddrs, memberAddrs []string, topo Topology, cfg TierConfig) (*Tier, *bus.Remote, *bus.Remote, error) {
	up := bus.NewRemoteList(rootAddrs, bus.ClientConfig{})
	down := bus.NewRemoteList(memberAddrs, bus.ClientConfig{})
	tier, err := StartTier(up, func(int) bus.Bus { return down }, topo, cfg)
	if err != nil {
		up.Close()
		down.Close()
		return nil, nil, nil, err
	}
	return tier, up, down, nil
}

// WorkerConfig parameterises one concentrator worker (typically its own OS
// process).
type WorkerConfig struct {
	// UpAddr is the root tier's TCP server (the Utility Agent's side). It
	// may be a comma-separated dial list; addresses are tried in order.
	UpAddr string
	// DownAddr is the member tier's TCP server (the customers' side). It
	// may be a comma-separated dial list.
	DownAddr string
	// Concentrator is the shard configuration.
	Concentrator ConcentratorConfig
	// InboxSize sizes both connection inboxes (0 picks a size from the
	// shard's member count).
	InboxSize int
}

// RunWorker hosts one concentrator behind dialed connections until the
// session end has been relayed to the shard, then tears down. A cancelled
// context abandons the session early.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.UpAddr == "" || cfg.DownAddr == "" {
		return fmt.Errorf("%w: worker needs -up and -down addresses", ErrBadConfig)
	}
	cc, err := NewConcentrator(cfg.Concentrator)
	if err != nil {
		return err
	}
	inbox := cfg.InboxSize
	if inbox <= 0 {
		inbox = 4 * max(len(cfg.Concentrator.Members), 16)
	}
	up := bus.NewRemoteList(bus.SplitAddrList(cfg.UpAddr), bus.ClientConfig{})
	down := bus.NewRemoteList(bus.SplitAddrList(cfg.DownAddr), bus.ClientConfig{})
	defer up.Close()
	defer down.Close()
	if err := cc.Start(up, down, inbox); err != nil {
		return err
	}
	defer cc.Stop()

	upDead := make(chan struct{})
	go func() {
		cc.WaitUp()
		close(upDead)
	}()

	select {
	case <-cc.Relayed():
	case <-ctx.Done():
		return ctx.Err()
	case <-upDead:
		// The root connection died. Everything it delivered has been
		// handled by now, so a pending session end has already landed.
		if !cc.Done() {
			return fmt.Errorf("cluster: worker %q lost the root connection before session end", cfg.Concentrator.Name)
		}
	}
	// The session end is relayed; awards were written synchronously before
	// it, so the shard has everything. Give the server-side writers a beat
	// to flush anything still queued toward us, then unwind.
	time.Sleep(50 * time.Millisecond)
	for _, err := range cc.Errors() {
		return fmt.Errorf("cluster: worker %q: %w", cfg.Concentrator.Name, err)
	}
	return nil
}

// DistributedConfig parameterises a negotiation with the concentrator tier
// behind TCP.
type DistributedConfig struct {
	// Scenario is the flat scenario to negotiate (reward-table method only,
	// like Config). DropRate must be zero: loss injection is seeded per
	// shard bus, which a shared TCP bridge cannot reproduce.
	Scenario core.Scenario
	// Shards is the number of concentrator connections (default 4).
	Shards int
	// ShardRoundTimeout mirrors Config.ShardRoundTimeout.
	ShardRoundTimeout time.Duration
	// TraceParent mirrors Config.TraceParent.
	TraceParent trace.Context
}

// DistributedResult extends Result with the transport's view of the run.
type DistributedResult struct {
	Result
	// MemberAwards is each responding customer's award exactly as delivered
	// over the tree — the byte-equivalence surface against a flat run.
	MemberAwards map[string]message.Award
	// RootWire and MemberWire are the two TCP servers' frame counters.
	RootWire, MemberWire bus.WireStats
}

// RunDistributed executes a scenario through a 2-level concentrator tree
// whose tiers are joined by TCP: root bus ⇄ root server ⇄ K concentrator
// connections ⇄ member server ⇄ member bus carrying the customers.
func RunDistributed(cfg DistributedConfig) (*DistributedResult, error) {
	s := cfg.Scenario
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Method != utilityagent.MethodRewardTable {
		return nil, fmt.Errorf("%w: distributed negotiation requires the reward-table method, got %v", ErrBadConfig, s.Method)
	}
	if s.DropRate != 0 {
		return nil, fmt.Errorf("%w: distributed negotiation is lossless (DropRate %v)", ErrBadConfig, s.DropRate)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("%w: shard count %d", ErrBadConfig, cfg.Shards)
	}
	if cfg.ShardRoundTimeout <= 0 {
		cfg.ShardRoundTimeout = s.RoundTimeout / 2
	}
	timeout := s.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}

	topo, err := NewTopology(s.Loads(), cfg.Shards)
	if err != nil {
		return nil, err
	}

	memberBus, err := bus.NewInProc(bus.Config{})
	if err != nil {
		return nil, err
	}
	defer memberBus.Close()
	memberSrv, err := bus.ListenAndServe("127.0.0.1:0", memberBus)
	if err != nil {
		return nil, err
	}
	defer memberSrv.Close()

	rootBus, err := bus.NewInProc(bus.Config{})
	if err != nil {
		return nil, err
	}
	defer rootBus.Close()
	rootSrv, err := bus.ListenAndServe("127.0.0.1:0", rootBus)
	if err != nil {
		return nil, err
	}
	defer rootSrv.Close()

	start := time.Now() //gridlint:allow walltime(wall-duration measurement for Result.Elapsed; never feeds negotiated state)

	// Every member shares the one bus behind memberSrv; fan-outs name their
	// recipients, so the shards need no bus of their own.
	cas, fleet, err := core.HostCustomers(memberBus, s.Customers)
	if err != nil {
		return nil, err
	}
	var tier *Tier
	defer func() {
		if tier != nil {
			tier.Stop()
		}
		fleet.Stop()
	}()

	tier, _, _, err = DialTier(rootSrv.Addr(), memberSrv.Addr(), topo, TierConfig{
		SessionID:         s.SessionID,
		FleetMinResponses: s.Params.MinResponses,
		RoundTimeout:      cfg.ShardRoundTimeout,
		InboxSize:         4 * max(topo.maxShardSize(), 16),
	})
	if err != nil {
		return nil, err
	}

	ua, err := utilityagent.New(utilityagent.Config{
		Name:         "ua",
		SessionID:    s.SessionID,
		Window:       s.Window,
		NormalUse:    s.NormalUse,
		Loads:        topo.AggregateLoads(),
		Method:       utilityagent.MethodRewardTable,
		Params:       RootParams(s.Params),
		LeadTime:     s.LeadTime,
		InitialSlope: s.InitialSlope,
		RoundTimeout: s.RoundTimeout,
		WarrantRatio: s.Params.AllowedOveruseRatio,
		TraceParent:  cfg.TraceParent,
	})
	if err != nil {
		return nil, err
	}
	uaRT, err := agentrt.Start("ua", rootBus, ua, 4*max(topo.Shards(), 16))
	if err != nil {
		return nil, err
	}
	defer uaRT.Stop()

	stalled := time.After(timeout) //gridlint:allow walltime(liveness timeout for a stalled distributed fleet; fires only when the run already failed)
	var uaResult utilityagent.Result
	select {
	case uaResult = <-ua.Done():
	case <-stalled:
		return nil, fmt.Errorf("%w after %v", ErrTimeout, timeout)
	}

	// Awards and the session end cross two TCP hops before reaching the
	// customers. A concentrator has relayed once its frames are written, not
	// once the member server has read them, so wait (bounded) until every
	// in-process member that is owed an award has it; the fleet then finishes
	// what has arrived.
	if len(uaResult.History) > 0 {
		if err := tier.awaitRelay(stalled); err != nil {
			return nil, fmt.Errorf("%w after %v", err, timeout)
		}
		onTheWire := time.Now().Add(2 * time.Second) //gridlint:allow walltime(bounded wait for award frames still on the wire; liveness only, awards are already decided)
		for time.Now().Before(onTheWire) {           //gridlint:allow walltime(bounded wait for award frames still on the wire; liveness only, awards are already decided)
			if allAwarded(tier.Concentrators, cas, s.SessionID) {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	fleet.Quiesce()

	res := &DistributedResult{
		Result: Result{
			Result:    uaResult,
			Shards:    topo.Shards(),
			ParentBus: rootBus.Stats(),
			FinalBids: make(map[string]float64, len(cas)),
			Elapsed:   time.Since(start), //gridlint:allow walltime(wall-duration measurement for Result.Elapsed; never feeds negotiated state)
		},
		MemberAwards: make(map[string]message.Award, len(cas)),
	}
	res.ShardBuses = []bus.Stats{memberBus.Stats()}
	for name, ca := range cas {
		res.FinalBids[name] = ca.LastBid(s.SessionID)
		if award, ok := ca.AwardFor(s.SessionID); ok {
			res.MemberAwards[name] = award
		}
	}
	res.AgentErrors = append(fleet.Errors(), uaRT.Errors()...)
	res.AgentErrors = append(res.AgentErrors, tier.Errors()...)
	res.RootWire = rootSrv.WireStats()
	res.MemberWire = memberSrv.WireStats()
	return res, nil
}

// allAwarded reports whether every responding member hosted in-process has
// seen its award.
func allAwarded(ccs []*Concentrator, cas map[string]*customeragent.Agent, session string) bool {
	for _, c := range ccs {
		for _, name := range c.RespondedMembers() {
			ca, ok := cas[name]
			if !ok {
				continue
			}
			if _, got := ca.AwardFor(session); !got {
				return false
			}
		}
	}
	return true
}

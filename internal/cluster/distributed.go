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
)

// WorkerConfig parameterises one concentrator worker: a concentrator in its
// own OS process (cmd/gridd -role concentrator), dialing both tiers.
type WorkerConfig struct {
	// UpAddr is the root tier's TCP server (the Utility Agent's side). It
	// may be a comma-separated dial list; addresses are tried in order.
	UpAddr string
	// DownAddr is the member tier's TCP server (the customers' side). It
	// may be a comma-separated dial list.
	DownAddr string
	// Concentrator is the shard configuration.
	Concentrator ConcentratorConfig
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
	up := bus.NewRemoteList(bus.SplitAddrList(cfg.UpAddr), bus.ClientConfig{})
	down := bus.NewRemoteList(bus.SplitAddrList(cfg.DownAddr), bus.ClientConfig{})
	defer up.Close()
	defer down.Close()
	if err := cc.Start(up, down, core.FanInInbox(len(cfg.Concentrator.Members))); err != nil {
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

// DistributedConfig is RunDistributed's Config; its scenario must be lossless
// (loss is seeded per shard bus, which a shared TCP bridge cannot reproduce).
type DistributedConfig = Config

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
// connections ⇄ member server ⇄ member bus carrying the customers. The binary
// wire codec preserves content and the aggregation is order-independent under
// full quorum, so a seeded scenario's awards are byte-identical to Run's.
func RunDistributed(cfg DistributedConfig) (*DistributedResult, error) {
	if cfg.Scenario.DropRate != 0 {
		return nil, fmt.Errorf("%w: distributed negotiation is lossless (DropRate %v)", ErrBadConfig, cfg.Scenario.DropRate)
	}
	return negotiate(cfg, overTCP)
}

// overTCP is RunDistributed's layout: a root and a member bus, each behind a
// loopback server, every customer hosted on the member bus — fan-outs name
// their recipients, so the shards need no bus of their own — and every
// concentrator behind its own pair of dialed connections, upward to the root
// server and downward to the member server.
func overTCP(t *tree, s core.Scenario, topo Topology, tc TierConfig) error {
	memberBus, memberSrv, err := serveLoopback(t)
	if err != nil {
		return err
	}
	rootBus, rootSrv, err := serveLoopback(t)
	if err != nil {
		return err
	}
	t.root = rootBus
	cas, fleet, err := core.HostCustomers(memberBus, s.Customers)
	if err != nil {
		return err
	}
	t.cas, t.fleets = cas, []*agentrt.Fleet{fleet}
	up, down := bus.NewRemote(rootSrv.Addr()), bus.NewRemote(memberSrv.Addr())
	t.closers = append(t.closers, up.Close, down.Close)
	t.settle = func() { awaitWire(t.tier, cas, s.SessionID) }
	t.report = func(res *DistributedResult) {
		res.ParentBus, res.ShardBuses = rootBus.Stats(), []bus.Stats{memberBus.Stats()}
		res.RootWire, res.MemberWire = rootSrv.WireStats(), memberSrv.WireStats()
		res.MemberAwards = make(map[string]message.Award, len(cas))
		for name, ca := range cas {
			if award, ok := ca.AwardFor(s.SessionID); ok {
				res.MemberAwards[name] = award
			}
		}
	}
	t.tier, err = StartTier(up, func(int) bus.Bus { return down }, topo, tc)
	return err
}

// serveLoopback opens a bus behind a server on a loopback port.
func serveLoopback(t *tree) (*bus.InProc, *bus.Server, error) {
	b, err := bus.NewInProc(bus.Config{})
	if err != nil {
		return nil, nil, err
	}
	t.closers = append(t.closers, b.Close)
	srv, err := bus.ListenAndServe("127.0.0.1:0", b)
	if err != nil {
		return nil, nil, err
	}
	t.closers = append(t.closers, srv.Close)
	return b, srv, nil
}

// awaitWire covers the second TCP hop: a concentrator has relayed once its
// frames are written, not once the member server has read them, so it waits
// (bounded) until every member a concentrator heard from has its award; the
// fleet then finishes what has arrived.
func awaitWire(tier *Tier, cas map[string]*customeragent.Agent, session string) {
	onTheWire := time.Now().Add(2 * time.Second) //gridlint:allow walltime(bounded wait for award frames still on the wire; liveness only, awards are already decided)
wait:
	for time.Now().Before(onTheWire) { //gridlint:allow walltime(bounded wait for award frames still on the wire; liveness only, awards are already decided)
		for _, c := range tier.Concentrators {
			for _, name := range c.RespondedMembers() {
				if _, got := cas[name].AwardFor(session); !got {
					time.Sleep(time.Millisecond)
					continue wait
				}
			}
		}
		return
	}
}

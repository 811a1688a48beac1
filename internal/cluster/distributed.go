package cluster

import (
	"context"
	"fmt"

	"loadbalance/internal/bus"
	"loadbalance/internal/core"
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
	if err := cc.Start(up, down, core.FanInInbox(cfg.Concentrator.Members.Len())); err != nil {
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
	// it, so the shard has everything: unwind.
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
	return negotiate(context.Background(), cfg, true, overTCP)
}

// overTCP is RunDistributed's layout: a root and a member bus, each behind a
// loopback server, every customer hosted on the member bus — fan-outs name
// their recipients, so the shards need no bus of their own — and every
// concentrator behind its own pair of dialed connections, upward to the root
// server and downward to the member server.
func overTCP(_ context.Context, t *tree) error {
	memberBus, memberSrv, err := t.serveLoopback()
	if err != nil {
		return err
	}
	rootBus, rootSrv, err := t.serveLoopback()
	if err != nil {
		return err
	}
	t.Bus = rootBus
	if err := t.Host(memberBus, t.s.Customers); err != nil {
		return err
	}
	up, down := bus.NewRemote(rootSrv.Addr()), bus.NewRemote(memberSrv.Addr())
	t.Stops = append(t.Stops, up.Close, down.Close)
	t.Report = func(*core.Result) {
		t.res.ParentBus, t.res.ShardBuses = rootBus.Stats(), []bus.Stats{memberBus.Stats()}
		t.res.RootWire, t.res.MemberWire = rootSrv.WireStats(), memberSrv.WireStats()
		t.res.MemberAwards = make(map[string]message.Award, len(t.Agents))
		for name, ca := range t.Agents {
			if award, ok := ca.AwardFor(t.s.SessionID); ok {
				t.res.MemberAwards[name] = award
			}
		}
	}
	if err := t.startTier(up, func(int) bus.Bus { return down }); err != nil {
		return err
	}
	// A concentrator has relayed once its frames are written, not once the
	// member server has read them: closing the downward connections and
	// waiting for them to leave the member bus is waiting for that server to
	// have forwarded all they carried.
	t.Settle = append(t.Settle, func(ctx context.Context) error {
		down.Close()
		return memberBus.AwaitNames(ctx, t.topo.concentratorNames(), false)
	})
	return nil
}

// serveLoopback opens a bus behind a server on a loopback port.
func (t *tree) serveLoopback() (*bus.InProc, *bus.Server, error) {
	b, err := t.newBus(bus.Config{})
	if err != nil {
		return nil, nil, err
	}
	srv, err := bus.ListenAndServe("127.0.0.1:0", b)
	if err != nil {
		return nil, nil, err
	}
	t.Stops = append(t.Stops, srv.Close)
	return b, srv, nil
}

// RunDialIn negotiates with a fleet that dials in over buses the caller serves:
// the scenario's customers register on member and, with root set, one worker
// concentrator per shard (RunWorker) on root and member. It waits for them
// under ctx and the scenario's timeout. With one shard and no root the Utility
// Agent faces the customers itself, under any announcement method; with more
// it starts the tier in process over member. The network, not DropRate,
// decides what is lost.
func RunDialIn(ctx context.Context, cfg Config, member, root *bus.InProc) (*DistributedResult, error) {
	return negotiate(ctx, cfg, root != nil || cfg.Shards != 1, func(ctx context.Context, t *tree) error {
		return dialIn(ctx, t, member, root)
	})
}

// dialIn is RunDialIn's layout.
func dialIn(ctx context.Context, t *tree, member, root *bus.InProc) error {
	t.Exposed = []bus.Bus{member}
	if root != nil {
		t.Exposed = append(t.Exposed, root)
	}
	if err := member.AwaitNames(ctx, t.topo.roster.Names(), true); err != nil {
		return fmt.Errorf("waiting for the customers: %w", err)
	}
	up := member
	switch {
	case root != nil:
		ccs := t.topo.concentratorNames()
		if err := root.AwaitNames(ctx, ccs, true); err != nil {
			return fmt.Errorf("waiting for the concentrator workers: %w", err)
		}
		// A worker leaves the member bus once the member server has forwarded
		// all it sent there: its awards, then the session end behind them.
		t.Settle = append(t.Settle, func(ctx context.Context) error { return member.AwaitNames(ctx, ccs, false) })
		up = root
	case t.topo.Shards() > 1:
		tierBus, err := t.newBus(bus.Config{})
		if err != nil {
			return err
		}
		if err := t.startTier(tierBus, func(int) bus.Bus { return member }); err != nil {
			return err
		}
		up = tierBus
	}
	t.Bus = up
	t.Report = func(*core.Result) {
		if t.res.ParentBus = up.Stats(); up != member {
			t.res.ShardBuses = []bus.Stats{member.Stats()}
		}
	}
	return nil
}

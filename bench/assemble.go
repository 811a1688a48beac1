package main

import (
	"fmt"
	"time"

	"loadbalance/internal/agent"
	"loadbalance/internal/bus"
	"loadbalance/internal/cluster"
	"loadbalance/internal/core"
	"loadbalance/internal/customeragent"
	"loadbalance/internal/utilityagent"
)

// Benchmark-assembled sessions: the wiring core.Run and cluster.Run perform,
// rebuilt here from public constructors only, with the recorder's decorators
// around every bus and every handler the benchmark can reach. The scenarios
// the benchmark generates are lossless and have no silent customers, so the
// loss-injection and silent-handler branches of the library's engines have
// no counterpart here.

const (
	sessionTimeout = 30 * time.Second
	awardDrain     = 200 * time.Millisecond
)

// assembledSession holds what both shapes tear down.
type assembledSession struct {
	runtimes []*agent.Runtime
	cas      map[string]*customeragent.Agent
}

func (a *assembledSession) stop() {
	for _, rt := range a.runtimes {
		rt.Stop()
	}
}

func (a *assembledSession) errors() []error {
	var out []error
	for _, rt := range a.runtimes {
		out = append(out, rt.Errors()...)
	}
	return out
}

// startCustomers starts the named customers' agents on b behind traced
// handlers.
func (a *assembledSession) startCustomers(rec *recorder, b bus.Bus, specs []core.CustomerSpec) error {
	for _, spec := range specs {
		ca, err := customeragent.New(spec.Name, spec.Prefs, spec.Strategy)
		if err != nil {
			return fmt.Errorf("customer %q: %w", spec.Name, err)
		}
		a.cas[spec.Name] = ca
		rt, err := agent.Start(spec.Name, b, rec.wrapHandler(spec.Name, layerCA, ca), 64)
		if err != nil {
			return fmt.Errorf("start %q: %w", spec.Name, err)
		}
		a.runtimes = append(a.runtimes, rt)
	}
	return nil
}

// startUA starts the Utility Agent on b behind a traced handler.
func (a *assembledSession) startUA(rec *recorder, b bus.Bus, cfg utilityagent.Config, inbox int) (*utilityagent.Agent, error) {
	ua, err := utilityagent.New(cfg)
	if err != nil {
		return nil, err
	}
	rt, err := agent.Start("ua", b, rec.wrapHandler("ua", layerUA, ua), inbox)
	if err != nil {
		return nil, err
	}
	a.runtimes = append(a.runtimes, rt)
	return ua, nil
}

func uaConfig(s core.Scenario) utilityagent.Config {
	return utilityagent.Config{
		Name: "ua", SessionID: s.SessionID, Window: s.Window, NormalUse: s.NormalUse,
		Loads: s.Loads(), Method: s.Method, LeadTime: s.LeadTime, Params: s.Params,
		InitialSlope: s.InitialSlope, Offer: s.Offer, RFB: s.RFB,
		RoundTimeout: s.RoundTimeout, WarrantRatio: s.Params.AllowedOveruseRatio,
	}
}

func awaitResult(ua *utilityagent.Agent) (utilityagent.Result, error) {
	select {
	case r := <-ua.Done():
		return r, nil
	case <-time.After(sessionTimeout):
		return utilityagent.Result{}, fmt.Errorf("assembled session timed out after %v", sessionTimeout)
	}
}

// drainUntil polls like the library's engines do while awards and the
// session end land, so an assembled session ends on the same condition.
func drainUntil(done func() bool) {
	deadline := time.Now().Add(awardDrain)
	for time.Now().Before(deadline) && !done() {
		time.Sleep(time.Millisecond)
	}
}

func (a *assembledSession) outcome(s core.Scenario, r utilityagent.Result) *outcome {
	o := &outcome{awards: r.Awards, history: r.History, rounds: r.Rounds, bids: make(map[string]float64, len(a.cas))}
	for name, ca := range a.cas {
		o.bids[name] = ca.LastBid(s.SessionID)
	}
	return o
}

// runFlat is core.Run's wiring: one in-process bus, the customers, then the
// Utility Agent.
func (rec *recorder) runFlat(s core.Scenario) (*outcome, error) {
	names := make([]string, 0, len(s.Customers)+1)
	for _, c := range s.Customers {
		names = append(names, c.Name)
	}
	rec.beginSession(append(names, "ua"))
	defer rec.endSession()

	inner, err := bus.NewInProc(bus.Config{})
	if err != nil {
		return nil, err
	}
	defer inner.Close()
	b := &tracedBus{inner: inner, rec: rec, label: "flat"}
	a := &assembledSession{cas: make(map[string]*customeragent.Agent, len(s.Customers))}
	defer a.stop()

	if err := a.startCustomers(rec, b, s.Customers); err != nil {
		return nil, err
	}
	ua, err := a.startUA(rec, b, uaConfig(s), 4*max(len(s.Customers), 16))
	if err != nil {
		return nil, err
	}
	r, err := awaitResult(ua)
	if err != nil {
		return nil, err
	}
	drainUntil(func() bool {
		for _, aw := range r.Awards {
			if _, got := a.cas[aw.Customer].AwardFor(s.SessionID); !got {
				return false
			}
		}
		return true
	})
	a.stop()
	o := a.outcome(s, r)
	o.agentErrors = a.errors()
	o.busStats = inner.Stats()
	return o, nil
}

// runSharded is cluster.Run's wiring: a parent bus carrying the Utility Agent
// and the concentrators, one bus per shard carrying a concentrator and its
// customers. The tier is started through the public cluster.StartTier on
// traced buses, so the concentrators' sends are recorded on both tiers even
// though their handlers cannot be wrapped from outside.
func (rec *recorder) runSharded(s core.Scenario, shards int) (*outcome, error) {
	topo, err := cluster.NewTopology(s.Loads(), shards)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(s.Customers)+shards+1)
	for _, c := range s.Customers {
		names = append(names, c.Name)
	}
	for i := 0; i < topo.Shards(); i++ {
		names = append(names, topo.ConcentratorName(i))
	}
	rec.beginSession(append(names, "ua"))
	defer rec.endSession()

	specs := make(map[string]core.CustomerSpec, len(s.Customers))
	for _, spec := range s.Customers {
		specs[spec.Name] = spec
	}
	parentInner, err := bus.NewInProc(bus.Config{})
	if err != nil {
		return nil, err
	}
	defer parentInner.Close()
	parent := &tracedBus{inner: parentInner, rec: rec, label: "parent"}

	a := &assembledSession{cas: make(map[string]*customeragent.Agent, len(s.Customers))}
	var tier *cluster.Tier
	var shardInner []*bus.InProc
	var shardBuses []bus.Bus
	stop := func() {
		if tier != nil {
			tier.Stop()
		}
		a.stop()
	}
	defer func() {
		stop()
		for _, b := range shardInner {
			b.Close()
		}
	}()

	maxShard := 0
	for i := 0; i < topo.Shards(); i++ {
		inner, err := bus.NewInProc(bus.Config{})
		if err != nil {
			return nil, err
		}
		shardInner = append(shardInner, inner)
		tb := &tracedBus{inner: inner, rec: rec, label: fmt.Sprintf("shard-%d", i)}
		shardBuses = append(shardBuses, tb)
		members := topo.Members(i)
		maxShard = max(maxShard, len(members))
		memberSpecs := make([]core.CustomerSpec, 0, len(members))
		for _, name := range members {
			memberSpecs = append(memberSpecs, specs[name])
		}
		if err := a.startCustomers(rec, tb, memberSpecs); err != nil {
			return nil, err
		}
	}
	tier, err = cluster.StartTier(parent, func(i int) bus.Bus { return shardBuses[i] }, topo, cluster.TierConfig{
		SessionID:         s.SessionID,
		FleetMinResponses: s.Params.MinResponses,
		RoundTimeout:      s.RoundTimeout / 2,
		InboxSize:         4 * max(maxShard, 16),
	})
	if err != nil {
		return nil, err
	}

	cfg := uaConfig(s)
	cfg.Loads = topo.AggregateLoads()
	cfg.Method = utilityagent.MethodRewardTable
	cfg.Params = cluster.RootParams(s.Params)
	ua, err := a.startUA(rec, parent, cfg, 4*max(topo.Shards(), 16))
	if err != nil {
		return nil, err
	}
	r, err := awaitResult(ua)
	if err != nil {
		return nil, err
	}
	if len(r.History) > 0 {
		drainUntil(func() bool {
			for _, c := range tier.Concentrators {
				if !c.Done() {
					return false
				}
				for _, name := range c.RespondedMembers() {
					if _, got := a.cas[name].AwardFor(s.SessionID); !got {
						return false
					}
				}
			}
			return true
		})
	}
	stop()
	o := a.outcome(s, r)
	o.agentErrors = append(a.errors(), tier.Errors()...)
	o.busStats = parentInner.Stats()
	for _, b := range shardInner {
		o.busStats = addStats(o.busStats, b.Stats())
	}
	return o, nil
}

// tracedOp returns the assembled session of a set-up's shape.
func (rec *recorder) tracedOp(st *sessionSetup) sessionOp {
	if st.shards == 0 {
		return func() (*outcome, error) { return rec.runFlat(st.scenario) }
	}
	return func() (*outcome, error) { return rec.runSharded(st.scenario, st.shards) }
}

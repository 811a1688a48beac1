// Distributed runs the negotiation over real TCP on localhost: the Utility
// Agent behind a bus server, and every Customer Agent as a TCP client that
// decodes announcements and ships bids back over its own connection — the
// deployment shape the paper's "large open distributed industrial systems"
// discussion targets. (cmd/gridd does the same across OS processes.)
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"loadbalance/internal/agent"
	"loadbalance/internal/bus"
	"loadbalance/internal/cluster"
	"loadbalance/internal/core"
	"loadbalance/internal/customeragent"
	"loadbalance/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	scenario, err := core.PaperScenario()
	if err != nil {
		return err
	}
	scenario.RoundTimeout = 2 * time.Second
	scenario.Timeout = time.Minute

	// Server side: a local bus bridged onto TCP.
	inner, err := bus.NewInProc(bus.Config{})
	if err != nil {
		return err
	}
	defer inner.Close()
	srv, err := bus.ListenAndServe("127.0.0.1:0", inner)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("utility agent daemon on %s\n", srv.Addr())

	// Client side: a bus.Remote registers each Customer Agent by dialing the
	// server as it, so every customer reacts over its own connection, exactly
	// as a separate process would.
	fleet := bus.NewRemote(srv.Addr())
	defer fleet.Close()
	for _, spec := range scenario.Customers {
		ca, err := customeragent.New(spec.Name, spec.Prefs, spec.Strategy)
		if err != nil {
			return err
		}
		rt, err := agent.Start(spec.Name, fleet, ca, 0)
		if err != nil {
			return err
		}
		defer rt.Stop()
	}

	// The session engine waits for the ten customers to dial in; with one
	// shard and no root bus the Utility Agent faces them itself.
	res, err := cluster.RunDialIn(context.Background(), cluster.Config{Scenario: scenario, Shards: 1}, inner, nil)
	if err != nil {
		return err
	}
	fmt.Print(sim.RenderResult(res.Flat()))
	return nil
}

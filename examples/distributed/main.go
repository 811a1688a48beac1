// Distributed runs the negotiation over real TCP on localhost: the Utility
// Agent behind a bus server, and every Customer Agent as a TCP client that
// decodes announcements and ships bids back over its own connection — the
// deployment shape the paper's "large open distributed industrial systems"
// discussion targets. (cmd/gridd does the same across OS processes.)
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"loadbalance/internal/bus"
	"loadbalance/internal/core"
	"loadbalance/internal/customeragent"
	"loadbalance/internal/message"
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

	// Client side: each customer dials in and reacts from its own
	// goroutine, exactly as a separate process would.
	var wg sync.WaitGroup
	for _, spec := range scenario.Customers {
		ca, err := customeragent.New(spec.Name, spec.Prefs, spec.Strategy)
		if err != nil {
			return err
		}
		cli, err := bus.Dial(srv.Addr(), spec.Name)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(name string, ca *customeragent.Agent, cli *bus.Client) {
			defer wg.Done()
			defer cli.Close()
			for env := range cli.Inbox() {
				reply, ok, err := ca.React(env)
				if err != nil {
					log.Printf("%s: %v", name, err)
					continue
				}
				if ok {
					out, err := message.NewEnvelope(name, env.From, env.Session, reply)
					if err != nil {
						log.Printf("%s: %v", name, err)
						return
					}
					if err := cli.Send(out); err != nil {
						return
					}
				}
				if env.Kind == message.KindSessionEnd {
					return
				}
			}
		}(spec.Name, ca, cli)
	}

	// Wait until all ten customers are bridged onto the bus.
	for len(inner.Agents()) < len(scenario.Customers) {
		time.Sleep(5 * time.Millisecond)
	}

	scenario.RoundTimeout = 2 * time.Second
	ua, rt, err := core.StartUtilityAgent(inner, scenario.UAConfig(scenario.Loads()))
	if err != nil {
		return err
	}
	defer rt.Stop()

	select {
	case res := <-ua.Done():
		wg.Wait() // all clients saw the session end
		full := &core.Result{Result: res, Bus: inner.Stats()}
		fmt.Print(sim.RenderResult(full))
		fmt.Println("\nall customer connections closed cleanly")
		return nil
	case <-time.After(time.Minute):
		return fmt.Errorf("negotiation timed out")
	}
}

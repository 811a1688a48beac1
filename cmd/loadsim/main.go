// Command loadsim runs one load-balancing negotiation and prints the full
// per-round trace — the textual counterpart of the prototype's GUI screens
// in Figures 6-9 of the paper.
//
// Usage:
//
//	loadsim                          # the paper's Figures 6-9 scenario
//	loadsim -scenario population -n 50 -seed 7
//	loadsim -method offer            # compare announcement methods
//	loadsim -beta 3 -adaptive        # negotiation-speed experiments
//	loadsim -drop 0.1 -round-timeout 50ms
//	loadsim -shards 4                # hierarchical (concentrator) negotiation
//	loadsim -shards 4 -tcp           # concentrators behind TCP connections
//	loadsim -scenario population -n 5000 -data-dir ./run1   # resumable
//
// With -data-dir the session engine journals the outcome — flat or sharded,
// one session record carrying the Utility Agent's whole trace, fingerprinted
// with the flags that change it. Re-running the same scenario against the
// same directory replays that record instead of negotiating again: the same
// trace, verified the same way as a fresh run's. A record fingerprinted with
// other flags is refused, and a run interrupted before its outcome was
// durable restarts from scratch.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"loadbalance"
	"loadbalance/internal/core"
	"loadbalance/internal/health"
	"loadbalance/internal/store"
	"loadbalance/internal/trace"
	"loadbalance/internal/utilityagent"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "loadsim:", err)
		os.Exit(1)
	}
}

// run is loadsim printing to stdout.
func run(args []string) error { return runTo(os.Stdout, args) }

func runTo(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("loadsim", flag.ContinueOnError)
	var (
		scenario     = fs.String("scenario", "paper", "scenario: paper | population")
		n            = fs.Int("n", 50, "population size (population scenario)")
		seed         = fs.Int64("seed", 1, "random seed")
		method       = fs.String("method", "reward_table", "method: reward_table | offer | request_for_bids | auto")
		beta         = fs.Float64("beta", 0, "override beta (0 keeps the scenario default)")
		adaptive     = fs.Bool("adaptive", false, "enable adaptive beta (Section 7 extension)")
		drop         = fs.Float64("drop", 0, "message drop rate in [0,1]")
		roundTimeout = fs.Duration("round-timeout", 0, "close rounds on timeout (required with -drop)")
		margin       = fs.Float64("margin", 0.2, "customer profit margin (population scenario)")
		verifyTrace  = fs.Bool("verify", true, "verify the trace against the protocol properties")
		shards       = fs.Int("shards", 0, "negotiate through this many Concentrator Agents (0 = flat)")
		tcp          = fs.Bool("tcp", false, "place each concentrator behind its own TCP connections (requires -shards)")
		dataDir      = fs.String("data-dir", "", "journal the outcome under this directory; re-running the same scenario resumes from the journal")
		traceDump    = fs.String("trace-dump", "", "record negotiation spans and write the ring as JSON to this file on exit (the same document gridd serves on /trace)")
		logLevel     = fs.String("log-level", "info", "structured log level: debug | info | warn | error | off")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	lvl, err := health.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger, err := health.Init(health.Config{Proc: "loadsim", MinLevel: lvl, StderrLevel: health.Warn})
	if err != nil {
		return err
	}
	defer logger.Close()
	if *traceDump != "" {
		trace.Enable("loadsim", 16384)
		defer func() {
			var buf bytes.Buffer
			if err := trace.WriteDump(&buf, trace.Filter{}); err == nil {
				if werr := os.WriteFile(*traceDump, buf.Bytes(), 0o644); werr != nil {
					health.Logf(health.Error, "trace", "trace dump failed: %v", werr)
				}
			}
		}()
	}

	var s loadbalance.Scenario
	switch *scenario {
	case "paper":
		s, err = loadbalance.PaperScenario()
	case "population":
		s, err = loadbalance.PopulationScenario(loadbalance.PopulationConfig{
			N: *n, Seed: *seed, Margin: *margin,
		})
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
	if err != nil {
		return err
	}

	switch *method {
	case "reward_table":
		s.Method = loadbalance.MethodRewardTable
	case "offer":
		s.Method = loadbalance.MethodOffer
	case "request_for_bids":
		s.Method = loadbalance.MethodRequestForBids
	case "auto":
		s.Method = loadbalance.MethodAuto
		s.LeadTime = 2 * time.Hour
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	if *beta > 0 {
		s.Params.Beta = *beta
	}
	s.Params.AdaptiveBeta = *adaptive
	s.DropRate = *drop
	s.RoundTimeout = *roundTimeout
	s.Seed = *seed

	if *tcp && *shards < 1 {
		return fmt.Errorf("-tcp requires -shards")
	}
	if *tcp {
		if *dataDir != "" {
			return fmt.Errorf("-data-dir does not combine with -tcp (the distributed runner owns its own processes)")
		}
		return runDistributed(w, s, *shards, *verifyTrace)
	}

	var journal *store.Store
	// The fingerprint covers every flag that changes the outcome, so a
	// resume can never replay an outcome negotiated under other parameters.
	fingerprint := fmt.Sprintf("scenario=%s n=%d seed=%d method=%s beta=%g adaptive=%t drop=%g round-timeout=%s margin=%g shards=%d",
		*scenario, *n, *seed, *method, s.Params.Beta, *adaptive, *drop, *roundTimeout, *margin, *shards)
	if *dataDir != "" {
		var prior *store.Recovered
		if journal, prior, err = store.Open(*dataDir, store.Options{}); err != nil {
			return err
		}
		defer journal.Close()
		if out, ok := prior.Session(s.SessionID); ok {
			if out.Config != "" && out.Config != fingerprint {
				return fmt.Errorf("journal holds session %q negotiated under different parameters\n  journal: %s\n  current: %s\ndelete the data directory to re-run", s.SessionID, out.Config, fingerprint)
			}
			var res loadbalance.Result
			if err := json.Unmarshal(out.Result, &res.Result); err != nil {
				return fmt.Errorf("journal holds session %q without a readable trace (%v); delete the data directory to re-run", s.SessionID, err)
			}
			if err := report(w, &res, s, *verifyTrace); err != nil {
				return err
			}
			fmt.Fprintf(w, "\nresumed from journal at %s: session %q already negotiated; delete the directory to re-run\n", *dataDir, s.SessionID)
			return nil
		}
	}

	// Flat or sharded, the session engine journals the outcome before the
	// trace is printed and verified.
	var res *loadbalance.Result
	var note string
	if *shards > 0 {
		sharded, err := loadbalance.RunSharded(loadbalance.ClusterConfig{Scenario: s, Shards: *shards, Journal: journal, JournalConfig: fingerprint})
		if err != nil {
			return err
		}
		for _, e := range sharded.AgentErrors {
			return fmt.Errorf("agent error: %w", e)
		}
		res = sharded.Flat()
		note = fmt.Sprintf("\nsharded over %d concentrators; awards above are per-concentrator aggregates\n", sharded.Shards)
	} else if res, err = core.Negotiate(context.Background(), s, core.Flat(s), journal, fingerprint); err != nil {
		return err
	}
	if err := report(w, res, s, *verifyTrace); err != nil {
		return err
	}
	fmt.Fprint(w, note)
	if journal != nil {
		return journal.Seal()
	}
	return nil
}

// report prints a negotiation's trace and, with verify, checks a reward-table
// trace against the protocol properties: one path for a fresh run and a
// resumed one.
func report(w io.Writer, res *loadbalance.Result, s loadbalance.Scenario, verify bool) error {
	fmt.Fprint(w, loadbalance.Render(res))
	if !verify || s.Method != utilityagent.MethodRewardTable || len(res.History) == 0 {
		return nil
	}
	rep := loadbalance.VerifyTrace(res, s.Params)
	if !rep.OK() {
		return fmt.Errorf("trace violates protocol properties: %w", rep.Error())
	}
	fmt.Fprintf(w, "\nverified %d protocol properties: all hold\n", len(rep.Checked))
	return nil
}

// runDistributed negotiates the scenario through a concentrator tree with
// every concentrator behind its own TCP connection pair, and prints the
// root-session trace plus the wire's counters.
func runDistributed(w io.Writer, s loadbalance.Scenario, shards int, verify bool) error {
	res, err := loadbalance.RunDistributed(loadbalance.DistributedConfig{Scenario: s, Shards: shards})
	if err != nil {
		return err
	}
	for _, e := range res.AgentErrors {
		return fmt.Errorf("agent error: %w", e)
	}
	if err := report(w, res.Flat(), s, verify); err != nil {
		return err
	}
	fmt.Fprintf(w, "\ndistributed over %d concentrator connection pairs (wire protocol v3)\n", res.Shards)
	fmt.Fprintf(w, "wire: root %d frames in / %d out; member %d in / %d out; %d dropped, %d malformed\n",
		res.RootWire.FramesIn, res.RootWire.FramesOut,
		res.MemberWire.FramesIn, res.MemberWire.FramesOut,
		res.RootWire.Dropped+res.MemberWire.Dropped,
		res.RootWire.Malformed+res.MemberWire.Malformed)
	return nil
}

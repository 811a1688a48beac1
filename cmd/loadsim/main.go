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
// With -data-dir the negotiation outcome is journaled; re-running the same
// scenario against the same directory resumes from the journal instead of
// negotiating again — a long population run interrupted before its outcome
// was durable restarts from scratch, one interrupted after it replays
// instantly.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"loadbalance"
	"loadbalance/internal/health"
	"loadbalance/internal/sim"
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

func run(args []string) error {
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
	var journal *store.Store
	// The fingerprint covers every flag that changes the outcome, so a
	// resume can never replay an outcome negotiated under other parameters.
	fingerprint := fmt.Sprintf("scenario=%s n=%d seed=%d method=%s beta=%g adaptive=%t drop=%g round-timeout=%s margin=%g shards=%d",
		*scenario, *n, *seed, *method, s.Params.Beta, *adaptive, *drop, *roundTimeout, *margin, *shards)
	if *dataDir != "" {
		if *tcp {
			return fmt.Errorf("-data-dir does not combine with -tcp (the distributed runner owns its own processes)")
		}
		var rec *store.Recovered
		journal, rec, err = store.Open(*dataDir, store.Options{})
		if err != nil {
			return err
		}
		defer journal.Close()
		done, err := resumeFromJournal(rec, s.SessionID, fingerprint)
		if err != nil {
			return err
		}
		if done {
			fmt.Printf("\nresumed from journal at %s: session %q already negotiated; delete the directory to re-run\n",
				*dataDir, s.SessionID)
			return nil
		}
	}
	if *shards > 0 {
		return runSharded(s, *shards, *tcp, journal, fingerprint)
	}

	res, err := loadbalance.Run(s)
	if err != nil {
		return err
	}
	fmt.Print(loadbalance.Render(res))

	if *verifyTrace && s.Method == utilityagent.MethodRewardTable && len(res.History) > 0 {
		rep := loadbalance.VerifyTrace(res, s.Params)
		if rep.OK() {
			fmt.Printf("\nverified %d protocol properties: all hold\n", len(rep.Checked))
		} else {
			return fmt.Errorf("trace violates protocol properties: %w", rep.Error())
		}
	}
	if journal != nil {
		if err := journalFlatResult(journal, s.SessionID, fingerprint, res); err != nil {
			return err
		}
	}
	return nil
}

// journalFlatResult appends the flat run's outcome — including the full
// saved result document, so a resume can re-render the complete trace — and
// seals the journal.
func journalFlatResult(journal *store.Store, session, fingerprint string, res *loadbalance.Result) error {
	saved, err := json.Marshal(sim.ToSaved(res))
	if err != nil {
		return err
	}
	out := store.SessionOutcome{
		SessionID: session,
		Outcome:   res.Outcome,
		Rounds:    res.Rounds,
		Config:    fingerprint,
		Bids:      res.FinalBids,
		Awards:    make(map[string]store.AwardEntry, len(res.Awards)),
		Result:    saved,
	}
	for _, a := range res.Awards {
		out.Awards[a.Customer] = store.AwardEntry{CutDown: a.Award.CutDown, Reward: a.Award.Reward}
	}
	rec, err := store.NewSessionRecord(out)
	if err != nil {
		return err
	}
	if err := journal.Append(rec); err != nil {
		return err
	}
	return journal.Seal()
}

// resumeFromJournal looks for the session's outcome in the recovered
// journal and, when present, renders it instead of negotiating: the full
// trace when the record carries the saved result (flat runs), an award
// summary otherwise (sharded runs journaled by the cluster engine). An
// outcome fingerprinted with different parameters is refused, never
// silently replayed.
func resumeFromJournal(rec *store.Recovered, session, fingerprint string) (bool, error) {
	for i := len(rec.Records) - 1; i >= 0; i-- {
		r := rec.Records[i]
		if r.Kind != store.KindSession {
			continue
		}
		out, err := store.DecodeSession(r)
		if err != nil || out.SessionID != session {
			continue
		}
		if out.Config != "" && out.Config != fingerprint {
			return false, fmt.Errorf("journal holds session %q negotiated under different parameters\n  journal: %s\n  current: %s\ndelete the data directory to re-run", session, out.Config, fingerprint)
		}
		if len(out.Result) > 0 {
			var saved sim.SavedResult
			if err := json.Unmarshal(out.Result, &saved); err == nil {
				fmt.Print(loadbalance.Render(saved.FromSaved()))
				return true, nil
			}
		}
		fmt.Printf("session %s: %s after %d rounds\n", out.SessionID, out.Outcome, out.Rounds)
		names := make([]string, 0, len(out.Awards))
		for n := range out.Awards {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			a := out.Awards[n]
			fmt.Printf("  %-10s cut-down %.2f reward %.2f\n", n, a.CutDown, a.Reward)
		}
		return true, nil
	}
	return false, nil
}

// runSharded negotiates the scenario through a concentrator tree, in-process
// or (with tcp) with every concentrator behind its own TCP connection pair,
// and prints the root-session trace plus the transport's counters. A
// non-nil journal makes the in-process run resumable: the cluster engine
// records the outcome at its decision point.
func runSharded(s loadbalance.Scenario, shards int, tcp bool, journal *store.Store, fingerprint string) error {
	if !tcp {
		res, err := loadbalance.RunSharded(loadbalance.ClusterConfig{Scenario: s, Shards: shards, Journal: journal, JournalConfig: fingerprint})
		if err != nil {
			return err
		}
		for _, e := range res.AgentErrors {
			return fmt.Errorf("agent error: %w", e)
		}
		fmt.Print(loadbalance.Render(res.Flat()))
		fmt.Printf("\nsharded over %d concentrators; awards above are per-concentrator aggregates\n", res.Shards)
		if journal != nil {
			return journal.Seal()
		}
		return nil
	}
	res, err := loadbalance.RunDistributed(loadbalance.DistributedConfig{Scenario: s, Shards: shards})
	if err != nil {
		return err
	}
	for _, e := range res.AgentErrors {
		return fmt.Errorf("agent error: %w", e)
	}
	fmt.Print(loadbalance.Render(res.Flat()))
	fmt.Printf("\ndistributed over %d concentrator connection pairs (wire protocol v3)\n", res.Shards)
	fmt.Printf("wire: root %d frames in / %d out; member %d in / %d out; %d dropped, %d malformed\n",
		res.RootWire.FramesIn, res.RootWire.FramesOut,
		res.MemberWire.FramesIn, res.MemberWire.FramesOut,
		res.RootWire.Dropped+res.MemberWire.Dropped,
		res.RootWire.Malformed+res.MemberWire.Malformed)
	return nil
}

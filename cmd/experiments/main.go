// Command experiments regenerates every figure of the paper's evaluation
// (and the parameter studies its Discussion calls for) as aligned text on
// stdout and CSV files under -out.
//
// Usage:
//
//	experiments                 # run everything into ./results
//	experiments -exp e5 -n 100  # one experiment
//	experiments -exp e7 -sizes 10,100,1000
//	experiments -exp e11c -cluster-sizes 1000,10000,100000 -shards 16,64,256
//	experiments -exp e14 -n 64 -ticks 20  # live grid with spike injection
//	experiments -exp e15 -n 32            # distributed negotiation over TCP
//	experiments -exp e16 -n 32 -ticks 14  # crash/recover a durable live grid
//	experiments -exp e17 -n 32 -ticks 14  # kill a replicated primary, fail over to its hot standby
//	experiments -data-dir ./runs          # resumable: completed ids skip
//
// With -data-dir each completed experiment is journaled as a session record
// whose outcome is "completed", fingerprinted with the parameter flags;
// re-running the same command skips an experiment whose latest record
// (store.Recovered.Session) carries this invocation's fingerprint, and
// re-runs it under any other.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"loadbalance/internal/health"
	"loadbalance/internal/sim"
	"loadbalance/internal/store"
	"loadbalance/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// metricsRegistry is what -metrics serves: the log counters, then the
// per-experiment latency histograms observed into base.
func metricsRegistry(base *trace.Registry, logger *health.Logger) *trace.Registry {
	reg := base.Scope()
	reg.Register(logger.Samples)
	return reg
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment id: e1..e17, e11c (cluster scale) or all")
		out      = fs.String("out", "results", "output directory for CSV files")
		n        = fs.Int("n", 100, "population size (e1, e5)")
		seed     = fs.Int64("seed", 1, "random seed")
		sizes    = fs.String("sizes", "10,50,200,1000", "fleet sizes for e7")
		betas    = fs.String("betas", "0.5,1,1.85,3,5,8", "beta values for e6")
		runs     = fs.Int("runs", 10, "randomized runs for e8")
		csizes   = fs.String("cluster-sizes", "1000,5000", "fleet sizes for e11c (the full sweep is 1000,10000,100000)")
		shards   = fs.String("shards", "4,16,64", "concentrator counts for e11c")
		ticks    = fs.Int("ticks", 15, "live ticks for e14, e16 and e17")
		dataDir  = fs.String("data-dir", "", "journal completed experiments under this directory; re-running skips them (e16 also keeps its grid journals there)")
		metrics  = fs.String("metrics", "", "optional HTTP listen address answering /metrics with per-experiment latency histograms while the run is in flight")
		logLevel = fs.String("log-level", "info", "structured log level: debug | info | warn | error | off")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	lvl, err := health.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger, err := health.Init(health.Config{Proc: "experiments", MinLevel: lvl, StderrLevel: health.Warn})
	if err != nil {
		return err
	}
	defer logger.Close()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			return err
		}
		reg := metricsRegistry(trace.DefaultRegistry(), logger)
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", trace.MetricsHandler(reg.Gather))
		mux.HandleFunc("/logs", health.LogHandler(health.Default()))
		srv := &http.Server{Handler: mux}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		fmt.Printf("serving /metrics on %s\n", ln.Addr())
	}

	sizeList, err := parseInts(*sizes)
	if err != nil {
		return fmt.Errorf("-sizes: %w", err)
	}
	betaList, err := parseFloats(*betas)
	if err != nil {
		return fmt.Errorf("-betas: %w", err)
	}
	clusterSizes, err := parseInts(*csizes)
	if err != nil {
		return fmt.Errorf("-cluster-sizes: %w", err)
	}
	shardList, err := parseInts(*shards)
	if err != nil {
		return fmt.Errorf("-shards: %w", err)
	}

	type experiment struct {
		id  string
		run func() (*sim.Table, error)
	}
	experiments := []experiment{
		{"e1", func() (*sim.Table, error) {
			prof, tab, err := sim.E1DemandCurve(*n, *seed)
			if err != nil {
				return nil, err
			}
			// The full curve goes to its own CSV; the summary table returns.
			if err := os.WriteFile(filepath.Join(*out, "e1_demand_curve.csv"), []byte(prof.CSV()), 0o644); err != nil {
				return nil, err
			}
			fmt.Println(prof.ASCII(60))
			return tab, nil
		}},
		{"e2", sim.E2InitialPhase},
		{"e3", sim.E3FinalPhase},
		{"e4", sim.E4CustomerDecision},
		{"e5", func() (*sim.Table, error) { return sim.E5MethodComparison(*n, *seed) }},
		{"e6", func() (*sim.Table, error) { return sim.E6BetaSweep(betaList) }},
		{"e7", func() (*sim.Table, error) { return sim.E7Scalability(sizeList, *seed) }},
		{"e8", func() (*sim.Table, error) { return sim.E8ProtocolProperties(*runs, *seed) }},
		{"e9", func() (*sim.Table, error) {
			return sim.E9FailureInjection([]float64{0, 0.05, 0.1, 0.2}, []int{0, 2, 4})
		}},
		{"e10", sim.E10RewardTableSeries},
		{"e11", func() (*sim.Table, error) { return sim.E11DayPeakShaving(min(*n, 40), *seed) }},
		{"e12", func() (*sim.Table, error) { return sim.E12MarketComparison(*n, *seed) }},
		{"e13", func() (*sim.Table, error) { return sim.E13ForecastDrivenNegotiation(min(*n, 40), *seed) }},
		{"e11c", func() (*sim.Table, error) { return sim.E11cClusterScale(clusterSizes, shardList, *seed) }},
		{"e14", func() (*sim.Table, error) { return sim.E14LiveGrid(min(*n, 64), 8, *ticks, *seed) }},
		{"e15", func() (*sim.Table, error) { return sim.E15DistributedNegotiation(min(*n, 64), 4, *seed) }},
		{"e16", func() (*sim.Table, error) {
			gridDir := ""
			if *dataDir != "" {
				gridDir = filepath.Join(*dataDir, "e16")
			}
			tab, rep, err := sim.E16CrashRecovery(min(*n, 48), 8, *ticks, *seed, gridDir)
			if err != nil {
				return nil, err
			}
			// The recovery latency and verdict go to a result JSON next to
			// the CSV.
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				return nil, err
			}
			file := filepath.Join(*out, "e16_recovery.json")
			if err := os.WriteFile(file, data, 0o644); err != nil {
				return nil, err
			}
			fmt.Printf("wrote %s\n", file)
			return tab, nil
		}},
		{"e17", func() (*sim.Table, error) {
			gridDir := ""
			if *dataDir != "" {
				gridDir = filepath.Join(*dataDir, "e17")
			}
			tab, rep, err := sim.E17Failover(min(*n, 48), 8, *ticks, *seed, gridDir)
			if err != nil {
				return nil, err
			}
			// The availability gap and continuity verdict go to a result
			// JSON next to the CSV.
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				return nil, err
			}
			file := filepath.Join(*out, "e17_failover.json")
			if err := os.WriteFile(file, data, 0o644); err != nil {
				return nil, err
			}
			fmt.Printf("wrote %s\n", file)
			return tab, nil
		}},
	}

	// With a data dir, completed experiment ids are journaled and skipped on
	// re-runs, so a long -exp all invocation is resumable. The fingerprint
	// covers the parameter flags: an id only skips when it last completed
	// under the parameters of this invocation, and re-runs otherwise.
	fingerprint := fmt.Sprintf("n=%d seed=%d ticks=%d runs=%d sizes=%s betas=%s cluster-sizes=%s shards=%s",
		*n, *seed, *ticks, *runs, *sizes, *betas, *csizes, *shards)
	var journal *store.Store
	prior := &store.Recovered{} // without a data dir nothing has completed
	if *dataDir != "" {
		var err error
		if journal, prior, err = store.Open(*dataDir, store.Options{}); err != nil {
			return err
		}
		defer journal.Close()
	}

	ran := 0
	for _, e := range experiments {
		if *exp != "all" && *exp != e.id {
			continue
		}
		ran++
		if o, ok := prior.Session(e.id); ok && o.Config == fingerprint {
			fmt.Printf("%s already completed in %s with these parameters, skipping (delete the directory to re-run)\n\n", e.id, *dataDir)
			continue
		}
		t0 := time.Now()
		tab, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		elapsed := time.Since(t0)
		trace.GetHistogramL("experiment_duration_seconds", "exp", e.id).Observe(elapsed)
		fmt.Println(tab.String())
		file := filepath.Join(*out, e.id+".csv")
		if err := os.WriteFile(file, []byte(tab.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%s took %v)\n\n", file, e.id, elapsed.Round(time.Millisecond))
		if journal != nil {
			if err := journal.AppendSession(store.SessionOutcome{SessionID: e.id, Outcome: "completed", Config: fingerprint}); err != nil {
				return err
			}
		}
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

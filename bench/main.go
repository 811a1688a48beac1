// Command bench is the repo's end-to-end, layer-attributed negotiation
// benchmark. One invocation runs one workload in a closed loop for a fixed
// time, checks what was negotiated, and prints every metric by name with its
// unit; the last line of standard output is one JSON object for the driver.
//
//	go run ./bench                       every workload, untraced then traced
//	go run ./bench -workload flat_1k     one workload, end-to-end metrics
//	go run ./bench -workload flat_1k -trace 1    its per-layer metrics
//	go run ./bench -check                the correctness gate alone
//	go run ./bench -aa                   the suite twice, A/A differences
//	go run ./bench -compare a.json b.json
//
// See README.md in this directory for the glossary of names.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"loadbalance/internal/health"
)

const defaultOutDir = "bench/out"

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	check    bool
	aa       bool
	compare  bool
	runs     int
	out      string
	outDir   string
	args     []string
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload (flat_1k, sharded_10k, tcp_256, live_4k); empty runs the whole suite")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same scenarios")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured time per run (default: run_seconds of BENCHMARK.json, 3 with -check)")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced run and reports the per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&o.check, "check", false, "run only the correctness gate on every workload; exit non-zero on any failed operation")
	fs.BoolVar(&o.aa, "aa", false, "run the suite twice with one seed, interleaving workloads, and print the A/A difference beside each bound")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: bench -compare a.json b.json")
	fs.IntVar(&o.runs, "runs", 1, "suite mode: runs per workload")
	fs.StringVar(&o.out, "out", "", "suite mode: write the result file here (default bench/out/result.json)")
	fs.StringVar(&o.outDir, "outdir", defaultOutDir, "directory for span files, result files and temporary data dirs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.args = fs.Args()
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}

	// One closed-loop client on min(nproc, 4) processors; recorded in every
	// result's fingerprint.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	// Library packages log operational events through internal/health; the
	// benchmark's stdout and stderr carry only its own output.
	if _, err := health.Init(health.Config{Proc: "bench", MinLevel: health.Off, StderrLevel: health.Off}); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}

	switch {
	case o.compare:
		return compareMain(o, stdout, stderr)
	case o.workload != "":
		return singleMain(o, stdout, stderr)
	default:
		return suiteMain(o, stdout, stderr)
	}
}

// singleMain runs one workload in this process.
func singleMain(o options, stdout, stderr io.Writer) int {
	secs := o.seconds
	if secs <= 0 {
		secs = defaultRunSeconds
	}
	return runAndReport(runConfig{
		Workload: o.workload, Seed: o.seed, Seconds: secs, Trace: o.trace == 1,
		Size: fullSizing, OutDir: o.outDir,
	}, o.check, stdout, stderr)
}

// runAndReport runs one workload, prints its report and returns the exit
// code: 1 when the run could not complete, or when check is set and any
// operation failed.
func runAndReport(cfg runConfig, check bool, stdout, stderr io.Writer) int {
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	printResult(stdout, res)
	if check && !res.Correct {
		return 1
	}
	return 0
}

// defaultRunSeconds mirrors run_seconds in BENCHMARK.json.
const defaultRunSeconds = 10

// driverLine is the object the driver reads from the last line of stdout.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult writes the human-readable report, then the driver's line.
func printResult(w io.Writer, res *runResult) {
	fp := res.Fingerprint
	kind := "end-to-end"
	if res.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "# workload %s, %s metrics, seed %d\n", res.Workload, kind, fp.Seed)
	fmt.Fprintf(w, "# %s, %s, nproc %d, GOMAXPROCS %d, commit %s\n", fp.GoVersion, fp.CPUModel, fp.NProc, fp.GOMAXPROCS, fp.GitCommit)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-42s %16.6g %s\n", name, m.Value, m.Unit)
	}
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%-42s %16.6g ratio (%d failed of %d attempted)\n", "failed_share", share, res.Failed, res.Attempted)
	for _, line := range res.Info {
		fmt.Fprintln(w, "#", line)
	}
	for _, why := range res.Failures {
		fmt.Fprintln(w, "FAILED:", why)
	}
	line, err := json.Marshal(driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	if err != nil {
		// metricSet.set keeps every value finite, so this cannot fail.
		panic(fmt.Sprintf("bench: result line: %v", err))
	}
	fmt.Fprintf(w, "%s\n", line)
}

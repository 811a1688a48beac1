// Command benchrec runs the repo's tracked benchmark bodies
// (internal/benchrun) and appends the results to a machine-readable perf
// trajectory file, BENCH_gridd.json (schema gridd-bench/v1). CI runs it on
// every push: the file is uploaded as an artifact and the run fails if a
// tracked floor regresses against the committed baseline.
//
// Record a run (appends to the trajectory):
//
//	benchrec -out BENCH_gridd.json
//
// Record the committed baseline (the run future checks compare against):
//
//	benchrec -out BENCH_gridd.json -baseline -label "PR 6 seed"
//
// Gate (CI): record a run, then fail on >10% regression vs the baseline or
// >5% tracing overhead:
//
//	benchrec -out BENCH_gridd.json -check
//
// Because CI machines differ in absolute speed from the machine that
// recorded the baseline, the baseline comparison is normalized: the median
// new/baseline ratio across all shared benchmarks estimates the machine
// speed factor, and only benchmarks slower than median * (1 + max-regress)
// fail — a floor that drifted relative to the rest of the suite, not a
// slower runner. The tracing-overhead gate needs no normalization: both
// sides of each traced/untraced pair run in the same invocation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"loadbalance/internal/benchrun"
)

// fileSchema identifies the trajectory file format.
const fileSchema = "gridd-bench/v1"

// File is the BENCH_gridd.json document.
type File struct {
	Schema string `json:"schema"`
	Runs   []Run  `json:"runs"`
}

// Run is one benchrec invocation's results.
type Run struct {
	Date     string                     `json:"date"` // RFC3339
	Label    string                     `json:"label,omitempty"`
	Baseline bool                       `json:"baseline,omitempty"`
	Go       string                     `json:"go"`
	OS       string                     `json:"os"`
	Arch     string                     `json:"arch"`
	CPUs     int                        `json:"cpus"`
	Results  map[string]benchrun.Result `json:"results"`
}

// tracedPairs maps each overhead-gated benchmark to its untraced floor.
// These pairs hold the tracing tentpole to its budget: enabling the
// subsystem must not move the hot paths.
var tracedPairs = map[string]string{
	"journal_append_traced":   "journal_append",
	"wire_codec_table_traced": "wire_codec_table",
	"wire_codec_bid_traced":   "wire_codec_bid",
	"obs_workload_streamed":   "obs_workload",
	"tsdb_workload_scraped":   "tsdb_workload",
}

// absoluteBudgets are machine-independent-enough ceilings in ns/op on paths
// whose whole contract is "cheap enough to leave on everywhere". Unlike the
// baseline comparison these are not speed-normalized: a gated-off log call
// is one atomic load plus a compare, and if it costs more than this on any
// plausible runner the implementation regressed structurally (interface
// boxing, an escaped field slice), not proportionally.
var absoluteBudgets = map[string]float64{
	"log_event_disabled": 25,
}

// allocBudgets are ceilings on allocations per operation. A count does not
// depend on the machine, so it is gated absolutely, with room for a runtime
// upgrade to move it a little: one customer's round-2 inference on the kb
// measured 18 (352 before the fact store was hash-indexed) — the floor of the
// reference oracle, internal/desiremodel, since production stopped deciding
// by inference; one customer's two-round session 6 (19 while the agent kept a
// kb-backed model, 2605 before the hash index, 167 while each React parsed the
// table and activated a composition);
// an envelope frame's encode and decode 3 — the frame, the header string, the
// body — where it was 9 while the codec copied field by field.
var allocBudgets = map[string]int64{
	"kb_infer_ca_round": 30,
	"ca_react":          20,
	"wire_codec_bid":    4,
	"wire_codec_table":  4,
}

func main() {
	var (
		out       = flag.String("out", "BENCH_gridd.json", "trajectory file to append this run to")
		rounds    = flag.Int("rounds", 3, "testing.Benchmark rounds per body; the fastest is recorded")
		label     = flag.String("label", "", "free-form label stored with the run")
		baseline  = flag.Bool("baseline", false, "mark this run as the baseline future -check runs compare against")
		check     = flag.Bool("check", false, "after recording, fail on regression vs the newest baseline run or on tracing overhead")
		maxReg    = flag.Float64("max-regress", 10, "percent a floor may exceed the speed-normalized baseline before -check fails")
		maxTraced = flag.Float64("max-traced-overhead", 5, "percent a _traced floor may exceed its untraced pair before -check fails")
		only      = flag.String("bench", "", "comma-separated benchmark names to run (default: all)")
		validate  = flag.Bool("validate", false, "parse -out, print a summary and exit without benchmarking")
	)
	flag.Parse()
	if err := run(*out, *rounds, *label, *baseline, *check, *maxReg, *maxTraced, *only, *validate); err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		os.Exit(1)
	}
}

func run(out string, rounds int, label string, baseline, check bool, maxReg, maxTraced float64, only string, validate bool) error {
	f, err := load(out)
	if err != nil {
		return err
	}
	if validate {
		fmt.Printf("benchrec: %s: schema %s, %d runs, %d baseline(s)\n", out, f.Schema, len(f.Runs), countBaselines(f))
		return nil
	}

	defs := benchrun.Defs()
	if only != "" {
		var picked []benchrun.Def
		for _, name := range strings.Split(only, ",") {
			d, err := benchrun.Lookup(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			picked = append(picked, d)
		}
		defs = picked
	}

	rec := Run{
		Date:     time.Now().UTC().Format(time.RFC3339),
		Label:    label,
		Baseline: baseline,
		Go:       runtime.Version(),
		OS:       runtime.GOOS,
		Arch:     runtime.GOARCH,
		CPUs:     runtime.NumCPU(),
		Results:  make(map[string]benchrun.Result, len(defs)),
	}
	report := func(name string, r benchrun.Result) {
		rec.Results[name] = r
		fmt.Printf("%-28s %12.1f ns/op %6d B/op %4d allocs/op\n", name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	for _, d := range defs {
		if _, done := rec.Results[d.Name]; done {
			continue
		}
		// Overhead pairs run with interleaved rounds so both sides of the
		// comparison see the same machine noise.
		if plainName, isTraced := tracedPairs[d.Name]; isTraced {
			if plain, err := benchrun.Lookup(plainName); err == nil {
				if _, havePlain := rec.Results[plainName]; havePlain || hasDef(defs, plainName) {
					rp, rt := benchrun.RunPair(plain, d, rounds)
					report(plainName, rp)
					report(d.Name, rt)
					continue
				}
			}
		}
		if tracedName := pairedTraced(d.Name); tracedName != "" && hasDef(defs, tracedName) {
			if traced, err := benchrun.Lookup(tracedName); err == nil {
				rp, rt := benchrun.RunPair(d, traced, rounds)
				report(d.Name, rp)
				report(tracedName, rt)
				continue
			}
		}
		report(d.Name, benchrun.Run(d, rounds))
	}
	f.Runs = append(f.Runs, rec)
	if err := save(out, f); err != nil {
		return err
	}
	fmt.Printf("benchrec: recorded run %d in %s\n", len(f.Runs), out)

	if !check {
		return nil
	}
	var failures []string
	failures = append(failures, checkAbsoluteBudgets(rec)...)
	failures = append(failures, checkTracedOverhead(rec, maxTraced)...)
	if base := newestBaseline(f, len(f.Runs)-1); base != nil {
		failures = append(failures, checkBaseline(rec, *base, maxReg)...)
	} else {
		fmt.Println("benchrec: no baseline run in file; skipping regression comparison")
	}
	if len(failures) > 0 {
		return fmt.Errorf("regression gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("benchrec: regression gate passed")
	return nil
}

// hasDef reports whether the selected def list includes name.
func hasDef(defs []benchrun.Def, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// pairedTraced returns the traced twin gated against this floor, if any.
func pairedTraced(plain string) string {
	for traced, p := range tracedPairs {
		if p == plain {
			return traced
		}
	}
	return ""
}

// checkAbsoluteBudgets gates the floors that carry a fixed ns/op or allocs/op
// ceiling.
func checkAbsoluteBudgets(rec Run) []string {
	var failures []string
	for name, budget := range absoluteBudgets {
		r, ok := rec.Results[name]
		if !ok {
			continue
		}
		fmt.Printf("benchrec: %s: %.1f ns/op (absolute budget %.0f ns/op)\n", name, r.NsPerOp, budget)
		if r.NsPerOp > budget {
			failures = append(failures, fmt.Sprintf("%s is %.1f ns/op, over its absolute budget of %.0f ns/op", name, r.NsPerOp, budget))
		}
	}
	for name, budget := range allocBudgets {
		r, ok := rec.Results[name]
		if !ok {
			continue
		}
		fmt.Printf("benchrec: %s: %d allocs/op (absolute budget %d)\n", name, r.AllocsPerOp, budget)
		if r.AllocsPerOp > budget {
			failures = append(failures, fmt.Sprintf("%s allocates %d times per op, over its absolute budget of %d", name, r.AllocsPerOp, budget))
		}
	}
	return failures
}

// checkTracedOverhead gates each traced/untraced pair measured in this run,
// preferring the same-round overhead statistic RunPair computes (it cancels
// machine noise drifting between rounds) over the ratio of recorded floors.
func checkTracedOverhead(rec Run, maxPct float64) []string {
	var failures []string
	for traced, plain := range tracedPairs {
		t, okT := rec.Results[traced]
		p, okP := rec.Results[plain]
		if !okT || !okP || p.NsPerOp <= 0 {
			continue
		}
		over := (t.NsPerOp/p.NsPerOp - 1) * 100
		if t.PairOverheadPct != nil {
			over = *t.PairOverheadPct
		}
		fmt.Printf("benchrec: %s overhead vs %s: %+.1f%% (budget %.0f%%)\n", traced, plain, over, maxPct)
		if over > maxPct {
			failures = append(failures, fmt.Sprintf("%s is %.1f%% over %s (budget %.0f%%)", traced, over, plain, maxPct))
		}
	}
	return failures
}

// floors folds each traced twin into its untraced floor: the twin runs the
// identical workload, so min(plain, traced) samples the same floor twice and
// halves the invocation-to-invocation noise on I/O-bound benches. Traced
// names drop out here — the overhead gate covers them.
func floors(rec Run) map[string]float64 {
	m := make(map[string]float64, len(rec.Results))
	for name, r := range rec.Results {
		if _, isTraced := tracedPairs[name]; isTraced {
			continue
		}
		m[name] = r.NsPerOp
	}
	for traced, plain := range tracedPairs {
		t, okT := rec.Results[traced]
		if f, okP := m[plain]; okT && okP && t.NsPerOp > 0 && t.NsPerOp < f {
			m[plain] = t.NsPerOp
		}
	}
	return m
}

// checkBaseline gates this run against the baseline after normalizing out
// the machine speed difference (median ratio across shared benchmarks).
func checkBaseline(rec, base Run, maxPct float64) []string {
	recF, baseF := floors(rec), floors(base)
	var ratios []float64
	type pair struct {
		name  string
		ratio float64
	}
	var pairs []pair
	for name, b := range baseF {
		n, ok := recF[name]
		if !ok || b <= 0 || n <= 0 {
			continue
		}
		r := n / b
		ratios = append(ratios, r) //gridlint:allow floatmaprange(ratios are sorted before the median is taken, pairs are per-name floors; order-independent)
		pairs = append(pairs, pair{name, r})
	}
	if len(ratios) == 0 {
		return nil
	}
	sort.Float64s(ratios)
	speed := ratios[len(ratios)/2] // median = this machine vs the baseline machine
	fmt.Printf("benchrec: machine speed factor vs baseline (%s): %.2fx\n", base.Date, speed)
	var failures []string
	for _, p := range pairs {
		rel := (p.ratio/speed - 1) * 100
		if rel > maxPct {
			failures = append(failures, fmt.Sprintf("%s regressed %.1f%% vs baseline after speed normalization (budget %.0f%%)", p.name, rel, maxPct))
		}
	}
	return failures
}

// newestBaseline finds the latest run marked baseline among runs[0:limit].
func newestBaseline(f *File, limit int) *Run {
	for i := limit - 1; i >= 0; i-- {
		if f.Runs[i].Baseline {
			return &f.Runs[i]
		}
	}
	return nil
}

func countBaselines(f *File) int {
	n := 0
	for _, r := range f.Runs {
		if r.Baseline {
			n++
		}
	}
	return n
}

// load parses the trajectory file, returning an empty document if it does
// not exist yet.
func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &File{Schema: fileSchema}, nil
	}
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != fileSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, fileSchema)
	}
	return &f, nil
}

// save writes the trajectory atomically (temp file + rename).
func save(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".benchrec-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	return os.Rename(tmpName, path)
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// Suite mode runs every workload, each in a process of its own so memory
// counters and GC state are per workload, by re-executing this binary with
// -workload. It is what `go run ./bench` does with no -workload.

// suiteRun is one child invocation's result as kept in a result file.
type suiteRun struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Pass      int               `json:"pass"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultFile is what suite mode writes and -compare reads.
type resultFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	RunSeconds  float64     `json:"runSeconds"`
	Runs        []suiteRun  `json:"runs"`
}

// runChild executes one workload in a child process, relays its report to w
// and returns the driver line it ended with.
func runChild(w io.Writer, o options, workload string, traced bool, secs float64) (*driverLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", trace, "-outdir", o.outDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		_, _ = io.Copy(w, &out) // best-effort relay of a failed child's partial report
		return nil, fmt.Errorf("%s (trace %s): %w", workload, trace, err)
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(w, last)
		}
		last = sc.Text()
	}
	var line driverLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return nil, fmt.Errorf("%s (trace %s): last line is not a result: %w", workload, trace, err)
	}
	return &line, nil
}

func suiteMain(o options, stdout, stderr io.Writer) int {
	secs := o.seconds
	passes := max(o.runs, 1)
	modes := []bool{false, true}
	switch {
	case o.check:
		// The gate needs correct outcomes, not steady timings.
		if secs <= 0 {
			secs = 3
		}
		modes = []bool{false}
	case o.aa:
		passes = max(passes, 2)
	}
	if secs <= 0 {
		secs = defaultRunSeconds
	}
	file := resultFile{Fingerprint: machineFingerprint(o.seed), RunSeconds: secs}
	failedOps := 0
	// Pass-major order interleaves the workloads: A1 B1 C1 D1 A2 B2 …, so
	// machine drift between passes lands on every workload alike.
	for pass := 1; pass <= passes; pass++ {
		for _, traced := range modes {
			for _, wl := range workloads {
				fmt.Fprintf(stdout, "\n## pass %d/%d\n", pass, passes)
				line, err := runChild(stdout, o, wl.Name, traced, secs)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %v\n", err)
					return 1
				}
				failedOps += line.Failed
				file.Runs = append(file.Runs, suiteRun{
					Workload: wl.Name, Traced: traced, Pass: pass,
					Correct: line.Correct, Attempted: line.Attempted, Failed: line.Failed, Metrics: line.Metrics,
				})
			}
		}
	}
	if o.aa {
		printAA(stdout, file)
	}
	path := o.out
	if path == "" {
		path = filepath.Join(o.outDir, "result.json")
	}
	if err := writeResultFile(path, file); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nresult file: %s (%d runs, %d failed operations)\n", path, len(file.Runs), failedOps)
	if failedOps > 0 {
		return 1
	}
	return 0
}

func writeResultFile(path string, file resultFile) error {
	doc, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(doc, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var file resultFile
	doc, err := os.ReadFile(path)
	if err != nil {
		return file, err
	}
	if err := json.Unmarshal(doc, &file); err != nil {
		return file, fmt.Errorf("%s: %w", path, err)
	}
	return file, nil
}

// values collects one metric's values over a file's runs of one workload.
func (f resultFile) values(workload string, traced bool, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Traced == traced {
			if m, ok := r.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// exactCounts are the per-layer metrics that count protocol events: the same
// seed must produce the same number on every run. The TCP frame count is not
// among them: a server's WireStats are read while its writers may still hold
// queued session-end frames, so it varies by a few frames with timing.
var exactCounts = []string{
	"protocol.rounds_per_session", "customeragent.reacts_per_session", "bus.sent_per_session",
	"bus.rejected_per_session", "bus.dropped_per_session",
	"telemetry.readings_per_tick", "store.records_per_tick",
}

// demotedTimings are the wall-clock metrics A/A runs could not resolve within
// any admissible bound; -aa keeps printing their difference so the day a
// steadier machine can gate them is visible.
var demotedTimings = []string{"bench.op_p50_ms", "bench.units_per_s"}

// relDiff is |b−a| as a share of a.
func relDiff(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(b-a) / math.Abs(a)
}

// printAA prints, per workload and end-to-end metric, the relative
// difference between the first two passes of identical code beside the
// metric's bound. A metric whose A/A difference exceeds its bound cannot
// resolve a regression of that size and is to be demoted to information
// only — the bound is not widened to fit the noise.
func printAA(w io.Writer, file resultFile) {
	fmt.Fprintf(w, "\n## A/A: pass 2 against pass 1, same code, same seed %d\n", file.Fingerprint.Seed)
	fmt.Fprintf(w, "%-12s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "pass 1", "pass 2", "diff", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			v := file.values(wl.Name, false, m.Name)
			if len(v) < 2 {
				continue
			}
			d := relDiff(v[0], v[1])
			verdict := "agrees"
			if d > m.Bound {
				verdict = "EXCEEDS BOUND: demote to information only"
			}
			fmt.Fprintf(w, "%-12s %-22s %14.6g %14.6g %8.2f%% %6.0f%%  %s (base pass 1)\n", wl.Name, m.Name, v[0], v[1], 100*d, 100*m.Bound, verdict)
		}
		for _, name := range demotedTimings {
			if v := file.values(wl.Name, true, name); len(v) >= 2 {
				fmt.Fprintf(w, "%-12s %-22s %14.6g %14.6g %8.2f%% %7s  information only (base pass 1)\n", wl.Name, name, v[0], v[1], 100*relDiff(v[0], v[1]), "-")
			}
		}
		for _, name := range exactCounts {
			v := file.values(wl.Name, true, name)
			if len(v) < 2 {
				continue
			}
			verdict := "identical"
			if v[0] != v[1] {
				verdict = "DIFFERS: the count must repeat exactly"
			}
			fmt.Fprintf(w, "%-12s %-34s %14.6g %14.6g  %s\n", wl.Name, name, v[0], v[1], verdict)
		}
	}
}

// compareMain implements -compare a.json b.json: a is the base.
func compareMain(o options, stdout, stderr io.Writer) int {
	if len(o.args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two result files: bench -compare a.json b.json")
		return 2
	}
	a, err := readResultFile(o.args[0])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readResultFile(o.args[1])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	regressed := printCompare(stdout, o.args[0], a, o.args[1], b)
	if regressed > 0 {
		return 1
	}
	return 0
}

func describe(fp fingerprint) string {
	return fmt.Sprintf("%s, %s, nproc %d, GOMAXPROCS %d, commit %s, seed %d", fp.GoVersion, fp.CPUModel, fp.NProc, fp.GOMAXPROCS, fp.GitCommit, fp.Seed)
}

// verdictOf applies the benchmark's regression rule to one end-to-end metric
// on one workload. a is the base side.
func verdictOf(m metricSpec, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / math.Abs(ma)
	if m.Better == "higher" {
		worse = -worse
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	overlap := sa[0] <= sb[len(sb)-1] && sb[0] <= sa[len(sa)-1]
	if (spread(a) > m.Bound || spread(b) > m.Bound) && overlap {
		return "unresolved"
	}
	if worse > m.Bound {
		return "regressed"
	}
	return "ok"
}

// printCompare prints one row per workload × metric and returns how many
// end-to-end rows regressed.
func printCompare(w io.Writer, aName string, a resultFile, bName string, b resultFile) int {
	fmt.Fprintf(w, "a (base): %s\n          %s\n", aName, describe(a.Fingerprint))
	fmt.Fprintf(w, "b:        %s\n          %s\n", bName, describe(b.Fingerprint))
	if a.Fingerprint.CPUModel != b.Fingerprint.CPUModel || a.Fingerprint.GOMAXPROCS != b.Fingerprint.GOMAXPROCS || a.RunSeconds != b.RunSeconds {
		fmt.Fprintln(w, "WARNING: the two files were not measured under the same conditions")
	}
	fmt.Fprintf(w, "\n%-12s %-40s %-6s %34s %34s %18s %7s  %s\n", "workload", "metric", "unit", "a: median [q1, q3] (n)", "b: median [q1, q3] (n)", "b/a (base a)", "bound", "verdict")
	side := func(v []float64) string {
		q1, q2, q3 := quartiles(v)
		return fmt.Sprintf("%.6g [%.6g, %.6g] (%d)", q2, q1, q3, len(v))
	}
	regressed := 0
	row := func(wl string, m metricSpec, traced bool) {
		va, vb := a.values(wl, traced, m.Name), b.values(wl, traced, m.Name)
		if len(va) == 0 || len(vb) == 0 {
			return
		}
		ratio := "n/a"
		if base := median(va); base != 0 {
			ratio = fmt.Sprintf("%.4f (a=%.6g)", median(vb)/base, base)
		}
		bound, verdict := "-", "information only"
		if !traced {
			bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
			verdict = verdictOf(m, va, vb)
			if verdict == "regressed" {
				regressed++
			}
		}
		fmt.Fprintf(w, "%-12s %-40s %-6s %34s %34s %18s %7s  %s\n", wl, m.Name, m.Unit, side(va), side(vb), ratio, bound, verdict)
	}
	for _, wl := range workloads {
		for _, m := range endToEnd {
			row(wl.Name, m, false)
		}
	}
	layers := append([]metricSpec(nil), perLayer...)
	sort.Slice(layers, func(i, j int) bool { return layers[i].Name < layers[j].Name })
	for _, wl := range workloads {
		for _, m := range layers {
			row(wl.Name, m, true)
		}
	}
	fa, fb := failedOf(a), failedOf(b)
	fmt.Fprintf(w, "\nfailed operations: a %s, b %s\n", fa, fb)
	return regressed
}

func failedOf(f resultFile) string {
	failed, attempted := 0, 0
	for _, r := range f.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return fmt.Sprintf("%d of %d", failed, attempted)
}

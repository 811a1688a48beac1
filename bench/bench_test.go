package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"loadbalance/internal/health"
)

// TestMain silences the library's operational log, as main does: a live rig
// logs a warning per re-negotiation, by design.
func TestMain(m *testing.M) {
	if _, err := health.Init(health.Config{Proc: "bench-test", MinLevel: health.Off, StderrLevel: health.Off}); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the driver's contract file at the repo root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesSpec pins BENCHMARK.json to the benchmark's own
// vocabulary: same workloads, same metrics, same units and bounds.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if strings.Join(b.Command, " ") != "go run ./bench" {
		t.Errorf("command = %v", b.Command)
	}
	if b.RunSeconds != defaultRunSeconds {
		t.Errorf("run_seconds = %d, the benchmark's default is %d", b.RunSeconds, defaultRunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the spec", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i] != w {
			t.Errorf("workload %d: %+v, spec %+v", i, b.Workloads[i], w)
		}
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the spec", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: %+v, spec %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func toyConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{Workload: workload, Seed: 1, Seconds: 0.01, Trace: trace, Size: toySizing, OutDir: t.TempDir()}
}

func mustRun(t *testing.T, cfg runConfig) *runResult {
	t.Helper()
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", cfg.Workload, cfg.Trace, err)
	}
	if !res.Correct {
		t.Fatalf("%s (trace %v): %d of %d operations failed: %v", cfg.Workload, cfg.Trace, res.Failed, res.Attempted, res.Failures)
	}
	return res
}

// checkMetrics asserts a run emitted exactly the named metrics, each once,
// with its unit and a finite value.
func checkMetrics(t *testing.T, res *runResult, specs []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics emitted, %d specified", res.Workload, len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := res.Metrics[s.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", res.Workload, s.Name)
		case m.Unit != s.Unit:
			t.Errorf("%s: %s has unit %q, want %q", res.Workload, s.Name, m.Unit, s.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", res.Workload, s.Name, m.Value)
		}
	}
}

// TestWorkloadsAtToySize runs every workload end to end and traced, twice
// traced, at toy size.
func TestWorkloadsAtToySize(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			res := mustRun(t, toyConfig(t, w.Name, false))
			checkMetrics(t, res, b.EndToEnd)
			for _, s := range b.EndToEnd {
				if res.Metrics[s.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", s.Name, res.Metrics[s.Name].Value)
				}
			}

			first := toyConfig(t, w.Name, true)
			a := mustRun(t, first)
			checkMetrics(t, a, b.PerLayer)
			checkSpanFile(t, filepath.Join(first.OutDir, w.Name+".trace.json"))

			// Counts of protocol events repeat exactly from one run to the next.
			again := mustRun(t, toyConfig(t, w.Name, true))
			for _, name := range exactCounts {
				if x, y := a.Metrics[name].Value, again.Metrics[name].Value; x != y {
					t.Errorf("%s: %v then %v, must repeat exactly", name, x, y)
				}
			}
			if a.Metrics["protocol.rounds_per_session"].Value < 1 {
				t.Errorf("rounds_per_session = %v", a.Metrics["protocol.rounds_per_session"].Value)
			}
		})
	}
}

// checkSpanFile asserts the span file is well formed: every parent and
// cause resolves, no span ends before it starts, and the synchronous
// children of a span — sends made on its goroutine while it was open — fit
// inside it, so self time is never negative.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(doc, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(f.Spans) == 0 || f.Sessions == 0 {
		t.Fatalf("%s: %d spans, %d sessions", path, len(f.Spans), f.Sessions)
	}
	byID := make(map[uint64]span, len(f.Spans))
	for _, s := range f.Spans {
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("span id %d recorded twice", s.ID)
		}
		byID[s.ID] = s
	}
	children := make(map[uint64]int64)
	for _, s := range f.Spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %d ends before it starts", s.ID)
		}
		if s.Cause != 0 {
			if _, ok := byID[s.Cause]; !ok {
				t.Errorf("span %d: cause %d does not resolve", s.ID, s.Cause)
			}
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d: parent %d does not resolve", s.ID, s.Parent)
			continue
		}
		if p.Session != s.Session || p.Agent != s.Agent {
			t.Errorf("span %d (%s, session %d) is a child of span %d (%s, session %d)", s.ID, s.Agent, s.Session, p.ID, p.Agent, p.Session)
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("span %d is not inside its parent %d", s.ID, p.ID)
		}
		children[s.Parent] += s.EndNs - s.StartNs
	}
	for id, covered := range children {
		if p := byID[id]; covered > p.EndNs-p.StartNs {
			t.Errorf("span %d: children cover %d ns of its %d ns", id, covered, p.EndNs-p.StartNs)
		}
	}
}

// TestCheckCatchesCorruptedAward is the gate's acceptance test: a double
// around the session call corrupts one award, and -check exits non-zero with
// a one-line reason.
func TestCheckCatchesCorruptedAward(t *testing.T) {
	for _, workload := range []string{wlFlat, wlTCP} {
		cfg := toyConfig(t, workload, false)
		var out, errOut bytes.Buffer
		if code := runAndReport(cfg, true, &out, &errOut); code != 0 {
			t.Fatalf("%s: clean run exits %d: %s%s", workload, code, out.String(), errOut.String())
		}
		cfg.wrapOp = func(op sessionOp) sessionOp {
			return func() (*outcome, error) {
				o, err := op()
				if err == nil && len(o.awards) > 0 {
					o.awards[0].Award.Reward += 1e-6
				}
				return o, err
			}
		}
		out.Reset()
		if code := runAndReport(cfg, true, &out, &errOut); code == 0 {
			t.Fatalf("%s: a corrupted award passed -check:\n%s", workload, out.String())
		}
		if !strings.Contains(out.String(), "FAILED: session 1: awards digest") {
			t.Errorf("%s: no one-line reason for the failed session:\n%s", workload, out.String())
		}
		var line driverLine
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not the driver's object: %v", err)
		}
		if line.Correct || line.Failed == 0 {
			t.Errorf("%s: driver line reports correct=%v failed=%d", workload, line.Correct, line.Failed)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// which the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, Python gives 1.75 3.5 5.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q2 != 15 || q3 != 22.5 {
		t.Errorf("quartiles of two = %v %v %v, Python gives 7.5 15 22.5", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "op_p50_s", Unit: "s", Better: "lower", Bound: 0.08}
	higher := metricSpec{Name: "units_per_s", Unit: "1/s", Better: "higher", Bound: 0.08}
	cases := []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lower, []float64{1, 1.01, 0.99}, []float64{1.02, 1.03, 1.01}, "ok"},
		{lower, []float64{1, 1.01, 0.99}, []float64{1.2, 1.21, 1.19}, "regressed"},
		{lower, []float64{1, 1.01, 0.99}, []float64{0.5, 0.51, 0.49}, "ok"},
		{higher, []float64{100, 101, 99}, []float64{80, 81, 79}, "regressed"},
		{higher, []float64{100, 101, 99}, []float64{120, 121, 119}, "ok"},
		// Spread wider than the bound and the runs overlap: not resolvable.
		{lower, []float64{1, 1.3, 0.8, 1.1}, []float64{1.2, 0.9, 1.4, 1.0}, "unresolved"},
		// Wide spread but every run of b is better than every run of a.
		{lower, []float64{1, 1.3, 0.9, 1.1}, []float64{0.5, 0.6, 0.4, 0.7}, "ok"},
	}
	for i, c := range cases {
		if got := verdictOf(c.m, c.a, c.b); got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}
}

func TestCompareAndAAReports(t *testing.T) {
	file := func(scale float64) resultFile {
		f := resultFile{Fingerprint: machineFingerprint(1), RunSeconds: 1}
		for pass := 1; pass <= 2; pass++ {
			for _, w := range workloads {
				e2e, layer := map[string]metric{}, map[string]metric{}
				for _, m := range endToEnd {
					e2e[m.Name] = metric{Value: scale * (1 + 0.001*float64(pass)), Unit: m.Unit}
				}
				for _, m := range perLayer {
					layer[m.Name] = metric{Value: 7, Unit: m.Unit}
				}
				f.Runs = append(f.Runs,
					suiteRun{Workload: w.Name, Pass: pass, Correct: true, Attempted: 1, Metrics: e2e},
					suiteRun{Workload: w.Name, Traced: true, Pass: pass, Correct: true, Attempted: 1, Metrics: layer})
			}
		}
		return f
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeResultFile(a, file(1)); err != nil {
		t.Fatal(err)
	}
	if err := writeResultFile(b, file(1.5)); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := compareMain(options{args: []string{a, b}}, &out, &errOut)
	if code != 1 {
		t.Errorf("a 50%% slowdown compares with exit %d: %s", code, errOut.String())
	}
	report := out.String()
	for _, want := range []string{"regressed", "information only", "(a=", "seed 1", wlLive, "bus.wire_frames_per_session"} {
		if !strings.Contains(report, want) {
			t.Errorf("compare report lacks %q", want)
		}
	}
	out.Reset()
	printAA(&out, file(1))
	if !strings.Contains(out.String(), "agrees") || !strings.Contains(out.String(), "identical") {
		t.Errorf("A/A report:\n%s", out.String())
	}
}

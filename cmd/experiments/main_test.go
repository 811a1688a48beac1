package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"loadbalance/internal/health"
	"loadbalance/internal/trace"
)

func TestRunSingleExperiment(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-exp", "e2", "-out", dir}); err != nil {
		t.Fatalf("e2: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "e2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	csv := string(data)
	if !strings.HasPrefix(csv, "cut_down,reward\n") {
		t.Fatalf("csv header = %q", csv[:40])
	}
	if !strings.Contains(csv, "0.4,17") {
		t.Fatalf("csv missing the Figure 6 row:\n%s", csv)
	}
}

// TestRunRecordsExperimentHistogram: each experiment's wall time lands in
// the experiment_duration_seconds histogram under its id, served on -metrics.
// The registry is the process's, so the run adds one to whatever earlier runs
// (-count > 1) left there.
func TestRunRecordsExperimentHistogram(t *testing.T) {
	dir := t.TempDir()
	before := trace.GetHistogramL("experiment_duration_seconds", "exp", "e3").Count()
	if err := run([]string{"-exp", "e3", "-out", dir}); err != nil {
		t.Fatalf("e3: %v", err)
	}
	var buf strings.Builder
	trace.WriteMetrics(&buf, trace.DefaultRegistry().Gather())
	metrics := buf.String()
	for _, want := range []string{
		"# TYPE experiment_duration_seconds histogram",
		fmt.Sprintf(`experiment_duration_seconds_count{exp="e3"} %d`, before+1),
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestGoldenMetricsPage pins the -metrics page byte for byte over a fixed
// logger and a fixed histogram.
func TestGoldenMetricsPage(t *testing.T) {
	logger, err := health.New(health.Config{Proc: "experiments", MinLevel: health.Info, StderrLevel: health.Off})
	if err != nil {
		t.Fatal(err)
	}
	defer logger.Close()
	logger.Log(health.Warn, "golden", "one event")
	base := trace.NewRegistry()
	base.HistogramL("experiment_duration_seconds", "exp", "e3").Observe(1500 * time.Millisecond)
	var page strings.Builder
	if err := trace.WriteMetrics(&page, metricsRegistry(base, logger).Gather()); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if page.String() != string(want) {
		t.Fatalf("-metrics page differs from testdata/metrics.golden:\n--- got\n%s--- want\n%s", page.String(), want)
	}
}

func TestRunE1WritesCurve(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-exp", "e1", "-n", "20", "-out", dir}); err != nil {
		t.Fatalf("e1: %v", err)
	}
	for _, f := range []string{"e1.csv", "e1_demand_curve.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}
}

func TestRunSmallSweeps(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-out", dir, "-n", "8", "-runs", "2",
		"-sizes", "5,10", "-betas", "1,3"}
	for _, exp := range []string{"e5", "e6", "e7", "e8", "e12", "e14"} {
		if err := run(append([]string{"-exp", exp}, args...)); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if _, err := os.Stat(filepath.Join(dir, exp+".csv")); err != nil {
			t.Fatalf("%s csv missing: %v", exp, err)
		}
	}
}

func TestRunClusterScale(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-exp", "e11c", "-out", dir, "-cluster-sizes", "30", "-shards", "3"}
	if err := run(args); err != nil {
		t.Fatalf("e11c: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "e11c.csv"))
	if err != nil {
		t.Fatal(err)
	}
	csv := string(data)
	if !strings.HasPrefix(csv, "customers,shards,") {
		t.Fatalf("csv header = %q", csv)
	}
	if !strings.Contains(csv, "30,flat,") || !strings.Contains(csv, "30,3,") {
		t.Fatalf("csv missing flat/sharded rows:\n%s", csv)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-exp", "e99", "-out", dir}); err == nil {
		t.Fatal("unknown experiment should fail")
	}
	if err := run([]string{"-sizes", "ten", "-out", dir}); err == nil {
		t.Fatal("bad sizes should fail")
	}
	if err := run([]string{"-betas", "x", "-out", dir}); err == nil {
		t.Fatal("bad betas should fail")
	}
	if err := run([]string{"-cluster-sizes", "many", "-out", dir}); err == nil {
		t.Fatal("bad cluster sizes should fail")
	}
	if err := run([]string{"-shards", "x", "-out", dir}); err == nil {
		t.Fatal("bad shards should fail")
	}
}

func TestParseHelpers(t *testing.T) {
	ints, err := parseInts("1, 2,3")
	if err != nil || len(ints) != 3 || ints[2] != 3 {
		t.Fatalf("parseInts = %v, %v", ints, err)
	}
	floats, err := parseFloats("0.5,1.85")
	if err != nil || len(floats) != 2 || floats[1] != 1.85 {
		t.Fatalf("parseFloats = %v, %v", floats, err)
	}
}

// TestRunE16WritesRecoveryJSON runs the crash-recovery experiment and
// checks both artifacts: the CSV table and the result JSON carrying the
// recovery latency and verdict.
func TestRunE16WritesRecoveryJSON(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-exp", "e16", "-out", dir, "-n", "16", "-ticks", "10"}); err != nil {
		t.Fatalf("e16: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "e16_recovery.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		RecoveryLatencyNS int64 `json:"recoveryLatencyNs"`
		AwardsMatch       bool  `json:"awardsMatch"`
		ReplayedRecords   int   `json:"replayedRecords"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.AwardsMatch || rep.RecoveryLatencyNS <= 0 {
		t.Fatalf("recovery report = %+v", rep)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "e16.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), "recovered") {
		t.Fatalf("e16 csv missing the recovered row:\n%s", csv)
	}
}

// TestRunDataDirSkipsCompleted covers the resumable runner: the second
// invocation of the same experiment against the same data dir skips it.
func TestRunDataDirSkipsCompleted(t *testing.T) {
	out := t.TempDir()
	dataDir := t.TempDir()
	args := []string{"-exp", "e2", "-out", out, "-data-dir", dataDir}
	if err := run(args); err != nil {
		t.Fatalf("first run: %v", err)
	}
	csvPath := filepath.Join(out, "e2.csv")
	if _, err := os.Stat(csvPath); err != nil {
		t.Fatal(err)
	}
	// Tamper with the CSV: a true skip must not rewrite it.
	if err := os.WriteFile(csvPath, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(args); err != nil {
		t.Fatalf("second run: %v", err)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil || string(data) != "tampered" {
		t.Fatalf("skipped experiment rewrote its CSV (err %v): %q", err, data)
	}
}

// TestRunDataDirReRunsOnChangedParameters: a completed id only skips when
// the parameter fingerprint matches; changing -seed re-runs it.
func TestRunDataDirReRunsOnChangedParameters(t *testing.T) {
	out := t.TempDir()
	dataDir := t.TempDir()
	if err := run([]string{"-exp", "e2", "-out", out, "-data-dir", dataDir, "-seed", "1"}); err != nil {
		t.Fatalf("first run: %v", err)
	}
	csvPath := filepath.Join(out, "e2.csv")
	if err := os.WriteFile(csvPath, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "e2", "-out", out, "-data-dir", dataDir, "-seed", "2"}); err != nil {
		t.Fatalf("re-run with new seed: %v", err)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil || string(data) == "tampered" {
		t.Fatalf("changed parameters did not re-run the experiment (err %v)", err)
	}
}

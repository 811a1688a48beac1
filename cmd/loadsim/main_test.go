package main

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"loadbalance/internal/store"
	"loadbalance/internal/utilityagent"
)

func TestRunPaperScenario(t *testing.T) {
	if err := run(nil); err != nil {
		t.Fatalf("default run: %v", err)
	}
}

func TestRunMethodVariants(t *testing.T) {
	for _, method := range []string{"offer", "request_for_bids", "auto"} {
		if err := run([]string{"-method", method}); err != nil {
			t.Fatalf("method %s: %v", method, err)
		}
	}
}

func TestRunPopulationScenario(t *testing.T) {
	if err := run([]string{"-scenario", "population", "-n", "8", "-seed", "3"}); err != nil {
		t.Fatalf("population run: %v", err)
	}
}

func TestRunWithFaultInjection(t *testing.T) {
	if err := run([]string{"-drop", "0.1", "-round-timeout", "25ms"}); err != nil {
		t.Fatalf("lossy run: %v", err)
	}
}

func TestRunAdaptiveBeta(t *testing.T) {
	if err := run([]string{"-beta", "0.5", "-adaptive"}); err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string
	}{
		{name: "unknown scenario", args: []string{"-scenario", "mars"}, want: "unknown scenario"},
		{name: "unknown method", args: []string{"-method", "telepathy"}, want: "unknown method"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := run(tt.args)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error = %v, want %q", err, tt.want)
			}
		})
	}
}

// TestRunDataDirResumes covers -data-dir: the first run journals its
// outcome, the second resumes from the journal, and the journal holds one
// sealed session record with the full saved result.
func TestRunDataDirResumes(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-scenario", "population", "-n", "6", "-seed", "3", "-data-dir", dir}
	if err := run(args); err != nil {
		t.Fatalf("first run: %v", err)
	}
	rec, err := store.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Sealed {
		t.Fatal("journal not sealed after the run")
	}
	var sessions int
	for _, r := range rec.Records {
		if r.Kind != store.KindSession {
			continue
		}
		sessions++
		out, err := store.DecodeSession(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Result) == 0 {
			t.Fatal("flat run journaled no saved result document")
		}
	}
	if sessions != 1 {
		t.Fatalf("journal holds %d session records, want 1", sessions)
	}
	// The resume path must not append a second session record.
	if err := run(args); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	rec, err = store.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sessions = 0
	for _, r := range rec.Records {
		if r.Kind == store.KindSession {
			sessions++
		}
	}
	if sessions != 1 {
		t.Fatalf("resume re-negotiated: %d session records", sessions)
	}
}

// TestRunDataDirSharded journals an in-process sharded run through the
// cluster engine's decision point and resumes from the award summary.
func TestRunDataDirSharded(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-scenario", "population", "-n", "8", "-seed", "5", "-shards", "2", "-data-dir", dir}
	if err := run(args); err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	rec, err := store.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Sealed {
		t.Fatal("sharded journal not sealed")
	}
	if err := run(args); err != nil {
		t.Fatalf("sharded resume: %v", err)
	}
}

// TestResumeReplaysTheTrace: in every layout a re-run against the data dir
// prints the first run's whole trace — every round's table, bids and
// prediction, the outcome and the awards — from the one session record the
// engine wrote. Only the transport's counters, from the bus line on, are
// not part of a record.
func TestResumeReplaysTheTrace(t *testing.T) {
	for _, scenario := range [][]string{{"-scenario", "paper"}, {"-scenario", "population", "-n", "8"}} {
		for _, layout := range [][]string{nil, {"-shards", "4"}} {
			args := append(append(append([]string{}, scenario...), layout...), "-data-dir", t.TempDir())
			t.Run(strings.Join(args[:len(args)-2], " "), func(t *testing.T) {
				var first, resumed strings.Builder
				if err := runTo(&first, args); err != nil {
					t.Fatalf("first run: %v", err)
				}
				if err := runTo(&resumed, args); err != nil {
					t.Fatalf("resumed run: %v", err)
				}
				if !strings.Contains(resumed.String(), "resumed from journal") {
					t.Fatalf("the re-run negotiated again:\n%s", resumed.String())
				}
				want, _, ok := strings.Cut(first.String(), "\nbus: ")
				got, _, _ := strings.Cut(resumed.String(), "\nbus: ")
				if !ok || !strings.Contains(want, "\nround 1\n") {
					t.Fatalf("first run printed no trace:\n%s", first.String())
				}
				if got != want {
					t.Fatalf("resumed trace differs\n--- resumed\n%s\n--- first\n%s", got, want)
				}
			})
		}
	}
}

// TestResumeVerifiesTheTrace: a journaled trace is verified on a resume as a
// fresh one is, so a record whose tables regress fails the re-run with the
// property error instead of replaying as good.
func TestResumeVerifiesTheTrace(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-data-dir", dir}
	if err := runTo(io.Discard, args); err != nil {
		t.Fatalf("first run: %v", err)
	}
	rec, err := store.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := rec.Session("paper-fig6")
	if !ok {
		t.Fatal("no session record after the first run")
	}
	var res utilityagent.Result
	if err := json.Unmarshal(out.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.History) < 2 {
		t.Fatalf("a %d-round trace cannot regress", len(res.History))
	}
	last := res.History[len(res.History)-1].Table.Entries
	for i := range last {
		last[i].Reward /= 2
	}
	if out.Result, err = json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSession(out); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	err = runTo(io.Discard, args)
	if err == nil || !strings.Contains(err.Error(), "violates protocol properties") || !strings.Contains(err.Error(), "ua_monotonic_tables") {
		t.Fatalf("re-run over a regressing trace: %v, want the ua_monotonic_tables violation", err)
	}
}

// TestRunDataDirRejectsTCP keeps the unsupported combination loud.
func TestRunDataDirRejectsTCP(t *testing.T) {
	err := run([]string{"-shards", "2", "-tcp", "-data-dir", t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "-data-dir") {
		t.Fatalf("error = %v, want the -data-dir/-tcp rejection", err)
	}
}

// TestRunDataDirRefusesChangedParameters pins the fingerprint check: a
// journal written under one beta must not replay as another beta's result.
func TestRunDataDirRefusesChangedParameters(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-beta", "1.85", "-data-dir", dir}); err != nil {
		t.Fatalf("first run: %v", err)
	}
	err := run([]string{"-beta", "5", "-data-dir", dir})
	if err == nil || !strings.Contains(err.Error(), "different parameters") {
		t.Fatalf("error = %v, want the stale-parameters refusal", err)
	}
}

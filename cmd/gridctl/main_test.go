package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"loadbalance/internal/health"
	"loadbalance/internal/obsplane"
	"loadbalance/internal/trace"
)

// startConsoleFixture boots a hub with one streaming process and serves its
// /fleet endpoints over HTTP, returning the host:port gridctl dials.
func startConsoleFixture(t *testing.T) string {
	t.Helper()
	logger, err := health.New(health.Config{Proc: "w1", MinLevel: health.Debug, RingSize: 256, StderrLevel: health.Off})
	if err != nil {
		t.Fatal(err)
	}
	hub, err := obsplane.StartHub(obsplane.HubConfig{Addr: "127.0.0.1:0", Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub.Close)

	tr := trace.NewTracer("w1", 256)
	root := tr.Root("session.run")
	root.SetSession("s1")
	child := tr.Child(root.Context(), "phase.negotiate")
	child.SetSession("s1")
	child.End()
	root.End()
	logger.Log(health.Warn, "overload", "shedding load", health.Str("shard", "2"))

	metrics := trace.NewRegistry()
	metrics.RegisterGauge("feedback_score", func() float64 { return 90 })
	em := obsplane.StartEmitter(obsplane.EmitterConfig{
		Hub: hub.Addr(), Proc: "w1", Role: "worker",
		Interval: 10 * time.Millisecond,
		Logger:   logger,
		Tracer:   func() *trace.Tracer { return tr },
		Metrics:  metrics,
	})
	t.Cleanup(em.Close)

	mux := http.NewServeMux()
	hub.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := hub.Status()
		if len(st) == 1 && st[0].Spans >= 2 && st[0].Logs >= 1 && st[0].Score == 90 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fixture never merged: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return strings.TrimPrefix(srv.URL, "http://")
}

func TestConsoleTop(t *testing.T) {
	addr := startConsoleFixture(t)
	var out bytes.Buffer
	if err := run(&out, []string{"-addr", addr, "top"}); err != nil {
		t.Fatalf("top: %v", err)
	}
	got := out.String()
	for _, want := range []string{"fleet score 90.0", "PROC", "w1", "worker", "live"} {
		if !strings.Contains(got, want) {
			t.Fatalf("top output missing %q:\n%s", want, got)
		}
	}
}

func TestConsoleLogs(t *testing.T) {
	addr := startConsoleFixture(t)
	var out bytes.Buffer
	// -addr after the subcommand must work too.
	if err := run(&out, []string{"logs", "-addr", addr, "-level", "warn"}); err != nil {
		t.Fatalf("logs: %v", err)
	}
	got := out.String()
	for _, want := range []string{"WARN", "[w1]", "overload: shedding load", `"shard":"2"`} {
		if !strings.Contains(got, want) {
			t.Fatalf("logs output missing %q:\n%s", want, got)
		}
	}
}

func TestConsoleTrace(t *testing.T) {
	addr := startConsoleFixture(t)
	var out bytes.Buffer
	if err := run(&out, []string{"-addr", addr, "trace", "s1"}); err != nil {
		t.Fatalf("trace: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "session s1: 2 spans from 1 processes") {
		t.Fatalf("trace header wrong:\n%s", got)
	}
	// The root renders flush left, the child indented under it.
	if !strings.Contains(got, "\nsession.run") {
		t.Fatalf("trace tree missing root:\n%s", got)
	}
	if !strings.Contains(got, "\n  phase.negotiate") {
		t.Fatalf("trace tree child not indented:\n%s", got)
	}
}

func TestConsoleErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, nil); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Fatalf("no-args error = %v", err)
	}
	if err := run(&out, []string{"-addr", "x", "frobnicate"}); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Fatalf("unknown command error = %v", err)
	}
	t.Setenv("GRIDCTL_ADDR", "")
	if err := run(&out, []string{"top"}); err == nil || !strings.Contains(err.Error(), "no hub address") {
		t.Fatalf("missing addr error = %v", err)
	}
	if err := run(&out, []string{"-addr", "x", "trace"}); err == nil || !strings.Contains(err.Error(), "exactly one session") {
		t.Fatalf("trace arity error = %v", err)
	}
}

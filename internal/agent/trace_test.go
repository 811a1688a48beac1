package agent

import (
	"errors"
	"testing"
	"time"

	"loadbalance/internal/bus"
	"loadbalance/internal/message"
	"loadbalance/internal/trace"
)

// TestTracedEnvelopePropagatesThroughRuntime proves the choke point: a
// traced envelope handled by one agent produces a handling span, and the
// reply the handler sends carries that span as its parent.
func TestTracedEnvelopePropagatesThroughRuntime(t *testing.T) {
	tr := trace.Enable("test", 64)
	t.Cleanup(trace.Disable)

	b, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	replies, err := b.Register("sink", 8)
	if err != nil {
		t.Fatal(err)
	}

	echo, err := Start("echo", b, HandlerFuncs{
		Message: func(rt *Runtime, env message.Envelope) error {
			return rt.Send("sink", env.Session, message.CutDownBid{Round: 1, CutDown: 0.1})
		},
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Stop()

	root := tr.Root("session.open")
	env, err := message.NewEnvelope("sink", "echo", "s1", message.SessionEnd{Round: 1, Reason: "x"})
	if err != nil {
		t.Fatal(err)
	}
	env.TraceID, env.SpanID = root.Context().Trace, root.Context().Span
	if err := b.Send(env); err != nil {
		t.Fatal(err)
	}

	select {
	case got := <-replies:
		if got.TraceID != root.Context().Trace {
			t.Fatalf("reply trace id %x, want %x", got.TraceID, root.Context().Trace)
		}
		if got.SpanID == root.Context().Span || got.SpanID == 0 {
			t.Fatalf("reply span id %x should be the handling span, not the root", got.SpanID)
		}
		// The handling span must be in the ring with the root as parent. It
		// ends after the handler that sent the reply returns, so wait for
		// the agent goroutine before reading the ring.
		echo.Stop()
		root.End()
		recs := tr.Records(trace.Filter{})
		var handle trace.Record
		for _, r := range recs {
			if r.Name == "handle.session_end" {
				handle = r
			}
		}
		if handle.Name == "" {
			t.Fatalf("no handling span recorded; ring: %+v", recs)
		}
		if handle.Agent != "echo" || handle.Session != "s1" {
			t.Fatalf("handling span labels wrong: %+v", handle)
		}
		var rootHex string
		for _, r := range recs {
			if r.Name == "session.open" {
				rootHex = r.Span
			}
		}
		if handle.Parent != rootHex {
			t.Fatalf("handling span parent %q, want root %q", handle.Parent, rootHex)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no reply")
	}
}

// TestUntracedEnvelopeStaysUntraced guards the overhead story: without a
// trace context (or with tracing disabled) nothing is recorded or stamped.
func TestUntracedEnvelopeStaysUntraced(t *testing.T) {
	trace.Disable()

	b, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	replies, err := b.Register("sink", 8)
	if err != nil {
		t.Fatal(err)
	}
	echo, err := Start("echo", b, HandlerFuncs{
		Message: func(rt *Runtime, env message.Envelope) error {
			return rt.Send("sink", env.Session, message.CutDownBid{Round: 1, CutDown: 0.1})
		},
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Stop()

	env, err := message.NewEnvelope("sink", "echo", "s1", message.SessionEnd{Round: 1, Reason: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send(env); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-replies:
		if got.Traced() {
			t.Fatalf("untraced request produced traced reply %x/%x", got.TraceID, got.SpanID)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no reply")
	}
}

// TestSendAllCtxEqualsSendCtxToEach: one payload to a list of agents arrives
// as SendCtx to each in order would deliver it — same routing, body and trace
// stamp, the same bus counts — and every recipient reads the one payload the
// sender validated.
func TestSendAllCtxEqualsSendCtxToEach(t *testing.T) {
	tr := trace.Enable("test", 64)
	t.Cleanup(trace.Disable)
	root := tr.Root("relay")
	tc := root.Context()
	table := message.RewardTable{
		Window:  message.Window{Start: time.Unix(0, 0).UTC(), End: time.Unix(3600, 0).UTC()},
		Round:   1,
		Entries: []message.RewardEntry{{CutDown: 0.1, Reward: 4.25}},
	}
	to := []string{"c1", "c2", "ghost", "c3"}

	run := func(send func(rt *Runtime) error) (map[string]message.Envelope, bus.Stats, error) {
		b, err := bus.NewInProc(bus.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		boxes := make(map[string]<-chan message.Envelope)
		for _, name := range []string{"c1", "c2", "c3"} {
			if boxes[name], err = b.Register(name, 4); err != nil {
				t.Fatal(err)
			}
		}
		rt, err := Start("cc", b, HandlerFuncs{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Stop()
		sendErr := send(rt)
		got := make(map[string]message.Envelope)
		for name, box := range boxes {
			if len(box) != 1 {
				t.Fatalf("%s holds %d envelopes, want 1", name, len(box))
			}
			got[name] = <-box
		}
		return got, b.Stats(), sendErr
	}
	want, wantStats, wantErr := run(func(rt *Runtime) error {
		var firstErr error
		for _, n := range to {
			if err := rt.SendCtx(tc, n, "s1", table); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	})
	got, gotStats, gotErr := run(func(rt *Runtime) error { return rt.SendAllCtx(tc, to, "s1", table) })

	if gotStats != wantStats {
		t.Fatalf("bus stats %+v, want %+v", gotStats, wantStats)
	}
	if !errors.Is(gotErr, bus.ErrUnknownAgent) || gotErr.Error() != wantErr.Error() {
		t.Fatalf("error %v, want %v", gotErr, wantErr)
	}
	var shared *message.RewardEntry
	for name, w := range want {
		g := got[name]
		if g.From != w.From || g.To != w.To || g.Session != w.Session || g.Kind != w.Kind ||
			payloadSeen(g) != payloadSeen(w) || g.TraceID != tc.Trace || g.SpanID != tc.Span {
			t.Fatalf("%s received %+v, want %+v", name, g, w)
		}
		p, err := g.Decode()
		if err != nil {
			t.Fatal(err)
		}
		entry := &p.(message.RewardTable).Entries[0]
		if shared == nil {
			shared = entry
		}
		if entry != shared || entry != &table.Entries[0] {
			t.Fatalf("%s decoded its own copy of the table", name)
		}
	}
}

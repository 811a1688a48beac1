package bus

import (
	"fmt"
	"testing"
	"time"

	"loadbalance/internal/message"
	"loadbalance/internal/trace"
)

// ping builds a small valid envelope.
func ping(from, to string, round int) message.Envelope {
	env, err := message.NewEnvelope(from, to, "s", message.CutDownBid{Round: round, CutDown: 0.2})
	if err != nil {
		panic(err)
	}
	return env
}

// TestDialListFallsThrough: the first dead address is skipped, the live one
// answers.
func TestDialListFallsThrough(t *testing.T) {
	inner, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	srv, err := ListenAndServe("127.0.0.1:0", inner)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := DialList([]string{"127.0.0.1:1", srv.Addr()}, "c1")
	if err != nil {
		t.Fatalf("DialList: %v", err)
	}
	defer cli.Close()
	if got := cli.RemoteAddr(); got != srv.Addr() {
		t.Fatalf("connected to %s, want %s", got, srv.Addr())
	}

	if _, err := DialList([]string{"127.0.0.1:1"}, "c2"); err == nil {
		t.Fatal("DialList over only dead addresses must fail")
	}
}

// TestReconnectFailoverResumesSession is the client side of grid-head
// failover: two servers bridge the same bus (the stand-in for a primary and
// its promoted standby serving the same fleet); the client's first server
// dies mid-session, the Reconn client re-dials the list, re-registers under
// its own name, and envelopes keep flowing both ways on the same Inbox.
func TestReconnectFailoverResumesSession(t *testing.T) {
	inner, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	srvA, err := ListenAndServe("127.0.0.1:0", inner)
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := ListenAndServe("127.0.0.1:0", inner)
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	// A local peer on the bridged bus plays the Utility Agent.
	uaInbox, err := inner.Register("ua", 16)
	if err != nil {
		t.Fatal(err)
	}

	cli, err := DialReconnecting([]string{srvA.Addr(), srvB.Addr()}, "c1", ReconnConfig{
		Redial: 20 * time.Millisecond,
		GiveUp: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	exchange := func(round int) {
		t.Helper()
		if err := cli.Send(ping("c1", "ua", round)); err != nil {
			t.Fatalf("round %d send: %v", round, err)
		}
		select {
		case env := <-uaInbox:
			if env.From != "c1" {
				t.Fatalf("round %d: ua saw sender %q", round, env.From)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d never reached the ua", round)
		}
		if err := inner.Send(ping("ua", "c1", round)); err != nil {
			t.Fatalf("round %d reply: %v", round, err)
		}
		select {
		case env := <-cli.Inbox():
			if env.From != "ua" {
				t.Fatalf("round %d: client saw sender %q", round, env.From)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d reply never reached the client", round)
		}
	}

	exchange(1)
	if cli.Addr() != srvA.Addr() {
		t.Fatalf("client on %s, want the primary %s", cli.Addr(), srvA.Addr())
	}

	// The primary dies. The client must resume on the standby under the
	// same name and finish the session.
	srvA.Close()
	deadline := time.Now().Add(5 * time.Second)
	for cli.Stats().Reconnects == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Re-registration on the shared bus can race the old connection's
	// unregister; the Reconn client keeps retrying through the list, so the
	// session continues as soon as the name frees up.
	waitDeadline := time.Now().Add(5 * time.Second)
	for {
		if err := cli.Send(ping("c1", "ua", 2)); err == nil {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatal("client never resumed sending after failover")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case <-uaInbox:
	case <-time.After(5 * time.Second):
		t.Fatal("post-failover envelope never reached the ua")
	}
	exchange(3)
	if cli.Addr() != srvB.Addr() {
		t.Fatalf("client on %s after failover, want the standby %s", cli.Addr(), srvB.Addr())
	}
	if cli.Stats().Reconnects < 1 {
		t.Fatalf("stats = %+v, want at least one reconnect", cli.Stats())
	}
}

// TestReconnectPropagatesTraceContext: a traced negotiation survives its
// transport dying mid-session. Every send attempt — delivered, refused while
// disconnected, or lost in flight when the primary dropped — is one child
// span of the same session trace, ended exactly once; after the Reconn
// client resumes on the standby, envelopes still carry the original trace id
// (so /trace stitches the session into one tree across the failover) under a
// fresh span id (a retry is a new attempt, not a replay of the old span).
func TestReconnectPropagatesTraceContext(t *testing.T) {
	tr := trace.Enable("bus-test", 256)
	defer trace.Disable()

	inner, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	srvA, err := ListenAndServe("127.0.0.1:0", inner)
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := ListenAndServe("127.0.0.1:0", inner)
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	uaInbox, err := inner.Register("ua", 16)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialReconnecting([]string{srvA.Addr(), srvB.Addr()}, "c1", ReconnConfig{
		Redial: 20 * time.Millisecond,
		GiveUp: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	root := trace.Root("session.negotiate")
	root.SetSession("s")
	ctx := root.Context()

	attempts := 0
	sendTraced := func(round int) error {
		attempts++
		sp := trace.Child(ctx, "bus.send")
		sp.SetAgent("c1")
		env := ping("c1", "ua", round)
		env.TraceID, env.SpanID = sp.Context().Trace, sp.Context().Span
		err := cli.Send(env)
		sp.End() // ended on failure too: a refused send must not leak its span
		return err
	}
	recv := func(why string) message.Envelope {
		t.Helper()
		select {
		case env := <-uaInbox:
			return env
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: envelope never reached the ua", why)
			return message.Envelope{}
		}
	}

	if err := sendTraced(1); err != nil {
		t.Fatal(err)
	}
	env1 := recv("round 1")
	if env1.TraceID != ctx.Trace || env1.SpanID == 0 {
		t.Fatalf("round 1 arrived with trace %x span %x, want trace %x", env1.TraceID, env1.SpanID, ctx.Trace)
	}

	// The primary dies with the next frame in flight: this send races the
	// close, so it is delivered, cut mid-frame, or refused — all three must
	// leave exactly one ended span behind.
	go srvA.Close()
	if sendTraced(2) == nil {
		select {
		case <-uaInbox:
		case <-time.After(200 * time.Millisecond):
			// Accepted by the dying connection but never delivered.
		}
	}

	// Resume on the standby: retry until a send is both accepted and
	// delivered. Refused attempts still record their spans.
	deadline := time.Now().Add(5 * time.Second)
	var env2 message.Envelope
	for {
		if time.Now().After(deadline) {
			t.Fatal("client never resumed traced sends after failover")
		}
		if sendTraced(3) != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		select {
		case env2 = <-uaInbox:
		case <-time.After(500 * time.Millisecond):
			continue // accepted but lost in the failover window; retry
		}
		break
	}
	if env2.TraceID != ctx.Trace {
		t.Fatalf("post-failover envelope carries trace %x, want %x: trace id lost across reconnect", env2.TraceID, ctx.Trace)
	}
	if env2.SpanID == env1.SpanID {
		t.Fatalf("post-failover envelope reused span %x: a retry must be a fresh span", env2.SpanID)
	}
	root.End()

	// Ring accounting: every attempt ended exactly once (attempts + the root;
	// fewer = a leaked span, more = a double record), no span id twice.
	recs := tr.Records(trace.Filter{Trace: fmt.Sprintf("%016x", ctx.Trace)})
	if len(recs) != attempts+1 {
		t.Fatalf("ring holds %d spans for the session trace, want %d (%d sends + root)", len(recs), attempts+1, attempts)
	}
	rootHex := fmt.Sprintf("%016x", ctx.Span)
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		if seen[r.Span] {
			t.Fatalf("span %s recorded twice", r.Span)
		}
		seen[r.Span] = true
		if r.Name == "bus.send" && r.Parent != rootHex {
			t.Fatalf("send span %s has parent %s, want the session root %s", r.Span, r.Parent, rootHex)
		}
	}
	if _, dropped := tr.Stats(); dropped != 0 {
		t.Fatalf("trace ring dropped %d spans", dropped)
	}
}

// TestReconnGivesUpWhenNobodyAnswers: a dead list ends the session instead
// of spinning forever — the Inbox closes.
func TestReconnGivesUpWhenNobodyAnswers(t *testing.T) {
	inner, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenAndServe("127.0.0.1:0", inner)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialReconnecting([]string{srv.Addr()}, "c1", ReconnConfig{
		Redial: 10 * time.Millisecond,
		GiveUp: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv.Close()
	inner.Close()
	select {
	case _, ok := <-waitClosed(cli.Inbox()):
		if ok {
			t.Fatal("inbox delivered instead of closing")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("inbox never closed after give-up")
	}
}

// TestReconnCloseEndsTheRedialPause: a server that closes right after its
// last frame leaves the client pausing between dial rounds; Close must end
// that pause at once instead of sitting it out.
func TestReconnCloseEndsTheRedialPause(t *testing.T) {
	inner, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	srv, err := ListenAndServe("127.0.0.1:0", inner)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialReconnecting([]string{srv.Addr()}, "c1", ReconnConfig{Redial: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// Give the first dial round time to fail against the closed listener; if
	// Close comes first instead, it must be just as quick.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	cli.Close()
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %v: it sat out the redial pause", d)
	}
}

// waitClosed drains a channel until it closes, forwarding the closed state.
func waitClosed(in <-chan message.Envelope) <-chan message.Envelope {
	out := make(chan message.Envelope)
	go func() {
		for range in {
		}
		close(out)
	}()
	return out
}

// TestSplitAddrList covers the flag-level dial list parser.
func TestSplitAddrList(t *testing.T) {
	got := SplitAddrList(" a:1, b:2 ,,c:3 ")
	want := []string{"a:1", "b:2", "c:3"}
	if len(got) != len(want) {
		t.Fatalf("SplitAddrList = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SplitAddrList = %v, want %v", got, want)
		}
	}
	if SplitAddrList("") != nil {
		t.Fatal("empty list must parse to nil")
	}
}

package bus

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"loadbalance/internal/message"
)

func env(t *testing.T, from, to string) message.Envelope {
	t.Helper()
	e, err := message.NewEnvelope(from, to, "s1", message.CutDownBid{Round: 1, CutDown: 0.2})
	if err != nil {
		t.Fatalf("NewEnvelope: %v", err)
	}
	return e
}

func TestInProcPointToPoint(t *testing.T) {
	b, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	inbox, err := b.Register("ua", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Register("c1", 4); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(env(t, "c1", "ua")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got := <-inbox
	if got.From != "c1" || got.To != "ua" {
		t.Fatalf("envelope = %+v", got)
	}
	st := b.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInProcBroadcastExcludesSender(t *testing.T) {
	b, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	uaBox, err := b.Register("ua", 4)
	if err != nil {
		t.Fatal(err)
	}
	c1Box, err := b.Register("c1", 4)
	if err != nil {
		t.Fatal(err)
	}
	c2Box, err := b.Register("c2", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send(env(t, "ua", "")); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	if got := <-c1Box; got.To != "c1" {
		t.Fatalf("c1 envelope To = %q, want concretised recipient", got.To)
	}
	if got := <-c2Box; got.To != "c2" {
		t.Fatalf("c2 envelope To = %q", got.To)
	}
	select {
	case e := <-uaBox:
		t.Fatalf("sender received its own broadcast: %+v", e)
	default:
	}
	if st := b.Stats(); st.Delivered != 2 {
		t.Fatalf("delivered = %d, want 2", st.Delivered)
	}
}

func TestInProcRegistrationErrors(t *testing.T) {
	b, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Register("", 1); !errors.Is(err, ErrUnknownAgent) {
		t.Fatalf("empty name error = %v", err)
	}
	if _, err := b.Register("ua", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Register("ua", 1); !errors.Is(err, ErrDuplicateAgent) {
		t.Fatalf("duplicate error = %v", err)
	}
	if err := b.Send(env(t, "ua", "ghost")); !errors.Is(err, ErrUnknownAgent) {
		t.Fatalf("unknown recipient error = %v", err)
	}
}

func TestInProcInboxFull(t *testing.T) {
	b, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Register("ua", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Register("c1", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(env(t, "c1", "ua")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(env(t, "c1", "ua")); !errors.Is(err, ErrInboxFull) {
		t.Fatalf("full inbox error = %v", err)
	}
	if st := b.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
}

func TestInProcUnregisterClosesInbox(t *testing.T) {
	b, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	inbox, err := b.Register("ua", 1)
	if err != nil {
		t.Fatal(err)
	}
	b.Unregister("ua")
	if _, open := <-inbox; open {
		t.Fatal("inbox should be closed after Unregister")
	}
	if got := b.Agents(); len(got) != 0 {
		t.Fatalf("agents = %v, want empty", got)
	}
}

func TestInProcDropRate(t *testing.T) {
	b, err := NewInProc(Config{DropRate: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	inbox, err := b.Register("ua", 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Register("c1", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := b.Send(env(t, "c1", "ua")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	select {
	case e := <-inbox:
		t.Fatalf("message delivered despite drop rate 1: %+v", e)
	default:
	}
	if st := b.Stats(); st.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", st.Dropped)
	}
}

func TestInProcDropRateValidation(t *testing.T) {
	if _, err := NewInProc(Config{DropRate: 1.5}); err == nil {
		t.Fatal("drop rate > 1 should fail")
	}
	if _, err := NewInProc(Config{DropRate: -0.1}); err == nil {
		t.Fatal("negative drop rate should fail")
	}
}

func TestInProcDropDeterminism(t *testing.T) {
	run := func() Stats {
		b, err := NewInProc(Config{DropRate: 0.5, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if _, err := b.Register("ua", 64); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Register("c1", 1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			_ = b.Send(env(t, "c1", "ua"))
		}
		return b.Stats()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different stats: %+v vs %+v", a, b)
	}
}

// TestBroadcastRosterTracksMembership drives a seeded interleaving of
// Register, Unregister and broadcast over 64 names against the sorted roster
// the bus caches. Which inbox an envelope reached is visible directly; the
// order the recipients were visited in is visible through the fault
// injection, which draws once per delivery: a model generator on the bus's
// seed, stepped over sort(live names) − sender, must predict every drop.
func TestBroadcastRosterTracksMembership(t *testing.T) {
	const names, steps, dropRate, seed = 64, 2000, 0.3, 11
	b, err := NewInProc(Config{DropRate: dropRate, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	model := rand.New(rand.NewSource(seed))
	ops := rand.New(rand.NewSource(seed + 1))
	name := func(i int) string { return fmt.Sprintf("n%02d", i) }
	live := make(map[string]<-chan message.Envelope)
	for step := 0; step < steps; step++ {
		if n := name(ops.Intn(names)); live[n] != nil {
			b.Unregister(n)
			delete(live, n)
		} else if live[n], err = b.Register(n, 1); err != nil {
			t.Fatal(err)
		}
		if ops.Intn(4) == 0 {
			continue // several membership changes between two broadcasts
		}
		sender := name(ops.Intn(names)) // registered or not
		if err := b.Send(env(t, sender, "")); err != nil {
			t.Fatalf("step %d: broadcast: %v", step, err)
		}
		want := make([]string, 0, len(live))
		for n := range live {
			want = append(want, n)
		}
		sort.Strings(want)
		if got := b.Agents(); !slices.Equal(got, want) {
			t.Fatalf("step %d: Agents() = %v, want %v", step, got, want)
		}
		for _, n := range want {
			if n == sender {
				continue
			}
			dropped := model.Float64() < dropRate
			select {
			case e := <-live[n]:
				if dropped || e.To != n || e.From != sender {
					t.Fatalf("step %d: %s received %+v (dropped by the model: %v)", step, n, e, dropped)
				}
			default:
				if !dropped {
					t.Fatalf("step %d: %s received nothing, the model delivers", step, n)
				}
			}
		}
		if box, ok := live[sender]; ok && len(box) != 0 {
			t.Fatalf("step %d: sender %s received its own broadcast", step, sender)
		}
	}
	if st := b.Stats(); st.Rejected != 0 || st.Dropped == 0 || st.Delivered == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSteadyStateBroadcastAllocs: with the membership unchanged a broadcast
// to 64 inboxes allocates nothing (it built and sorted a 64-name slice per
// TestAwaitNames: the wait ends on the registration change that completes
// it — names arriving from several goroutines, then leaving — and a wait that
// cannot complete ends with ctx, counting the names still missing.
func TestAwaitNames(t *testing.T) {
	b, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	names := []string{"a", "b", "c"}
	errc := make(chan error, len(names))
	for _, n := range names {
		go func(n string) {
			_, err := b.Register(n, 1)
			errc <- err
		}(n)
	}
	if err := b.AwaitNames(context.Background(), names, true); err != nil {
		t.Fatal(err)
	}
	for range names {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range names {
		go b.Unregister(n)
	}
	if err := b.AwaitNames(context.Background(), names, false); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := b.Register("a", 1); err != nil {
		t.Fatal(err)
	}
	err = b.AwaitNames(ctx, names, true)
	if !errors.Is(err, context.DeadlineExceeded) || err.Error() != "bus: 2 of 3 agents not registered: context deadline exceeded" {
		t.Fatalf("AwaitNames past its deadline = %v", err)
	}
}

// call before the roster was cached).
func TestSteadyStateBroadcastAllocs(t *testing.T) {
	b, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var boxes [64]<-chan message.Envelope
	for i := range boxes {
		if boxes[i], err = b.Register(fmt.Sprintf("c%02d", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	e := env(t, "ua", "")
	got := testing.AllocsPerRun(100, func() {
		if err := b.Send(e); err != nil {
			t.Error(err)
		}
		for _, box := range boxes {
			<-box
		}
	})
	if got != 0 {
		t.Fatalf("a steady-state broadcast allocates %v times, want 0", got)
	}
}

func TestInProcClose(t *testing.T) {
	b, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	inbox, err := b.Register("ua", 1)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	b.Close() // idempotent
	if _, open := <-inbox; open {
		t.Fatal("inbox should close on bus close")
	}
	if err := b.Send(env(t, "x", "ua")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close error = %v", err)
	}
	if _, err := b.Register("y", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close error = %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	inner, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	uaBox, err := inner.Register("ua", 16)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := ListenAndServe("127.0.0.1:0", inner)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr(), "c1")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Client -> server-side local agent.
	if err := cli.Send(env(t, "c1", "ua")); err != nil {
		t.Fatalf("client send: %v", err)
	}
	select {
	case got := <-uaBox:
		if got.From != "c1" || got.To != "ua" {
			t.Fatalf("server got %+v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout waiting for client->server delivery")
	}

	// Local agent -> remote client (must wait for registration to complete,
	// which has already happened because the inbound message arrived).
	reply, err := message.NewEnvelope("ua", "c1", "s1", message.Award{Round: 1, CutDown: 0.2, Reward: 8.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := inner.Send(reply); err != nil {
		t.Fatalf("server send: %v", err)
	}
	select {
	case got := <-cli.Inbox():
		if got.Kind != message.KindAward {
			t.Fatalf("client got %+v", got)
		}
		p, err := got.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if a := p.(message.Award); a.Reward != 8.5 {
			t.Fatalf("award = %+v", a)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout waiting for server->client delivery")
	}
}

func TestTCPBroadcastReachesRemoteAgents(t *testing.T) {
	inner, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	if _, err := inner.Register("ua", 16); err != nil {
		t.Fatal(err)
	}
	srv, err := ListenAndServe("127.0.0.1:0", inner)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c1, err := Dial(srv.Addr(), "c1")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(srv.Addr(), "c2")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// Wait until both remote agents are registered on the inner bus.
	deadline := time.After(2 * time.Second)
	for len(inner.Agents()) < 3 {
		select {
		case <-deadline:
			t.Fatalf("agents never registered: %v", inner.Agents())
		case <-time.After(5 * time.Millisecond):
		}
	}

	bcast, err := message.NewEnvelope("ua", "", "s1", message.SessionEnd{Round: 1, Reason: "done"})
	if err != nil {
		t.Fatal(err)
	}
	if err := inner.Send(bcast); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	for i, cli := range []*Client{c1, c2} {
		select {
		case got := <-cli.Inbox():
			if got.Kind != message.KindSessionEnd {
				t.Fatalf("client %d got %+v", i, got)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("client %d timeout", i)
		}
	}
}

func TestTCPClientIdentityIsForced(t *testing.T) {
	inner, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	uaBox, err := inner.Register("ua", 16)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenAndServe("127.0.0.1:0", inner)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr(), "c1")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	spoofed := env(t, "someoneelse", "ua")
	if err := cli.Send(spoofed); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-uaBox:
		if got.From != "c1" {
			t.Fatalf("spoofed From survived: %q", got.From)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}
}

func TestTCPClientCloseIsIdempotent(t *testing.T) {
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
	cli, err := Dial(srv.Addr(), "c1")
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
	cli.Close()
	if err := cli.Send(env(t, "c1", "ua")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close error = %v", err)
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", ""); !errors.Is(err, ErrUnknownAgent) {
		t.Fatalf("empty name error = %v", err)
	}
}

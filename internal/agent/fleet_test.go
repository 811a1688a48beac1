package agent

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"loadbalance/internal/bus"
	"loadbalance/internal/message"
	"loadbalance/internal/trace"
)

// hosting is one of the two ways the model test hosts the same names: a
// goroutine and an inbox each (Start), or one Fleet.
type hosting func(t *testing.T, b bus.Bus, names []string, handlers []Handler, inbox int) (stop func())

// channelOnly hides every method of a bus but the Bus interface's, so Start
// takes the inbox channel the bus hands out, as over TCP.
type channelOnly struct{ bus.Bus }

// hostedByStart hosts each name by Start on an inbox channel of its own: the
// goroutine-per-agent loop the fleet replaced.
func hostedByStart(t *testing.T, b bus.Bus, names []string, handlers []Handler, inbox int) func() {
	rts := make([]*Runtime, len(names))
	for i, n := range names {
		var err error
		if rts[i], err = Start(n, channelOnly{b}, handlers[i], inbox); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		for _, rt := range rts {
			rt.Stop()
		}
	}
}

func hostedByFleet(t *testing.T, b bus.Bus, names []string, handlers []Handler, inbox int) func() {
	f, err := StartFleet(b, names, handlers, inbox)
	if err != nil {
		t.Fatal(err)
	}
	return f.Stop
}

// TestFleetEqualsStartedRuntimes drives one seeded sequence of targeted
// sends, SendTo fan-outs and broadcasts, at DropRate 0.3, at twelve names
// hosted as a Fleet and at the same names hosted by twelve Start runtimes,
// each reading an inbox channel, on a bus of the same seed. Each step waits
// until what it delivered is handled, so neither hosting falls behind; then
// one member's handler is held inside
// an envelope while ten more are sent to it, so it falls more than its inbox
// of four behind. Every send must return the same error, every member must
// have handled the same envelopes in the same order, and the Stats — the
// Rejected count of the held member included — must be the same.
func TestFleetEqualsStartedRuntimes(t *testing.T) {
	const members, inbox, steps, dropRate, seed = 12, 4, 600, 0.3, 5
	names := make([]string, members)
	for i := range names {
		names[i] = fmt.Sprintf("c%02d", (i*5)%members) // not in sorted order
	}
	type result struct {
		handled [][]string
		errs    []string
		stats   bus.Stats
	}
	run := func(host hosting) result {
		b, err := bus.NewInProc(bus.Config{DropRate: dropRate, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		var (
			mu      sync.Mutex
			res     = result{handled: make([][]string, members)}
			done    = make(chan struct{}, 16*members) // one token per handled envelope
			entered = make(chan struct{})
			gate    = make(chan struct{})
		)
		handlers := make([]Handler, members)
		for i := range handlers {
			handlers[i] = HandlerFuncs{Message: func(rt *Runtime, env message.Envelope) error {
				if rt.Name() != names[i] || env.To != names[i] {
					t.Errorf("member %d (%s) was handed %+v on runtime %s", i, names[i], env, rt.Name())
				}
				if env.Session == "hold" {
					entered <- struct{}{}
					<-gate
				}
				mu.Lock()
				res.handled[i] = append(res.handled[i], fmt.Sprintf("%s %s %s %s", env.From, env.Session, env.Kind, payloadSeen(env)))
				mu.Unlock()
				done <- struct{}{}
				return nil
			}}
		}
		stop := host(t, b, names, handlers, inbox)
		defer stop()
		sender, err := Start("ua", b, HandlerFuncs{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer sender.Stop()

		delivered := 0
		note := func(err error) {
			res.errs = append(res.errs, fmt.Sprint(err))
		}
		settle := func() { // until everything delivered so far is handled
			for now := b.Stats().Delivered; delivered < now; delivered++ {
				<-done
			}
		}
		ops := rand.New(rand.NewSource(seed + 1))
		for step := 0; step < steps; step++ {
			switch op := ops.Intn(6); {
			case op < 3:
				note(sender.Send(names[ops.Intn(members)], "s1", message.CutDownBid{Round: step + 1, CutDown: 0.2}))
			case op < 5:
				to := make([]string, 1+ops.Intn(4)) // a member at most four times
				for i := range to {
					to[i] = names[ops.Intn(members)]
				}
				note(sender.SendAllCtx(trace.Context{}, to, "s1", message.SessionEnd{Round: step + 1, Reason: "fan-out"}))
			default:
				note(sender.Broadcast("s1", message.SessionEnd{Round: step + 1, Reason: "broadcast"}))
			}
			settle()
		}

		// Hold one member inside a handler and send past its inbox. The
		// envelope that holds it must not be one the bus loses.
		held := names[ops.Intn(members)]
		for before := b.Stats().Delivered; b.Stats().Delivered == before; {
			note(sender.Send(held, "hold", message.CutDownBid{Round: 1, CutDown: 0.1}))
		}
		<-entered
		for i := 0; i < 6; i++ {
			note(sender.Send(held, "s2", message.CutDownBid{Round: i + 1, CutDown: 0.3}))
		}
		note(sender.SendAllCtx(trace.Context{}, []string{held, held, held, held}, "s2", message.SessionEnd{Round: 7, Reason: "behind"}))
		close(gate)
		settle()
		res.stats = b.Stats()
		return res
	}
	want, got := run(hostedByStart), run(hostedByFleet)
	if got.stats != want.stats {
		t.Errorf("fleet stats %+v, started runtimes %+v", got.stats, want.stats)
	}
	if !slices.Equal(got.errs, want.errs) {
		t.Errorf("fleet sends returned\n%v\nstarted runtimes\n%v", got.errs, want.errs)
	}
	if !reflect.DeepEqual(got.handled, want.handled) {
		t.Errorf("fleet members handled\n%v\nstarted runtimes\n%v", got.handled, want.handled)
	}
	if want.stats.Rejected == 0 || want.stats.Dropped == 0 {
		t.Fatalf("the sequence is not the case under test: %+v", want.stats)
	}
}

// TestQuiesceWaitsForEveryDelivery: Quiesce returns only once every envelope
// the bus delivered to the fleet is handled, the ones a handler's own send
// caused included — each member passes what it receives on to the next, so
// one send is a chain the length of the fleet.
func TestQuiesceWaitsForEveryDelivery(t *testing.T) {
	const members, rounds = 32, 50
	b := newBus(t)
	names := make([]string, members)
	handlers := make([]Handler, members)
	var handled atomic.Int64
	for i := range names {
		names[i] = fmt.Sprintf("c%02d", i)
		handlers[i] = HandlerFuncs{Message: func(rt *Runtime, env message.Envelope) error {
			handled.Add(1)
			if env.Kind == message.KindCutDownBid && i+1 < members {
				return rt.Send(names[i+1], env.Session, message.CutDownBid{Round: i + 1, CutDown: 0.1})
			}
			return nil
		}}
	}
	f, err := StartFleet(b, names, handlers, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	ua, err := Start("ua", b, HandlerFuncs{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ua.Stop()
	for round := 0; round < rounds; round++ {
		if err := ua.Send(names[0], "s1", message.CutDownBid{Round: round + 1, CutDown: 0.1}); err != nil {
			t.Fatal(err)
		}
		if err := ua.Broadcast("s1", message.SessionEnd{Round: round + 1, Reason: "x"}); err != nil {
			t.Fatal(err)
		}
		f.Quiesce()
		if got, want := handled.Load(), int64((round+1)*2*members); got != want {
			t.Fatalf("round %d: Quiesce returned with %d of %d envelopes handled", round, got, want)
		}
	}
	if st := b.Stats(); st.Rejected != 0 || len(f.Errors()) != 0 {
		t.Fatalf("stats %+v, errors %v", st, f.Errors())
	}
}

// TestQuiesceReturnsAfterStop: a stopped fleet handles nothing more, and
// Quiesce does not wait for what it dropped; Stop is idempotent.
func TestQuiesceReturnsAfterStop(t *testing.T) {
	b := newBus(t)
	entered, gate := make(chan struct{}), make(chan struct{})
	var handled atomic.Int32
	f, err := StartFleet(b, []string{"c1"}, []Handler{HandlerFuncs{
		Message: func(rt *Runtime, env message.Envelope) error {
			if handled.Add(1) == 1 {
				close(entered)
				<-gate
			}
			return nil
		},
	}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	env, err := message.NewEnvelope("ua", "c1", "s1", message.SessionEnd{Round: 1, Reason: "x"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b.Send(env); err != nil {
			t.Fatal(err)
		}
	}
	<-entered // one envelope is in its handler, two are queued
	quiesced := make(chan struct{})
	go func() {
		f.Quiesce()
		close(quiesced)
	}()
	stopped := make(chan struct{})
	go func() {
		f.Stop()
		f.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a handler was still running")
	case <-time.After(10 * time.Millisecond):
	}
	close(gate)
	for _, ch := range []chan struct{}{stopped, quiesced} {
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Fatal("Stop or Quiesce did not return")
		}
	}
	f.Quiesce()
	if got := b.Agents(); len(got) != 0 {
		t.Fatalf("agents after Stop = %v", got)
	}
	if err := b.Send(env); !errors.Is(err, bus.ErrUnknownAgent) {
		t.Fatalf("send to a stopped fleet = %v", err)
	}
}

// TestTracedEnvelopePropagatesThroughFleet is the fleet twin of
// TestTracedEnvelopePropagatesThroughRuntime: a traced envelope to a member
// yields a handling span under the member's name, the member's reply carries
// that span, and a neighbour handled in between does not inherit it.
func TestTracedEnvelopePropagatesThroughFleet(t *testing.T) {
	tr := trace.Enable("test", 64)
	t.Cleanup(trace.Disable)
	b := newBus(t)
	replies, err := b.Register("sink", 8)
	if err != nil {
		t.Fatal(err)
	}
	reply := HandlerFuncs{Message: func(rt *Runtime, env message.Envelope) error {
		return rt.Send("sink", env.Session, message.CutDownBid{Round: 1, CutDown: 0.1})
	}}
	f, err := StartFleet(b, []string{"echo", "other"}, []Handler{reply, reply}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	root := tr.Root("session.open")
	traced, err := message.NewEnvelope("sink", "echo", "s1", message.SessionEnd{Round: 1, Reason: "x"})
	if err != nil {
		t.Fatal(err)
	}
	traced.TraceID, traced.SpanID = root.Context().Trace, root.Context().Span
	untraced, err := message.NewEnvelope("sink", "other", "s1", message.SessionEnd{Round: 1, Reason: "x"})
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range []message.Envelope{traced, untraced} {
		if err := b.Send(env); err != nil {
			t.Fatal(err)
		}
	}
	f.Quiesce() // the handling span has ended once its envelope is handled
	root.End()

	fromEcho, fromOther := <-replies, <-replies
	if fromEcho.From != "echo" || fromEcho.TraceID != root.Context().Trace ||
		fromEcho.SpanID == root.Context().Span || fromEcho.SpanID == 0 {
		t.Fatalf("echo's reply %+v should carry its handling span under trace %x", fromEcho, root.Context().Trace)
	}
	if fromOther.From != "other" || fromOther.Traced() {
		t.Fatalf("other's reply %+v should be untraced", fromOther)
	}
	var handle, open trace.Record
	for _, r := range tr.Records(trace.Filter{}) {
		switch r.Name {
		case "handle.session_end":
			handle = r
		case "session.open":
			open = r
		}
	}
	if handle.Agent != "echo" || handle.Session != "s1" || handle.Parent != open.Span || open.Span == "" {
		t.Fatalf("handling span %+v, want agent echo, session s1, parent %q", handle, open.Span)
	}
}

// TestStartFleetValidation: a fleet that cannot be hosted whole is not hosted
// at all — nothing registered, no worker.
func TestStartFleetValidation(t *testing.T) {
	b := newBus(t)
	if _, err := b.Register("c2", 1); err != nil {
		t.Fatal(err)
	}
	h := HandlerFuncs{}
	for name, tc := range map[string]struct {
		b        bus.Bus
		names    []string
		handlers []Handler
		inbox    int
		want     error
	}{
		"nil handler":   {b, []string{"c1", "c3"}, []Handler{h, nil}, 4, ErrNilHandler},
		"taken name":    {b, []string{"c1", "c2"}, []Handler{h, h}, 4, bus.ErrDuplicateAgent},
		"no groups":     {struct{ bus.Bus }{b}, []string{"c1"}, []Handler{h}, 4, bus.ErrNoGroups},
		"length":        {b, []string{"c1", "c3"}, []Handler{h}, 4, nil},
		"no inbox size": {b, []string{"c1"}, []Handler{h}, 0, nil},
	} {
		f, err := StartFleet(tc.b, tc.names, tc.handlers, tc.inbox)
		if err == nil || f != nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Fatalf("%s: StartFleet = %v, %v; want %v", name, f, err, tc.want)
		}
		if got := b.Agents(); !slices.Equal(got, []string{"c2"}) {
			t.Fatalf("%s: a refused fleet left %v registered", name, got)
		}
	}
}

// TestFleetStartHooksAndErrors: the worker runs every OnStart, in member
// order, before the first message; a member whose start failed handles
// nothing, the others go on; Errors lists members in the order given, each
// with the text a started runtime records.
func TestFleetStartHooksAndErrors(t *testing.T) {
	b := newBus(t)
	var order []string
	member := func(name string, startErr, handleErr error) Handler {
		return HandlerFuncs{
			Start: func(rt *Runtime) error {
				order = append(order, "start "+rt.Name())
				return startErr
			},
			Message: func(rt *Runtime, env message.Envelope) error {
				order = append(order, "handle "+rt.Name())
				return handleErr
			},
		}
	}
	boom := errors.New("boom")
	f, err := StartFleet(b, []string{"c3", "c1", "c2"},
		[]Handler{member("c3", nil, boom), member("c1", boom, nil), member("c2", nil, boom)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	env, err := message.NewEnvelope("ua", "", "s1", message.SessionEnd{Round: 1, Reason: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send(env); err != nil {
		t.Fatal(err)
	}
	f.Quiesce()
	if want := []string{"start c3", "start c1", "start c2", "handle c2", "handle c3"}; !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	var got []string
	for _, err := range f.Errors() {
		if !errors.Is(err, boom) {
			t.Fatalf("recorded %v", err)
		}
		got = append(got, err.Error())
	}
	want := []string{
		`agent "c3": handle session_end from "ua": boom`,
		`agent "c1": start: boom`,
		`agent "c2": handle session_end from "ua": boom`,
	}
	if !slices.Equal(got, want) {
		t.Fatalf("errors %q, want %q", got, want)
	}
}

// TestStopAndWaitOnAFleetMember: a member's *Runtime has no goroutine or stop
// channel of its own. Wait returns at once; Stop takes that member's name off
// the bus, leaves the others hosted, and is safe from inside a handler.
func TestStopAndWaitOnAFleetMember(t *testing.T) {
	b := newBus(t)
	var handled []string
	h := HandlerFuncs{Message: func(rt *Runtime, env message.Envelope) error {
		handled = append(handled, rt.Name())
		if rt.Name() == "c2" {
			rt.Wait()
			rt.Stop()
			rt.Stop()
			rt.Wait()
		}
		return nil
	}}
	f, err := StartFleet(b, []string{"c1", "c2", "c3"}, []Handler{h, h, h}, 4)
	if err != nil {
		t.Fatal(err)
	}
	env, err := message.NewEnvelope("ua", "", "s1", message.SessionEnd{Round: 1, Reason: "x"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := b.Send(env); err != nil {
			t.Fatal(err)
		}
		f.Quiesce()
	}
	if want := []string{"c1", "c2", "c3", "c1", "c3"}; !slices.Equal(handled, want) {
		t.Fatalf("handled %v, want %v", handled, want)
	}
	if got := b.Agents(); !slices.Equal(got, []string{"c1", "c3"}) {
		t.Fatalf("agents after c2 stopped itself = %v", got)
	}
	f.Stop()
	if got := b.Agents(); len(got) != 0 {
		t.Fatalf("agents after the fleet stopped = %v", got)
	}
}

// TestFleetRunsEqualStartedRuntimes is TestFleetEqualsStartedRuntimes where
// the fleet's queue entries cover runs of members: the names are sorted, so a
// broadcast or a fan-out over a range of them is one send to consecutive
// members, and each burst is sent without settling while one member in the
// middle of the fleet is held inside a handler at its inbox bound. Everything
// the burst delivers waits in the fleet — several blocks of entries — and the
// held member's rejections and the bus's drops split the runs. Every member
// must handle what its Start-hosted twin handles, in the same order, every
// send must return the same error and the Stats must be the same, on every
// seed.
func TestFleetRunsEqualStartedRuntimes(t *testing.T) {
	// A member other than the held one gets at most two envelopes an op, so
	// ops bursts stay under its inbox and only the held member rejects.
	const members, inbox, bursts, ops, dropRate = 32, 128, 8, 60, 0.1
	names := make([]string, members)
	for i := range names {
		names[i] = fmt.Sprintf("c%02d", i)
	}
	type result struct {
		handled [][]string
		errs    []string
		stats   bus.Stats
	}
	run := func(t *testing.T, seed int64, host hosting, held func()) result {
		b, err := bus.NewInProc(bus.Config{DropRate: dropRate, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		var (
			mu      sync.Mutex
			res     = result{handled: make([][]string, members)}
			done    = make(chan struct{}, 1<<13) // one token per handled envelope
			entered = make(chan struct{})
			gate    = make(chan struct{})
		)
		handlers := make([]Handler, members)
		for i := range handlers {
			handlers[i] = HandlerFuncs{Message: func(rt *Runtime, env message.Envelope) error {
				if rt.Name() != names[i] || env.To != names[i] {
					t.Errorf("member %d (%s) was handed %+v on runtime %s", i, names[i], env, rt.Name())
				}
				if env.Session == "hold" {
					entered <- struct{}{}
					<-gate
				}
				mu.Lock()
				res.handled[i] = append(res.handled[i], fmt.Sprintf("%s %s %s %s", env.From, env.Session, env.Kind, payloadSeen(env)))
				mu.Unlock()
				done <- struct{}{}
				return nil
			}}
		}
		stop := host(t, b, names, handlers, inbox)
		defer stop()
		defer close(gate) // before stop: a failed burst leaves a member held
		sender, err := Start("ua", b, HandlerFuncs{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer sender.Stop()

		delivered := 0
		note := func(err error) {
			res.errs = append(res.errs, fmt.Sprint(err))
		}
		settle := func() {
			for now := b.Stats().Delivered; delivered < now; delivered++ {
				<-done
			}
		}
		rng := rand.New(rand.NewSource(seed + 1))
		for burst := 0; burst < bursts; burst++ {
			// Hold a member away from both ends inside a handler, and fill
			// its inbox: every run over it breaks there.
			k := names[1+rng.Intn(members-2)]
			for before := b.Stats().Delivered; b.Stats().Delivered == before; {
				note(sender.Send(k, "hold", message.CutDownBid{Round: burst + 1, CutDown: 0.1}))
			}
			<-entered
			for filled := b.Stats().Delivered + inbox; b.Stats().Delivered < filled; {
				note(sender.Send(k, "fill", message.CutDownBid{Round: burst + 1, CutDown: 0.2}))
			}
			for op := 0; op < ops; op++ {
				round := burst*ops + op + 1
				switch c := rng.Intn(4); c {
				case 0:
					note(sender.Send(names[rng.Intn(members)], "s1", message.CutDownBid{Round: round, CutDown: 0.3}))
				case 1, 2: // a range of members, one of them named twice
					lo := rng.Intn(members)
					hi := lo + 1 + rng.Intn(members-lo)
					to := slices.Clone(names[lo:hi])
					if c == 2 {
						to = slices.Insert(to, rng.Intn(len(to)), to[rng.Intn(len(to))])
					}
					note(sender.SendAllCtx(trace.Context{}, to, "s1", message.SessionEnd{Round: round, Reason: "fan-out"}))
				default:
					note(sender.Broadcast("s1", message.SessionEnd{Round: round, Reason: "broadcast"}))
				}
			}
			if held != nil {
				held()
			}
			gate <- struct{}{}
			settle()
		}
		res.stats = b.Stats()
		return res
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			var (
				f                     *Fleet
				mostWaiting, runsSeen int
			)
			want := run(t, seed, hostedByStart, nil)
			got := run(t, seed, func(t *testing.T, b bus.Bus, names []string, handlers []Handler, inbox int) func() {
				var err error
				if f, err = StartFleet(b, names, handlers, inbox); err != nil {
					t.Fatal(err)
				}
				return f.Stop
			}, func() {
				waiting, runs := queuedEntries(f)
				mostWaiting, runsSeen = max(mostWaiting, waiting), runsSeen+runs
			})
			if got.stats != want.stats {
				t.Errorf("fleet stats %+v, started runtimes %+v", got.stats, want.stats)
			}
			if !slices.Equal(got.errs, want.errs) {
				t.Errorf("fleet sends returned\n%v\nstarted runtimes\n%v", got.errs, want.errs)
			}
			if !reflect.DeepEqual(got.handled, want.handled) {
				t.Errorf("fleet members handled\n%v\nstarted runtimes\n%v", got.handled, want.handled)
			}
			if want.stats.Rejected == 0 || want.stats.Dropped == 0 || runsSeen == 0 || mostWaiting <= 3*blockLen {
				t.Fatalf("the sequence is not the case under test: %+v, %d runs, at most %d entries waiting (%d a block)",
					want.stats, runsSeen, mostWaiting, blockLen)
			}
			t.Logf("%+v; %d runs and at most %d entries waiting", want.stats, runsSeen, mostWaiting)
		})
	}
}

// queuedEntries counts the entries waiting in f's queue, and those of them
// that cover more than one member.
func queuedEntries(f *Fleet) (entries, runs int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	q := &f.queue
	for b, i := q.head, q.read; b != nil && (b != q.tail || i < q.write); {
		if d := &b.d[i]; d.last > d.first {
			runs++
		}
		entries++
		if i++; i == blockLen {
			b, i = b.next, 0
		}
	}
	return entries, runs
}

// TestMailboxCostsWhatWaits: a fleet's queue is as large as what has waited
// in it at once, allocated once. A fleet of one held inside a handler while
// 5 000 envelopes arrive allocates at most 1.1 deliveries' worth of bytes an
// envelope, and the next such burst nothing, since it reuses the blocks the
// first left behind (a ring that doubles allocates twice what waits, once per
// fleet of one: 2 047 slots to hold a concentrator's 625 bids). A fleet of
// 10 000 sent one fan-out queues it as one entry: beside its members, their
// counts and the bus's entries for their names it allocates one block (a
// queue that starts at the fleet's size takes 10 000 slots).
func TestMailboxCostsWhatWaits(t *testing.T) {
	t.Run("burst", func(t *testing.T) {
		const burst = 5000
		b := newBus(t)
		entered, gate := make(chan struct{}), make(chan struct{})
		rt, err := Start("ua", b, HandlerFuncs{Message: func(rt *Runtime, env message.Envelope) error {
			if env.Session == "hold" {
				entered <- struct{}{}
				<-gate
			}
			return nil
		}}, burst)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Stop()
		defer close(gate)
		hold, err := message.NewEnvelope("c1", "ua", "hold", message.SessionEnd{Round: 1, Reason: "x"})
		if err != nil {
			t.Fatal(err)
		}
		bid, err := message.NewEnvelope("c1", "ua", "s1", message.CutDownBid{Round: 1, CutDown: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		received := func() (bytes, mallocs uint64) {
			if err := b.Send(hold); err != nil {
				t.Fatal(err)
			}
			<-entered
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < burst; i++ {
				if err := b.Send(bid); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			gate <- struct{}{}
			rt.host.Quiesce()
			return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
		}
		first, _ := received()
		if limit := 1.1 * burst * float64(unsafe.Sizeof(delivery{})); float64(first) > limit {
			t.Errorf("%d envelopes waiting cost %d B, budget %.0f B (1.1 × %d B each)", burst, first, limit, unsafe.Sizeof(delivery{}))
		}
		if again, mallocs := received(); again != 0 || mallocs != 0 {
			t.Errorf("the second burst of %d allocated %d B in %d allocations, want none", burst, again, mallocs)
		}
		t.Logf("%d waiting envelopes: %d B (%.0f B each)", burst, first, float64(first)/burst)
	})
	t.Run("fan-out", func(t *testing.T) {
		const n = 10000
		names := make([]string, n)
		handlers := make([]Handler, n)
		for i := range names {
			names[i] = fmt.Sprintf("c%05d", i)
			handlers[i] = HandlerFuncs{}
		}
		allocated := func(fn func()) uint64 { // bytes
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fn()
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		// The bus's entries for n names, without a fleet behind them.
		plain := newBus(t)
		if _, err := plain.Register("ua", 1); err != nil {
			t.Fatal(err)
		}
		busNames := allocated(func() {
			if _, err := bus.RegisterGroup(plain, names, func(int, message.Envelope) bool { return true }, nil); err != nil {
				t.Fatal(err)
			}
		})
		b := newBus(t)
		ua, err := Start("ua", b, HandlerFuncs{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer ua.Stop()
		var f *Fleet
		hosted := allocated(func() {
			if f, err = StartFleet(b, names, handlers, 4); err != nil {
				t.Fatal(err)
			}
			if err := ua.SendAllCtx(trace.Context{}, names, "s1", message.SessionEnd{Round: 1, Reason: "x"}); err != nil {
				t.Fatal(err)
			}
			f.Quiesce()
		})
		defer f.Stop()
		members := uint64(n * (unsafe.Sizeof(Runtime{}) + unsafe.Sizeof(0)))
		queue := int64(hosted) - int64(busNames) - int64(members)
		if blockBytes := int64(unsafe.Sizeof(block{})); queue > 2*blockBytes {
			t.Errorf("a fan-out to %d members cost the fleet %d B beyond its members (%d B) and names (%d B), budget one block (%d B) and change",
				n, queue, members, busNames, blockBytes)
		}
		t.Logf("fleet of %d, one fan-out: %d B beyond members and names", n, queue)
	})
}

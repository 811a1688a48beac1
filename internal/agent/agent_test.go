package agent

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"loadbalance/internal/bus"
	"loadbalance/internal/message"
	"loadbalance/internal/units"
)

// payloadSeen is what a handler can tell of an envelope's payload: the value
// Decode returns, printed. (An envelope built in process has no Body to
// compare, so a differential test that recorded Body would compare nothing.)
func payloadSeen(env message.Envelope) string {
	p, err := env.Decode()
	if err != nil {
		return "undecodable: " + err.Error()
	}
	return fmt.Sprintf("%#v", p)
}

func newBus(t *testing.T) *bus.InProc {
	t.Helper()
	b, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

func TestStartValidation(t *testing.T) {
	b := newBus(t)
	if _, err := Start("a", b, nil, 4); !errors.Is(err, ErrNilHandler) {
		t.Fatalf("nil handler error = %v", err)
	}
	rt, err := Start("a", b, HandlerFuncs{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if _, err := Start("a", b, HandlerFuncs{}, 4); !errors.Is(err, bus.ErrDuplicateAgent) {
		t.Fatalf("duplicate registration error = %v", err)
	}
	if rt.Name() != "a" {
		t.Fatalf("name = %q", rt.Name())
	}
}

func TestOnStartRunsBeforeMessages(t *testing.T) {
	b := newBus(t)
	started := make(chan struct{})
	echo, err := Start("echo", b, HandlerFuncs{
		Start: func(rt *Runtime) error {
			close(started)
			return nil
		},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Stop()
	select {
	case <-started:
	case <-time.After(2 * time.Second):
		t.Fatal("OnStart never ran")
	}
}

func TestMessageRoundTripBetweenAgents(t *testing.T) {
	b := newBus(t)
	got := make(chan message.Envelope, 1)

	// Responder echoes any cut-down bid back as an award.
	responder, err := Start("ua", b, HandlerFuncs{
		Message: func(rt *Runtime, env message.Envelope) error {
			p, err := env.Decode()
			if err != nil {
				return err
			}
			bid, ok := p.(message.CutDownBid)
			if !ok {
				return nil
			}
			return rt.Send(env.From, env.Session, message.Award{
				Round: bid.Round, CutDown: bid.CutDown, Reward: 17,
			})
		},
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer responder.Stop()

	sender, err := Start("c1", b, HandlerFuncs{
		Start: func(rt *Runtime) error {
			return rt.Send("ua", "s1", message.CutDownBid{Round: 1, CutDown: 0.4})
		},
		Message: func(rt *Runtime, env message.Envelope) error {
			got <- env
			return nil
		},
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Stop()

	select {
	case env := <-got:
		if env.Kind != message.KindAward {
			t.Fatalf("kind = %v", env.Kind)
		}
		p, err := env.Decode()
		if err != nil {
			t.Fatal(err)
		}
		award := p.(message.Award)
		if !units.NearlyEqual(award.CutDown, 0.4, 1e-12) || award.Reward != 17 {
			t.Fatalf("award = %+v", award)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no award received")
	}
}

func TestBroadcastFromAgent(t *testing.T) {
	b := newBus(t)
	var count atomic.Int32
	for _, name := range []string{"c1", "c2", "c3"} {
		rt, err := Start(name, b, HandlerFuncs{
			Message: func(rt *Runtime, env message.Envelope) error {
				count.Add(1)
				return nil
			},
		}, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Stop()
	}
	ua, err := Start("ua", b, HandlerFuncs{
		Start: func(rt *Runtime) error {
			return rt.Broadcast("s1", message.SessionEnd{Round: 1, Reason: "test"})
		},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ua.Stop()

	deadline := time.After(2 * time.Second)
	for count.Load() < 3 {
		select {
		case <-deadline:
			t.Fatalf("broadcast reached %d of 3", count.Load())
		case <-time.After(time.Millisecond):
		}
	}
}

func TestHandlerErrorsAreRecorded(t *testing.T) {
	b := newBus(t)
	boom := errors.New("boom")
	rt, err := Start("ua", b, HandlerFuncs{
		Message: func(rt *Runtime, env message.Envelope) error { return boom },
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if _, err := b.Register("x", 1); err != nil {
		t.Fatal(err)
	}
	env, err := message.NewEnvelope("x", "ua", "s1", message.OfferReply{Round: 1, Accept: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send(env); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for len(rt.Errors()) == 0 {
		select {
		case <-deadline:
			t.Fatal("handler error never recorded")
		case <-time.After(time.Millisecond):
		}
	}
	if !errors.Is(rt.Errors()[0], boom) {
		t.Fatalf("recorded = %v", rt.Errors()[0])
	}
}

func TestStartErrorStopsLoop(t *testing.T) {
	b := newBus(t)
	rt, err := Start("ua", b, HandlerFuncs{
		Start: func(rt *Runtime) error { return errors.New("no start") },
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	rt.Wait() // loop must exit on its own
	if len(rt.Errors()) != 1 {
		t.Fatalf("errors = %v", rt.Errors())
	}
	rt.Stop() // still safe
}

func TestStopIsIdempotentAndUnregisters(t *testing.T) {
	b := newBus(t)
	rt, err := Start("ua", b, HandlerFuncs{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	rt.Stop()
	rt.Stop()
	if got := b.Agents(); len(got) != 0 {
		t.Fatalf("agents after stop = %v", got)
	}
}

// TestStopWaitAfterSelfExit covers the goroutine's two exits that no Stop
// asked for: Wait and any number of Stops must return after either.
func TestStopWaitAfterSelfExit(t *testing.T) {
	returns := func(t *testing.T, rt *Runtime) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			rt.Wait()
			rt.Stop()
			rt.Stop()
			rt.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("Wait/Stop did not return after the agent goroutine exited")
		}
	}
	t.Run("start error", func(t *testing.T) {
		rt, err := Start("ua", newBus(t), HandlerFuncs{
			Start: func(rt *Runtime) error { return errors.New("no start") },
		}, 4)
		if err != nil {
			t.Fatal(err)
		}
		returns(t, rt)
	})
	t.Run("inbox closed", func(t *testing.T) {
		b := newBus(t)
		rt, err := Start("ua", b, HandlerFuncs{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		b.Close()
		returns(t, rt)
	})
}

// TestRingMailboxMatchesChannel starts one recording agent by Start on an
// InProc, where its mailbox is a fleet-of-one ring, and one on the same bus
// behind a wrapper without groups, where it reads an inbox channel. One
// seeded sequence of bursts of up to bound sends, each burst waited out, must
// be handled in the same order. Then the agent is held inside a handler while bound+2 more are sent:
// on both, the first bound wait and the next two are Rejected with
// bus.ErrInboxFull, with equal Stats. Last its name is unregistered while
// those bound still wait: both handle them and end, and Wait returns.
func TestRingMailboxMatchesChannel(t *testing.T) {
	const bound, steps, seed = 3, 200, 9
	type result struct {
		handled []string
		errs    []string
		stats   bus.Stats
	}
	run := func(channel bool) result {
		b, err := bus.NewInProc(bus.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		var (
			res           result
			done                  = make(chan struct{}, steps+bound+1)
			entered, gate         = make(chan struct{}), make(chan struct{})
			host          bus.Bus = b
		)
		if channel {
			host = channelOnly{b}
		}
		rt, err := Start("rec", host, HandlerFuncs{
			Start: func(rt *Runtime) error {
				res.handled = append(res.handled, "start")
				return nil
			},
			Message: func(rt *Runtime, env message.Envelope) error {
				if env.Session == "hold" {
					entered <- struct{}{}
					<-gate
				}
				res.handled = append(res.handled, fmt.Sprintf("%s %s %s", env.Session, env.Kind, payloadSeen(env)))
				done <- struct{}{}
				return nil
			},
		}, bound)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Stop()
		send := func(session string, round int) {
			env, err := message.NewEnvelope("ua", "rec", session, message.CutDownBid{Round: round, CutDown: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			res.errs = append(res.errs, fmt.Sprint(b.Send(env)))
		}
		ops := rand.New(rand.NewSource(seed))
		delivered := 0
		for step := 0; step < steps; step++ {
			for burst := 1 + ops.Intn(bound); burst > 0; burst-- {
				send("s1", step+1)
			}
			for now := b.Stats().Delivered; delivered < now; delivered++ {
				<-done
			}
		}
		send("hold", 1)
		<-entered
		for i := 0; i < bound+2; i++ {
			send("s2", i+1)
		}
		b.Unregister("rec")
		close(gate)
		rt.Wait()
		res.stats = b.Stats()
		return res
	}
	ring, channel := run(false), run(true)
	if !slices.Equal(ring.handled, channel.handled) {
		t.Errorf("the ring handled\n%v\nthe channel\n%v", ring.handled, channel.handled)
	}
	if !slices.Equal(ring.errs, channel.errs) {
		t.Errorf("sends to the ring returned\n%v\nto the channel\n%v", ring.errs, channel.errs)
	}
	if ring.stats != channel.stats {
		t.Errorf("ring stats %+v, channel %+v", ring.stats, channel.stats)
	}
	full := fmt.Sprint(fmt.Errorf("%w: %q", bus.ErrInboxFull, "rec"))
	overflow, want := ring.errs[len(ring.errs)-bound-2:], []string{"<nil>", "<nil>", "<nil>", full, full}
	if !slices.Equal(overflow, want) {
		t.Errorf("a held agent's bound+2 sends returned %v, want %v", overflow, want)
	}
	if last := ring.handled[len(ring.handled)-1]; !strings.HasPrefix(last, "s2 ") {
		t.Errorf("the ring's last handled envelope is %q, want one of those waiting when its name went", last)
	}
}

// TestRuntimeSize: what a fleet member carries is its own state — Start's
// goroutine, inbox and stop channel live in the fleet of one it is given.
func TestRuntimeSize(t *testing.T) {
	var rt Runtime
	if size := unsafe.Sizeof(rt); size > 104 {
		t.Fatalf("a Runtime is %d B, budget 104", size)
	}
}

func TestModelResponseTracking(t *testing.T) {
	m := NewModel(2)
	if _, ok := m.ResponseRate("c1"); ok {
		t.Fatal("fresh model should have no rate")
	}
	if _, ok := m.OverallResponseRate(); ok {
		t.Fatal("fresh model should have no overall rate")
	}
	steps := []struct {
		peer     string
		positive bool
	}{
		{"c1", true}, {"c1", true}, {"c1", false},
		{"c2", true},
	}
	for _, s := range steps {
		m.RecordResponse(s.peer, s.positive)
	}
	rate, ok := m.ResponseRate("c1")
	if !ok || !units.NearlyEqual(rate, 2.0/3, 1e-12) {
		t.Fatalf("c1 rate = %v, %v", rate, ok)
	}
	rate, ok = m.ResponseRate("c2")
	if !ok || rate != 1 {
		t.Fatalf("c2 rate = %v, %v", rate, ok)
	}
	overall, ok := m.OverallResponseRate()
	if !ok || !units.NearlyEqual(overall, 3.0/4, 1e-12) {
		t.Fatalf("overall = %v, %v", overall, ok)
	}
}

func TestModelWorldValues(t *testing.T) {
	m := NewModel(0)
	if _, ok := m.WorldValue("temperature_c"); ok {
		t.Fatal("fresh model should have no world values")
	}
	m.SetWorldValue("temperature_c", -5)
	if v, ok := m.WorldValue("temperature_c"); !ok || v != -5 {
		t.Fatalf("value = %v, %v", v, ok)
	}
	// Overwrite replaces rather than accumulates, and touches no other topic.
	m.SetWorldValue("predicted_use_kwh", 120)
	m.SetWorldValue("temperature_c", 3)
	if v, _ := m.WorldValue("temperature_c"); v != 3 {
		t.Fatalf("value after overwrite = %v", v)
	}
	if v, ok := m.WorldValue("predicted_use_kwh"); !ok || v != 120 {
		t.Fatalf("other topic = %v, %v", v, ok)
	}
}

// TestModelZeroValue: a Model needs no constructor.
func TestModelZeroValue(t *testing.T) {
	var m Model
	if _, ok := m.ResponseRate("c1"); ok {
		t.Fatal("zero model should have no rate")
	}
	if _, ok := m.WorldValue("temperature_c"); ok {
		t.Fatal("zero model should have no world values")
	}
	m.RecordResponse("c1", true)
	m.RecordResponse("c1", false)
	m.SetWorldValue("temperature_c", -5)
	m.SetWorldValue("temperature_c", 3)
	if rate, ok := m.ResponseRate("c1"); !ok || rate != 0.5 {
		t.Fatalf("c1 rate = %v, %v", rate, ok)
	}
	if rate, ok := m.OverallResponseRate(); !ok || rate != 0.5 {
		t.Fatalf("overall = %v, %v", rate, ok)
	}
	if v, ok := m.WorldValue("temperature_c"); !ok || v != 3 {
		t.Fatalf("value = %v, %v", v, ok)
	}
}

// TestModelAllocs pins what a Utility Agent pays per bid: nothing, once the
// model is sized for its fleet.
func TestModelAllocs(t *testing.T) {
	const peers = 1000
	names := make([]string, peers)
	for i := range names {
		names[i] = "c" + strconv.Itoa(i)
	}
	// AllocsPerRun(1, f) calls f twice, a warm-up and the measured run; each
	// needs a model that has seen nobody.
	models := []*Model{NewModel(peers), NewModel(peers)}
	call := 0
	firstTime := testing.AllocsPerRun(1, func() {
		m := models[call]
		call++
		for _, n := range names {
			m.RecordResponse(n, true)
		}
	})
	if firstTime != 0 {
		t.Errorf("%d first-time peers on a model sized for them: %v allocs, want 0", peers, firstTime)
	}
	seen := testing.AllocsPerRun(100, func() { models[0].RecordResponse(names[7], false) })
	if seen != 0 {
		t.Errorf("RecordResponse for a seen peer: %v allocs, want 0", seen)
	}
}

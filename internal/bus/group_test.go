package bus

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"loadbalance/internal/message"
)

// groupModel is the sink the model test registers a group behind: per member
// a queue bounded like an inbox channel of that size, which is the whole
// contract a GroupSink has with the bus.
type groupModel struct {
	size   int
	queued [][]message.Envelope
}

func (g *groupModel) sink(member int, env message.Envelope) bool {
	if len(g.queued[member]) >= g.size {
		return false
	}
	g.queued[member] = append(g.queued[member], env)
	return true
}

// seen is an envelope reduced to what a recipient can tell apart.
func seen(e message.Envelope) string {
	p, err := e.Decode()
	return fmt.Sprintf("%s>%s %s %s %#v %v", e.From, e.To, e.Session, e.Kind, p, err)
}

// TestGroupEqualsRegisters drives one seeded sequence of targeted sends,
// SendTo fan-outs, broadcasts, receives and membership changes, at DropRate
// 0.3, over two buses on the same seed: one where sixteen names have an inbox
// of four each, one where the same names are a group behind a sink with room
// for four each. Every operation must return the same error, every name must
// receive the same envelopes in the same order, and the roster and the Stats
// — Rejected included, for names that fall more than four behind and names
// that are gone — must agree after every step.
func TestGroupEqualsRegisters(t *testing.T) {
	const members, size, steps, dropRate, seed = 16, 4, 4000, 0.3, 21
	names := make([]string, members)
	for i := range names {
		names[i] = fmt.Sprintf("c%02d", (i*7)%members) // not in sorted order
	}
	newBus := func() *InProc {
		b, err := NewInProc(Config{DropRate: dropRate, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Close)
		if _, err := b.Register("ua", 1); err != nil { // a plain name beside the hosted ones
			t.Fatal(err)
		}
		return b
	}
	plain, grouped := newBus(), newBus()
	boxes := make([]<-chan message.Envelope, members)
	for i, n := range names {
		var err error
		if boxes[i], err = plain.Register(n, size); err != nil {
			t.Fatal(err)
		}
	}
	model := &groupModel{size: size, queued: make([][]message.Envelope, members)}
	if _, err := RegisterGroup(grouped, names, model.sink, nil); err != nil {
		t.Fatal(err)
	}

	got := make([][]string, members)  // what each member took from the group's sink
	want := make([][]string, members) // what it took from its inbox
	ops := rand.New(rand.NewSource(seed + 1))
	gone := make(map[int]bool)
	for step := 0; step < steps; step++ {
		// Every bid is another payload, so a bus that delivered one send's
		// payload with another's routing could not pass.
		bid := func(from, to string) message.Envelope {
			e, err := message.NewEnvelope(from, to, "s1", message.CutDownBid{Round: step + 1, CutDown: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		var errPlain, errGrouped error
		switch op := ops.Intn(10); {
		case op < 4: // a member or the UA sends to a member, hosted or gone
			e := bid(names[ops.Intn(members)], names[ops.Intn(members)])
			if ops.Intn(3) == 0 {
				e.From = "ua"
			}
			errPlain, errGrouped = plain.Send(e), grouped.Send(e)
		case op < 6: // one envelope to a list with repeats and a stranger
			to := make([]string, 1+ops.Intn(6))
			for i := range to {
				to[i] = names[ops.Intn(members)]
			}
			if ops.Intn(4) == 0 {
				to[ops.Intn(len(to))] = "ghost"
			}
			e := tableEnv(t, "ua")
			errPlain, errGrouped = SendTo(plain, e, to), SendTo(grouped, e, to)
		case op < 7:
			e := bid("ua", "")
			errPlain, errGrouped = plain.Send(e), grouped.Send(e)
		case op < 9 || len(gone) == members/2: // a member takes what is waiting for it
			m := ops.Intn(members)
			for len(boxes[m]) > 0 {
				want[m] = append(want[m], seen(<-boxes[m]))
			}
			for _, e := range model.queued[m] {
				got[m] = append(got[m], seen(e))
			}
			model.queued[m] = model.queued[m][:0]
		default: // a member leaves; Unregister of a hosted name is Unregister
			m := ops.Intn(members)
			plain.Unregister(names[m])
			grouped.Unregister(names[m])
			gone[m] = true
		}
		if fmt.Sprint(errPlain) != fmt.Sprint(errGrouped) {
			t.Fatalf("step %d: group returned %v, inboxes %v", step, errGrouped, errPlain)
		}
		if p, g := plain.Stats(), grouped.Stats(); p != g {
			t.Fatalf("step %d: group stats %+v, inboxes %+v", step, g, p)
		}
		if p, g := plain.Agents(), grouped.Agents(); !slices.Equal(p, g) {
			t.Fatalf("step %d: group roster %v, inboxes %v", step, g, p)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("members of a group received\n%v\nwith an inbox each\n%v", got, want)
	}
	if st := grouped.Stats(); st.Rejected == 0 || st.Dropped == 0 || st.Delivered == 0 || len(gone) == 0 {
		t.Fatalf("the sequence is not the case under test: %+v, %d gone", st, len(gone))
	}
}

// TestRegisterGroupIsAllOrNothing: a name that is taken, given twice or
// empty, or a closed bus, registers none of the group.
func TestRegisterGroupIsAllOrNothing(t *testing.T) {
	b, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Register("c2", 1); err != nil {
		t.Fatal(err)
	}
	sink := func(int, message.Envelope) bool { return true }
	for _, tc := range []struct {
		names []string
		want  error
	}{
		{[]string{"c1", "c2", "c3"}, ErrDuplicateAgent},
		{[]string{"c1", "c3", "c1"}, ErrDuplicateAgent},
		{[]string{"c1", ""}, ErrUnknownAgent},
	} {
		if _, err := RegisterGroup(b, tc.names, sink, nil); !errors.Is(err, tc.want) {
			t.Fatalf("RegisterGroup(%q) = %v, want %v", tc.names, err, tc.want)
		}
		if got := b.Agents(); !slices.Equal(got, []string{"c2"}) {
			t.Fatalf("a refused group left %v registered", got)
		}
	}
	if _, err := RegisterGroup(plainBus{b}, []string{"c1"}, sink, nil); !errors.Is(err, ErrNoGroups) {
		t.Fatalf("a bus without groups returned %v", err)
	}
	b.Close()
	if _, err := RegisterGroup(b, []string{"c1"}, sink, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("a closed bus returned %v", err)
	}
}

// TestGroupUnregisterAndClose pins how a group's names leave the bus: one by
// one through Unregister, the rest through the function RegisterGroup
// returned — which never takes a name someone registered afterwards — or all
// at once when the bus closes; and that the group is told once, when the last
// of them goes.
func TestGroupUnregisterAndClose(t *testing.T) {
	b, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var took []string
	gone := 0
	unregister, err := RegisterGroup(b, []string{"c1", "c2", "c3"}, func(member int, e message.Envelope) bool {
		took = append(took, fmt.Sprintf("%d %s", member, e.To))
		return true
	}, func() { gone++ })
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send(env(t, "ua", "c2")); err != nil {
		t.Fatal(err)
	}
	b.Unregister("c2")
	if err := b.Send(env(t, "ua", "c2")); !errors.Is(err, ErrUnknownAgent) {
		t.Fatalf("send to an unregistered member = %v", err)
	}
	inbox, err := b.Register("c2", 1) // the name is free again, as a plain agent
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send(env(t, "ua", "")); err != nil {
		t.Fatal(err)
	}
	if want := []string{"1 c2", "0 c1", "2 c3"}; !slices.Equal(took, want) || len(inbox) != 1 {
		t.Fatalf("sink took %v, want %v; the new c2 holds %d", took, want, len(inbox))
	}
	b.Unregister("c1")
	if gone != 0 {
		t.Fatalf("the group was told it is gone with c3 still registered")
	}
	unregister()
	unregister() // idempotent
	if got := b.Agents(); !slices.Equal(got, []string{"c2"}) || gone != 1 {
		t.Fatalf("after the group left: %v, told %d times", got, gone)
	}

	gone = 0
	if _, err := RegisterGroup(b, []string{"c4", "c5"}, func(int, message.Envelope) bool { return true }, func() { gone++ }); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if got := b.Agents(); len(got) != 0 || gone != 1 {
		t.Fatalf("after Close: %v, the group told %d times", got, gone)
	}
	if err := b.Send(env(t, "ua", "c4")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close = %v", err)
	}
}

// TestSmallGroupCopiesNoMap: a group of one joining a bus of a thousand names
// costs its own registration, not a copy of the bus's mailbox map — the
// Utility Agent joins its fleet's bus this way every session.
func TestSmallGroupCopiesNoMap(t *testing.T) {
	b, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	fleet := make([]string, 1000)
	for i := range fleet {
		fleet[i] = fmt.Sprintf("c%04d", i)
	}
	if _, err := RegisterGroup(b, fleet, func(int, message.Envelope) bool { return true }, nil); err != nil {
		t.Fatal(err)
	}
	one, sink := []string{"ua"}, func(int, message.Envelope) bool { return true }
	allocs := testing.AllocsPerRun(100, func() {
		unregister, err := RegisterGroup(b, one, sink, nil)
		if err != nil {
			t.Fatal(err)
		}
		unregister()
	})
	if allocs > 2 { // the group and its unregister function
		t.Fatalf("a one-name group on a bus of %d names makes %v allocations", len(fleet), allocs)
	}
	if !HostsGroups(b) || HostsGroups(plainBus{b}) {
		t.Fatal("HostsGroups disagrees with RegisterGroup")
	}
	// The package's own buses take an envelope with no Body; a wrapper from
	// elsewhere is one that may read it.
	if !TakesCarried(b) || !TakesCarried(NewRemote("127.0.0.1:0")) || TakesCarried(plainBus{b}) {
		t.Fatal("TakesCarried names another set of buses than InProc and Remote")
	}
}

package agent

import (
	"fmt"
	"sync"

	"loadbalance/internal/bus"
	"loadbalance/internal/message"
)

// Fleet hosts many agents of one bus on one goroutine. The reward-table
// protocol is lock-step (Section 3.2.3) and agent interaction management
// (Section 5) only asks that each agent's messages are handled in order, so a
// fleet of reactive agents needs no goroutine, inbox channel and stop channel
// each: the members' Runtimes are one slice, the bus hands every delivery to
// one FIFO of (member, envelope) (bus.RegisterGroup), and one worker drains it
// through Runtime.dispatch. A member's Handler sees what Start would have
// shown it — its own *Runtime, its envelopes in arrival order, its own trace
// context — except that it shares the worker with the rest of the fleet: a
// handler that blocks stalls every member. Start's agent is a fleet of one.
type Fleet struct {
	members    []Runtime
	one        [1]Runtime // the members of a fleet of one
	inbox      int
	unregister func()
	// in is what Start's agent reads instead of the queue on a bus without
	// groups.
	in <-chan message.Envelope

	mu   sync.Mutex
	work sync.Cond // the queue is not empty, or the fleet is stopped or gone
	idle sync.Cond // the queue is empty and the worker is in no handler
	// pending[i] counts member i's envelopes in the queue. One that already
	// has inbox of them is not given another (the delivery is Rejected),
	// which is the bound an inbox channel of that size put on it.
	pending []int
	// queue is a ring of count deliveries starting at head. It starts at the
	// size of the fleet — one broadcast, put in under a single hold of the
	// bus lock — and doubles when the worker falls further behind than that.
	queue       []delivery
	head, count int
	busy        bool // the worker is starting the members or inside a handler
	stopped     bool // Stop was called
	gone        bool // the bus holds none of the members' names
	done        bool // the worker exited
	exited      sync.WaitGroup
}

// delivery is one queued envelope and the index of the member it is for.
type delivery struct {
	member int
	env    message.Envelope
}

// StartFleet registers names on b as one group and launches the worker that
// hosts them: names[i] is handled by handlers[i], and a member more than inbox
// envelopes behind loses the next one (bus.ErrInboxFull to its sender). The
// worker runs every OnStart, in order, before the first message. On error
// nothing is registered or running.
func StartFleet(b bus.Bus, names []string, handlers []Handler, inbox int) (*Fleet, error) {
	if len(names) != len(handlers) {
		return nil, fmt.Errorf("agent: fleet of %d names has %d handlers", len(names), len(handlers))
	}
	if inbox <= 0 {
		return nil, fmt.Errorf("agent: fleet inbox %d must be positive", inbox)
	}
	f := newFleet(len(names), inbox)
	for i, h := range handlers {
		if h == nil {
			return nil, fmt.Errorf("agent %q: %w", names[i], ErrNilHandler)
		}
		rt := &f.members[i]
		rt.name, rt.bus, rt.handler = names[i], b, h
	}
	if err := f.group(b, names); err != nil {
		return nil, fmt.Errorf("agent: fleet: %w", err)
	}
	f.exited.Add(1)
	go f.run()
	return f, nil
}

// newFleet lays out a fleet of n members, which its caller names.
func newFleet(n, inbox int) *Fleet {
	f := &Fleet{inbox: inbox, busy: true}
	if f.members = f.one[:]; n != 1 {
		f.members = make([]Runtime, n)
	}
	f.work.L, f.idle.L = &f.mu, &f.mu
	return f
}

// group registers the members on b as names, one bus group whose deliveries
// and departure come to f.
func (f *Fleet) group(b bus.Bus, names []string) error {
	f.pending = make([]int, len(names))
	f.queue = make([]delivery, len(names))
	unregister, err := bus.RegisterGroup(b, names, f.deliver, func() {
		f.mu.Lock()
		f.gone = true // nothing more will be queued
		f.work.Signal()
		f.mu.Unlock()
	})
	f.unregister = unregister
	return err
}

// deliver is the fleet's bus.GroupSink: it queues env for a member that has
// room and never blocks. The bus lock is held, so deliveries arrive one at a
// time and in bus order.
func (f *Fleet) deliver(member int, env message.Envelope) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pending[member] >= f.inbox {
		return false
	}
	f.pending[member]++
	if f.count == len(f.queue) {
		grown := make([]delivery, max(2*len(f.queue), 1))
		n := copy(grown, f.queue[f.head:])
		copy(grown[n:], f.queue[:f.head])
		f.queue, f.head = grown, 0
	}
	tail := f.head + f.count
	if tail >= len(f.queue) {
		tail -= len(f.queue)
	}
	f.queue[tail] = delivery{member, env}
	f.count++
	f.work.Signal()
	return true
}

// run is the worker: every member's start hook, then the mailbox until Stop,
// or until the bus holds none of the members' names and nothing is queued. A
// fleet none of whose members started handles nothing, as Start's agent after
// a failed OnStart.
func (f *Fleet) run() {
	defer f.exited.Done()
	started := false
	for i := range f.members {
		rt := &f.members[i]
		if err := rt.handler.OnStart(rt); err != nil {
			rt.recordErr(fmt.Errorf("agent %q: start: %w", rt.name, err))
			rt.handler = HandlerFuncs{} // as after Start: it handles nothing
		} else {
			started = true
		}
	}
	if started && f.in != nil { // until Stop, or the bus closes the channel
		for env := range f.in {
			f.mu.Lock()
			stopped := f.stopped
			f.mu.Unlock()
			if stopped {
				break
			}
			f.one[0].dispatch(env)
		}
	}
	f.mu.Lock()
	for started && f.in == nil && !f.stopped && (f.count > 0 || !f.gone) {
		if f.count == 0 {
			f.busy = false
			f.idle.Broadcast()
			f.work.Wait()
			continue
		}
		d := f.queue[f.head]
		f.queue[f.head] = delivery{} // the queue outlives the envelope's payload
		if f.head++; f.head == len(f.queue) {
			f.head = 0
		}
		f.count--
		f.pending[d.member]--
		f.busy = true
		f.mu.Unlock()
		f.members[d.member].dispatch(d.env)
		f.mu.Lock()
	}
	f.done, f.busy = true, false
	f.idle.Broadcast()
	f.mu.Unlock()
}

// Quiesce blocks until the worker has handled every envelope the bus has
// delivered to the fleet — those delivered before the call and those the
// handling itself caused — or the fleet is stopped. It is how a session's
// owner learns that the awards and the session end it saw sent have landed.
func (f *Fleet) Quiesce() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for !f.stopped && !f.done && (f.count > 0 || f.busy) {
		f.idle.Wait()
	}
}

// Stop unregisters the members from the bus and waits for the worker to exit;
// envelopes still queued are dropped. It is idempotent.
func (f *Fleet) Stop() {
	f.mu.Lock()
	first := !f.stopped
	f.stopped = true
	f.work.Signal()
	f.mu.Unlock()
	if f.in == nil {
		f.unregister()
	} else if first { // which closes the inbox
		f.one[0].bus.Unregister(f.one[0].name)
	}
	f.exited.Wait()
}

// Errors returns the handler errors recorded so far, members in the order
// they were given to StartFleet.
func (f *Fleet) Errors() []error {
	var out []error
	for i := range f.members {
		out = append(out, f.members[i].Errors()...)
	}
	return out
}

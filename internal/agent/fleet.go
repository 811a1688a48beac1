package agent

import (
	"fmt"
	"sync"
	"unsafe"

	"loadbalance/internal/bus"
	"loadbalance/internal/message"
)

// Fleet hosts many agents of one bus on one goroutine. The reward-table
// protocol is lock-step (Section 3.2.3) and agent interaction management
// (Section 5) only asks that each agent's messages are handled in order, so a
// fleet of reactive agents needs no goroutine, inbox channel and stop channel
// each: the members' Runtimes are one slice, the bus hands every delivery to
// one FIFO of (members, envelope) (bus.RegisterGroup), and one worker drains it
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
	queue   queue
	busy    bool // the worker is starting the members or inside a handler
	stopped bool // Stop was called
	gone    bool // the bus holds none of the members' names
	done    bool // the worker exited
	exited  sync.WaitGroup
}

// delivery is one queued envelope and the members first through last it is
// for: one send to consecutive members is one entry, whose env is addressed to
// the first of them.
type delivery struct {
	first, last int32
	env         message.Envelope
}

// blockLen is how many deliveries a block of the queue holds: as many as fit
// beside the link to the next block in 8 KiB, one of the allocator's size
// classes, so a block costs 8 KiB (64 deliveries would round up to 9 472 B).
const blockLen = (8<<10 - int(unsafe.Sizeof(uintptr(0)))) / int(unsafe.Sizeof(delivery{}))

// block is a fixed run of queued deliveries.
type block struct {
	d    [blockLen]delivery
	next *block
}

// queue is a fleet's FIFO of deliveries in blocks: it grows a block at a time
// when the tail block is full and none is on hand, never copies what it holds,
// and keeps each block it empties for the next burst. Its memory is the most
// that has waited at once; it dies with the fleet.
type queue struct {
	head, tail  *block
	read, write int    // the next entry of head to take, of tail to fill
	free        *block // emptied blocks, linked by next
}

func (q *queue) empty() bool { return q.head == q.tail && q.read == q.write }

// last is the entry put in most recently and still waiting, or nil.
func (q *queue) last() *delivery {
	if q.empty() {
		return nil
	}
	return &q.tail.d[q.write-1]
}

// front is the oldest waiting entry; the queue must not be empty.
func (q *queue) front() *delivery { return &q.head.d[q.read] }

// push puts d in at the tail, on a kept block or a new one when the tail's is
// full.
func (q *queue) push(d delivery) {
	if q.tail == nil || q.write == blockLen {
		b := q.free
		if b != nil {
			q.free, b.next = b.next, nil
		} else {
			b = new(block)
		}
		if q.tail == nil {
			q.head = b
		} else {
			q.tail.next = b
		}
		q.tail, q.write = b, 0
	}
	q.tail.d[q.write] = d
	q.write++
}

// pop drops the front entry. A queue it empties starts its block over; a
// block it finishes is kept for reuse.
func (q *queue) pop() {
	q.head.d[q.read] = delivery{} // the block outlives the envelope's payload
	if q.read++; q.empty() {
		q.read, q.write = 0, 0
	} else if q.read == blockLen {
		b := q.head
		q.head, q.read = b.next, 0
		b.next, q.free = q.free, b
	}
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
// time and in bus order: a delivery of the send the last entry holds, to the
// member after that entry's last, joins the entry.
func (f *Fleet) deliver(member int, env message.Envelope) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pending[member] >= f.inbox {
		return false
	}
	f.pending[member]++
	if d := f.queue.last(); d != nil && int(d.last)+1 == member && d.env.SameSend(env) {
		d.last++
	} else {
		f.queue.push(delivery{int32(member), int32(member), env})
	}
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
	for started && f.in == nil && !f.stopped && (!f.queue.empty() || !f.gone) {
		if f.queue.empty() {
			f.busy = false
			f.idle.Broadcast()
			f.work.Wait()
			continue
		}
		d := f.queue.front()
		member, env := d.first, d.env
		if d.first == d.last {
			f.queue.pop()
		} else {
			d.first++
		}
		f.pending[member]--
		f.busy = true
		f.mu.Unlock()
		rt := &f.members[member]
		env.To = rt.name
		rt.dispatch(env)
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
	for !f.stopped && !f.done && (!f.queue.empty() || f.busy) {
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

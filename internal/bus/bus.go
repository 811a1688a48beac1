// Package bus provides the message transport connecting agents: a
// deterministic in-process bus on which every name is a member of a group
// whose sink takes its deliveries (the default substrate for simulations and
// tests), and a TCP transport of binary frames (wire.go) for running the
// Utility Agent, the concentrators and the Customer Agents as separate OS
// processes.
//
// All inter-agent communication in this system flows through a Bus; agents
// never share memory. The in-process bus supports seeded failure injection
// (message loss) so the protocol's robustness rules — "when all (or an
// acceptable number of) bids have been collected" (Section 3.2.2) — can be
// exercised (experiment E9).
package bus

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"

	"loadbalance/internal/message"
)

// Errors reported by bus operations.
var (
	ErrDuplicateAgent = errors.New("bus: agent already registered")
	ErrUnknownAgent   = errors.New("bus: unknown agent")
	ErrClosed         = errors.New("bus: closed")
	ErrInboxFull      = errors.New("bus: inbox full")
	ErrNoGroups       = errors.New("bus: transport cannot register a group")
)

// Bus is the transport abstraction agents communicate through.
type Bus interface {
	// Register creates a mailbox for the named agent and returns its inbox.
	Register(name string, inboxSize int) (<-chan message.Envelope, error)
	// Unregister removes an agent's mailbox and closes its inbox.
	Unregister(name string)
	// Send delivers an envelope. An empty To broadcasts to every registered
	// agent except the sender.
	Send(env message.Envelope) error
	// Agents returns the registered agent names, sorted.
	Agents() []string
}

// SendTo delivers env to each agent named in to, in order, exactly as that
// many targeted Sends would: the same Stats, the same per-delivery
// fault-injection draws, every recipient attempted and the first error
// returned. env.To is ignored and every name must be non-empty (an empty To
// would mean broadcast, which a fan-out never is). The recipients share the
// one envelope and the payload it carries.
//
// A bus with a cheaper way to do that than len(to) Sends provides it — InProc
// takes its lock once, Client and Remote put one frame on the wire — and the
// loop below is what those are tested against.
func SendTo(b Bus, env message.Envelope, to []string) error {
	if f, ok := b.(fanOuter); ok {
		return f.SendTo(env, to)
	}
	var firstErr error
	for _, n := range to {
		var err error
		if env.To = n; n == "" {
			err = fmt.Errorf("%w: empty recipient", ErrUnknownAgent)
		} else {
			err = b.Send(env)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// fanOuter is a Bus with its own SendTo. The assertions keep a signature
// change from silently demoting a bus to the loop.
type fanOuter interface {
	SendTo(env message.Envelope, to []string) error
}

var (
	_ fanOuter = (*InProc)(nil)
	_ fanOuter = (*Client)(nil)
	_ fanOuter = (*Remote)(nil)
)

// GroupSink takes the deliveries of a set of names registered together:
// member indexes the recipient in the names RegisterGroup was given, and env
// is addressed to it. The bus calls it with its lock held, so it must neither
// block nor call the bus; false means the member has no room — the delivery
// is Rejected and the sender sees ErrInboxFull, as with a full inbox.
type GroupSink func(member int, env message.Envelope) bool

// RegisterGroup registers names on b together, with no inbox each: their
// deliveries go to sink, in the order and with the fault-injection draws and
// Stats that len(names) Registers would have given. It is all or nothing — on
// a duplicate or empty name none is registered — and a group smaller than
// the bus adds to its names without copying them. Unregister removes one of
// the names like any other (envelopes the sink already took are the sink's);
// the returned function removes those that remain, under one lock
// acquisition. Once the bus holds none of the names — through Unregister,
// that function or Close — it calls gone, if set, under the same rules as
// sink: it is how the group's host learns that nothing more will come.
//
// A bus that cannot do this (only InProc can: a TCP connection is one name)
// returns ErrNoGroups, and HostsGroups tells so beforehand.
func RegisterGroup(b Bus, names []string, sink GroupSink, gone func()) (unregister func(), err error) {
	if g, ok := b.(groupHost); ok {
		return g.RegisterGroup(names, sink, gone)
	}
	return nil, ErrNoGroups
}

// HostsGroups reports whether RegisterGroup can register names on b.
func HostsGroups(b Bus) bool {
	_, ok := b.(groupHost)
	return ok
}

// TakesCarried reports whether b is one of this package's buses, which take
// an envelope that carries its payload and has no Body: InProc hands it to
// sinks as it is, and Remote writes the payload's JSON into the frame it
// builds. Any other Bus may read Body, so a sender gives it one
// (Envelope.WithBody).
func TakesCarried(b Bus) bool {
	switch b.(type) {
	case *InProc, *Remote:
		return true
	}
	return false
}

// groupHost is a Bus with RegisterGroup.
type groupHost interface {
	RegisterGroup(names []string, sink GroupSink, gone func()) (unregister func(), err error)
}

var _ groupHost = (*InProc)(nil)

// Stats counts bus traffic. All counters are cumulative.
type Stats struct {
	Sent      int
	Delivered int
	Dropped   int // lost to fault injection
	Rejected  int // no such agent / inbox full
}

// Config parameterises an in-process bus.
type Config struct {
	// DropRate is the probability in [0,1] that any single delivery is lost.
	DropRate float64
	// Seed drives the fault-injection randomness.
	Seed int64
}

// DefaultInboxSize is an inbox's bound when its owner gives none: a Register
// or an agent.Start with size <= 0, a Client, a Reconn.
const DefaultInboxSize = 64

// InProc is the in-process bus. It is safe for concurrent use.
type InProc struct {
	mu    sync.Mutex
	boxes map[string]box
	// roster is the sorted names of boxes, or nil when a Register,
	// Unregister or Close has changed boxes since it was built. A session
	// registers everyone before its first broadcast and unregisters after
	// its last, so it sorts once.
	roster   []string
	changed  chan struct{} // closed at the next registration change; nil while nobody awaits one
	closed   bool
	stats    Stats
	dropRate float64
	rng      *rand.Rand
}

var _ Bus = (*InProc)(nil)

// box is where a registered name's deliveries go: member i of the group it
// was registered with.
type box struct {
	group  *group
	member int
}

// group is one RegisterGroup call; boxes point at it, which is how its
// unregister tells its own names from a later registration of the same name.
// left counts its names still registered.
type group struct {
	sink GroupSink
	gone func()
	left int
}

// NewInProc constructs an in-process bus.
func NewInProc(cfg Config) (*InProc, error) {
	if cfg.DropRate < 0 || cfg.DropRate > 1 {
		return nil, fmt.Errorf("bus: drop rate %v out of [0,1]", cfg.DropRate)
	}
	return &InProc{
		boxes:    make(map[string]box),
		dropRate: cfg.DropRate,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// Register implements Bus: the name is a group of one whose sink is the
// returned channel, Rejected when full, and closed once the name is dropped.
func (b *InProc) Register(name string, inboxSize int) (<-chan message.Envelope, error) {
	if inboxSize <= 0 {
		inboxSize = DefaultInboxSize
	}
	ch := make(chan message.Envelope, inboxSize)
	_, err := b.RegisterGroup([]string{name}, func(_ int, env message.Envelope) bool {
		select {
		case ch <- env:
			return true
		default:
			return false
		}
	}, func() { close(ch) })
	if err != nil {
		return nil, err
	}
	return ch, nil
}

// RegisterGroup is the package-level RegisterGroup on this bus.
func (b *InProc) RegisterGroup(names []string, sink GroupSink, gone func()) (func(), error) {
	if slices.Contains(names, "") {
		return nil, fmt.Errorf("%w: empty name", ErrUnknownAgent)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	if len(names) > len(b.boxes) { // a fleet joining: one map sized for everyone
		boxes := make(map[string]box, len(b.boxes)+len(names))
		maps.Copy(boxes, b.boxes)
		b.boxes = boxes
	}
	g := &group{sink: sink, gone: gone, left: len(names)}
	for i, name := range names {
		if _, taken := b.boxes[name]; taken {
			for _, n := range names[:i] { // all or nothing: each of these is the group's
				delete(b.boxes, n)
			}
			return nil, fmt.Errorf("%w: %q", ErrDuplicateAgent, name)
		}
		b.boxes[name] = box{group: g, member: i}
	}
	b.rosterChangedLocked()
	return func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		for _, name := range names {
			if bx := b.boxes[name]; bx.group == g {
				b.dropLocked(name, bx)
			}
		}
		b.rosterChangedLocked()
	}, nil
}

// Unregister implements Bus.
func (b *InProc) Unregister(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if bx, ok := b.boxes[name]; ok {
		b.dropLocked(name, bx)
		b.rosterChangedLocked()
	}
}

// dropLocked takes a registered name off the bus and tells its group when it
// was the group's last. The caller holds b.mu.
func (b *InProc) dropLocked(name string, bx box) {
	delete(b.boxes, name)
	if bx.group.left--; bx.group.left == 0 && bx.group.gone != nil {
		bx.group.gone()
	}
}

// rosterChangedLocked drops the sorted roster and wakes AwaitNames. The
// caller holds b.mu.
func (b *InProc) rosterChangedLocked() {
	b.roster = nil
	if b.changed != nil {
		close(b.changed)
		b.changed = nil
	}
}

// AwaitNames blocks until every one of names is registered — or, with present
// false, none is — re-checking at each registration change, or until ctx ends:
// how a host learns that peers have dialed in, or that a server has forwarded
// all a connection carried and unregistered it.
func (b *InProc) AwaitNames(ctx context.Context, names []string, present bool) error {
	want := "registered"
	if !present {
		want = "unregistered"
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		pending := 0
		for _, n := range names {
			if _, ok := b.boxes[n]; ok != present {
				pending++
			}
		}
		if pending == 0 {
			return nil
		}
		if b.changed == nil {
			b.changed = make(chan struct{})
		}
		changed := b.changed
		b.mu.Unlock()
		select {
		case <-changed:
			b.mu.Lock()
		case <-ctx.Done():
			b.mu.Lock()
			return fmt.Errorf("bus: %d of %d agents not %s: %w", pending, len(names), want, context.Cause(ctx))
		}
	}
}

// rosterLocked returns the registered names, sorted. The caller holds b.mu
// and must not modify the result.
func (b *InProc) rosterLocked() []string {
	if b.roster == nil {
		b.roster = make([]string, 0, len(b.boxes))
		for n := range b.boxes {
			b.roster = append(b.roster, n)
		}
		slices.Sort(b.roster)
	}
	return b.roster
}

// Send implements Bus. Broadcast delivery order is deterministic
// (alphabetical by recipient) so simulations are reproducible.
func (b *InProc) Send(env message.Envelope) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	b.stats.Sent++
	if env.To != "" {
		return b.deliverLocked(env.To, env)
	}
	var firstErr error
	for _, n := range b.rosterLocked() {
		if n == env.From {
			continue
		}
		if err := b.deliverLocked(n, env); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// SendTo is the package-level SendTo under one acquisition of the bus lock.
func (b *InProc) SendTo(env message.Envelope, to []string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	var firstErr error
	for _, n := range to {
		b.stats.Sent++
		if err := b.deliverLocked(n, env); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// deliverLocked hands an envelope to the sink of the recipient's group. The
// caller holds b.mu.
func (b *InProc) deliverLocked(to string, env message.Envelope) error {
	bx, ok := b.boxes[to]
	if !ok {
		b.stats.Rejected++
		return fmt.Errorf("%w: %q", ErrUnknownAgent, to)
	}
	// Self-addressed messages model an agent's internal control flow (e.g.
	// the UA's round timeouts); they never traverse the network and are
	// exempt from fault injection.
	if b.dropRate > 0 && env.From != to && b.rng.Float64() < b.dropRate {
		b.stats.Dropped++
		return nil // silently lost, like a real lossy network
	}
	env.To = to // concretise broadcast recipient
	if !bx.group.sink(bx.member, env) {
		b.stats.Rejected++
		return fmt.Errorf("%w: %q", ErrInboxFull, to)
	}
	b.stats.Delivered++
	return nil
}

// Agents implements Bus.
func (b *InProc) Agents() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.rosterLocked())
}

// Stats returns a snapshot of the traffic counters.
func (b *InProc) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Close shuts the bus; subsequent Register/Send calls fail and every group's
// names are dropped (each group is told it is gone — Register's closes its
// inbox — and what its sink took before the close is its to finish).
func (b *InProc) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	b.rosterChangedLocked()
	for n, bx := range b.boxes {
		b.dropLocked(n, bx)
	}
}

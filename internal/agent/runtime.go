// Package agent provides the generic agent machinery shared by the Utility
// Agent and the Customer Agents: a runtime that owns an agent's mailbox and
// lifecycle, and the information-maintenance model of the generic agent
// tasks.
//
// The paper's generic agent model (Section 5, after [4]) decomposes an agent
// into: own process control, agent specific tasks, cooperation management,
// agent interaction management, world interaction management, maintenance of
// agent information and maintenance of world information. In this
// reproduction:
//
//   - agent interaction management is the Runtime (mailbox, send/broadcast),
//     hosted many to a worker goroutine (StartFleet) or one (Start), in
//     process a Fleet either way: a queue of fixed blocks holding what is
//     waiting, once — one send to consecutive members is one entry — under a
//     bound that counts envelopes (over TCP Start reads the inbox channel);
//   - maintenance of agent/world information is the Model (typed response
//     counters and world values);
//   - the remaining tasks are methods on the concrete agents
//     (internal/utilityagent, internal/customeragent), named after the tasks
//     they implement.
package agent

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"loadbalance/internal/bus"
	"loadbalance/internal/message"
	"loadbalance/internal/trace"
)

// ErrNilHandler is returned for an agent without a handler.
var ErrNilHandler = errors.New("agent: handler must not be nil")

// Handler reacts to the agent's inbox. Implementations run on the one
// goroutine that hosts the agent — its own, or its fleet's worker — so they
// may freely mutate agent state without locks.
type Handler interface {
	// OnStart runs once before the first message — the hook for
	// pro-active behaviour (the UA starting a negotiation).
	OnStart(rt *Runtime) error
	// OnMessage handles one inbound envelope.
	OnMessage(rt *Runtime, env message.Envelope) error
}

// Runtime is one hosted agent: its name on the bus, its handler, its trace
// context and its recorded errors. A Fleet member is driven by its fleet's
// worker; Start's agent is the one member of a fleet of its own, its host.
type Runtime struct {
	name    string
	bus     bus.Bus
	handler Handler
	host    *Fleet // the fleet Start gave this agent; nil for a StartFleet member

	// curTrace/curSpan hold the trace context of the work this agent is
	// doing right now — the handling span of the envelope currently in
	// OnMessage, or whatever the handler installed with SetTraceCtx.
	// Send reads them to stamp outgoing envelopes. They are atomics, not
	// plain fields, because timeout callbacks (time.AfterFunc) call Send
	// from outside the agent goroutine; a racing reader then sees some
	// recent context of the same agent, which is exactly the right
	// attribution for a timeout-driven send.
	curTrace atomic.Uint64
	curSpan  atomic.Uint64

	mu   sync.Mutex
	errs []error
}

// Start registers the agent on the bus and launches its goroutine: OnStart,
// then its messages in arrival order, at most inboxSize (bus.DefaultInboxSize
// if not positive) waiting — the next is Rejected with bus.ErrInboxFull. They
// wait in a fleet-of-one queue on a bus that hosts groups, else in the inbox
// channel the bus hands out. A failed OnStart ends the goroutine, as does the
// bus dropping the name once what was queued is handled.
func Start(name string, b bus.Bus, h Handler, inboxSize int) (*Runtime, error) {
	if h == nil {
		return nil, ErrNilHandler
	}
	if inboxSize <= 0 {
		inboxSize = bus.DefaultInboxSize
	}
	f := newFleet(1, inboxSize) // whichever mailbox the bus can give it
	rt := &f.members[0]
	rt.name, rt.bus, rt.handler, rt.host = name, b, h, f
	var err error
	if bus.HostsGroups(b) {
		err = f.group(b, []string{name})
	} else {
		f.in, err = b.Register(name, inboxSize)
	}
	if err != nil {
		return nil, fmt.Errorf("agent %q: %w", name, err)
	}
	f.exited.Add(1)
	go f.run()
	return rt, nil
}

// Name returns the agent's name.
func (rt *Runtime) Name() string { return rt.name }

// dispatch runs one envelope through the handler and records the error it
// returns. A traced envelope is wrapped in a handling span that becomes the
// parent of everything the handler sends in response, which is how a
// negotiation's span tree chains through every agent it crosses.
func (rt *Runtime) dispatch(env message.Envelope) {
	var err error
	if !env.Traced() || !trace.Enabled() {
		err = rt.handler.OnMessage(rt, env)
	} else {
		sp := trace.Child(trace.Context{Trace: env.TraceID, Span: env.SpanID}, "handle."+string(env.Kind))
		sp.SetAgent(rt.name)
		sp.SetSession(env.Session)
		rt.SetTraceCtx(sp.Context())
		err = rt.handler.OnMessage(rt, env)
		sp.End()
	}
	if err != nil {
		rt.recordErr(fmt.Errorf("agent %q: handle %s from %q: %w", rt.name, env.Kind, env.From, err))
	}
}

// TraceCtx returns the agent's current trace context (invalid when the
// agent is not doing traced work).
func (rt *Runtime) TraceCtx() trace.Context {
	return trace.Context{Trace: rt.curTrace.Load(), Span: rt.curSpan.Load()}
}

// SetTraceCtx installs the context stamped onto subsequent Sends — used
// by handlers that open their own root span (the UA starting a session).
func (rt *Runtime) SetTraceCtx(tc trace.Context) {
	rt.curTrace.Store(tc.Trace)
	rt.curSpan.Store(tc.Span)
}

// Send wraps a payload in an envelope from this agent and delivers it,
// stamped with the agent's current trace context.
func (rt *Runtime) Send(to, session string, p message.Payload) error {
	return rt.SendCtx(rt.TraceCtx(), to, session, p)
}

// SendCtx sends with an explicit trace context — for handlers that relay
// between runtimes (the concentrator receives on one side and forwards on
// the other, so the receiving runtime's context must travel with the
// payload).
func (rt *Runtime) SendCtx(tc trace.Context, to, session string, p message.Payload) error {
	env, err := rt.envelope(tc, to, session, p)
	if err != nil {
		return err
	}
	return rt.bus.Send(env)
}

// SendAllCtx sends one payload to every agent named in to, as SendCtx to
// each in order would, from one envelope: the payload is validated and
// carried once and the bus fans it out (bus.SendTo). Every recipient is
// attempted; the first delivery error is returned.
func (rt *Runtime) SendAllCtx(tc trace.Context, to []string, session string, p message.Payload) error {
	env, err := rt.envelope(tc, "", session, p)
	if err != nil {
		return err
	}
	return bus.SendTo(rt.bus, env, to)
}

// envelope wraps a payload in an envelope from this agent, stamped with tc.
// The bus package's own buses take it carrying its payload — InProc hands it
// to sinks, which read the payload or write its JSON into a frame, and Remote
// writes that JSON into the frame it sends — so only a bus from elsewhere,
// which may read Body, is given the Body at send (bus.TakesCarried).
func (rt *Runtime) envelope(tc trace.Context, to, session string, p message.Payload) (message.Envelope, error) {
	env, err := message.NewEnvelope(rt.name, to, session, p)
	if err == nil && !bus.TakesCarried(rt.bus) {
		env, err = env.WithBody()
	}
	if err != nil {
		return message.Envelope{}, err
	}
	if tc.Valid() && trace.Enabled() {
		env.TraceID, env.SpanID = tc.Trace, tc.Span
	}
	return env, nil
}

// Broadcast sends a payload to every other agent on the bus.
func (rt *Runtime) Broadcast(session string, p message.Payload) error {
	return rt.Send("", session, p)
}

// Stop unregisters Start's agent, stops its goroutine and waits for it to
// exit; what is still queued for it is dropped. It is idempotent. A Fleet
// member has no goroutine of its own: Stop takes its name off the bus (what
// the fleet already queued for it is still handled) and returns, and the
// fleet's worker is the Fleet's to stop.
func (rt *Runtime) Stop() {
	if rt.host == nil {
		rt.bus.Unregister(rt.name)
		return
	}
	rt.host.Stop()
}

// Wait blocks until Start's goroutine exits (without requesting a stop) —
// used when the handler terminates itself by returning after a session ends.
// It returns at once for a Fleet member.
func (rt *Runtime) Wait() {
	if rt.host != nil {
		rt.host.exited.Wait()
	}
}

// Errors returns the handler errors recorded so far.
func (rt *Runtime) Errors() []error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]error(nil), rt.errs...)
}

// recordErr stores a handler error for later inspection.
func (rt *Runtime) recordErr(err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.errs = append(rt.errs, err)
}

// HandlerFuncs adapts plain functions to the Handler interface.
type HandlerFuncs struct {
	Start   func(rt *Runtime) error
	Message func(rt *Runtime, env message.Envelope) error
}

// OnStart implements Handler.
func (h HandlerFuncs) OnStart(rt *Runtime) error {
	if h.Start == nil {
		return nil
	}
	return h.Start(rt)
}

// OnMessage implements Handler.
func (h HandlerFuncs) OnMessage(rt *Runtime, env message.Envelope) error {
	if h.Message == nil {
		return nil
	}
	return h.Message(rt, env)
}

var _ Handler = HandlerFuncs{}

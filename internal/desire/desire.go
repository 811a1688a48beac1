// Package desire provides an executable semantics for the compositional
// development method DESIRE (framework for DEsign and Specification of
// Interacting REasoning components) as used in Section 4 of the paper.
//
// DESIRE designs consist of three kinds of knowledge:
//
//   - process composition: processes modelled as components with typed input
//     and output information states, composed from sub-components;
//   - knowledge composition: ontologies and knowledge bases (see internal/kb);
//   - the relation between the two: which knowledge a process uses.
//
// This package models components with kb.Store input/output interfaces.
// Primitive components are either reasoning components (driven by a kb.Base)
// or task components (driven by a Go function — the paper allows primitive
// components "capable of performing tasks such as calculation, information
// retrieval, optimisation"). Composed components contain sub-components,
// information links that move facts between information states, and task
// control that sequences activations.
//
// It is part of the reference specification (with internal/kb and
// internal/desiremodel): tests and ./bench run it, but no production binary
// links this package, and CI (.github/scripts/orphan-packages.sh) enforces
// that.
package desire

import (
	"errors"
	"fmt"

	"loadbalance/internal/kb"
)

// Errors reported by the framework.
var (
	ErrUnknownComponent = errors.New("desire: unknown component")
	ErrUnknownPort      = errors.New("desire: unknown port")
	ErrNoFixpoint       = errors.New("desire: task control did not quiesce")
	ErrBadLink          = errors.New("desire: invalid information link")
)

// Port selects a component's input or output information state.
type Port int

// Ports.
const (
	In Port = iota + 1
	Out
)

// String renders the port name.
func (p Port) String() string {
	switch p {
	case In:
		return "in"
	case Out:
		return "out"
	default:
		return "?"
	}
}

// Component is a DESIRE process: a named unit with input and output
// information states and an activation step that derives new output from
// current input. Activation must be idempotent once inputs stop changing.
type Component interface {
	Name() string
	Input() *kb.Store
	Output() *kb.Store
	// Activate performs one activation and reports whether it changed the
	// output information state.
	Activate() (changed bool, err error)
}

// Reasoning is a primitive reasoning component: activation runs its
// knowledge base to a fixpoint over (input ∪ previous output) and publishes
// the facts of declared output predicates.
type Reasoning struct {
	name     string
	input    *kb.Store
	output   *kb.Store
	work     *kb.Store
	engine   *kb.Engine
	outPreds map[string]bool
	done     settled
}

// settled remembers the versions two stores had when a step that reads src
// and writes dst last ran to completion. While both still read the same, the
// step would copy what it copied and derive what it derived: it is skipped.
type settled struct {
	ok       bool
	src, dst uint64
}

// holds reports whether neither store has changed since the last mark.
func (m settled) holds(src, dst *kb.Store) bool {
	return m.ok && m.src == src.Version() && m.dst == dst.Version()
}

// mark records the stores' versions at the end of a successful run.
func (m *settled) mark(src, dst *kb.Store) {
	*m = settled{ok: true, src: src.Version(), dst: dst.Version()}
}

// NewReasoning constructs a reasoning component. outPreds lists the
// predicates whose derived facts are published on the output state; all other
// derived facts remain internal (DESIRE's information hiding).
func NewReasoning(name string, ont *kb.Ontology, base *kb.Base, outPreds ...string) *Reasoning {
	preds := make(map[string]bool, len(outPreds))
	for _, p := range outPreds {
		preds[p] = true
	}
	return &Reasoning{
		name:     name,
		input:    kb.NewStore(ont),
		output:   kb.NewStore(ont),
		work:     kb.NewStore(ont),
		engine:   kb.NewEngine(base),
		outPreds: preds,
	}
}

// Name returns the component name.
func (r *Reasoning) Name() string { return r.name }

// Input returns the input information state.
func (r *Reasoning) Input() *kb.Store { return r.input }

// Output returns the output information state.
func (r *Reasoning) Output() *kb.Store { return r.output }

// Activate copies the input facts into the working state, runs the knowledge
// base to a fixpoint, and publishes derived facts for output predicates. It
// does nothing, and reports no change, while input and output are what the
// previous activation left.
func (r *Reasoning) Activate() (bool, error) {
	if r.done.holds(r.input, r.output) {
		return false, nil
	}
	r.work.Clear()
	if err := r.input.Each(func(f kb.Fact) error { return r.work.Assert(f.Atom, f.Truth) }); err != nil {
		return false, fmt.Errorf("component %q: %w", r.name, err)
	}
	derived, err := r.engine.Infer(r.work)
	if err != nil {
		return false, fmt.Errorf("component %q: %w", r.name, err)
	}
	changed := false
	for _, f := range derived {
		if !r.outPreds[f.Atom.Pred] {
			continue
		}
		if r.output.TruthOf(f.Atom) == f.Truth {
			continue
		}
		if err := r.output.Assert(f.Atom, f.Truth); err != nil {
			return changed, fmt.Errorf("component %q: %w", r.name, err)
		}
		changed = true
	}
	r.done.mark(r.input, r.output)
	return changed, nil
}

// TaskFunc is the body of a task (calculation) component: it reads the input
// state and asserts results on the output state, reporting whether anything
// changed.
type TaskFunc func(in *kb.Store, out *kb.Store) (changed bool, err error)

// Task is a primitive non-reasoning component wrapping a Go function.
type Task struct {
	name   string
	input  *kb.Store
	output *kb.Store
	body   TaskFunc
}

// NewTask constructs a task component.
func NewTask(name string, ont *kb.Ontology, body TaskFunc) *Task {
	return &Task{
		name:   name,
		input:  kb.NewStore(ont),
		output: kb.NewStore(ont),
		body:   body,
	}
}

// Name returns the component name.
func (t *Task) Name() string { return t.name }

// Input returns the input information state.
func (t *Task) Input() *kb.Store { return t.input }

// Output returns the output information state.
func (t *Task) Output() *kb.Store { return t.output }

// Activate runs the task body.
func (t *Task) Activate() (bool, error) {
	changed, err := t.body(t.input, t.output)
	if err != nil {
		return changed, fmt.Errorf("component %q: %w", t.name, err)
	}
	return changed, nil
}

// PredMap renames a predicate as facts flow through an information link.
// DESIRE links translate between the ontologies of neighbouring components.
type PredMap struct {
	From string
	To   string
}

// Endpoint addresses one side of an information link. Component "" denotes
// the enclosing composed component itself; for the enclosing component the
// semantics invert (its In port is a source, its Out port a sink).
type Endpoint struct {
	Component string
	Port      Port
}

// Link is an information link: it copies facts whose predicate matches a
// PredMap entry from the source state to the destination state, renaming
// predicates as configured. An empty Map copies every fact unchanged.
type Link struct {
	Name string
	From Endpoint
	To   Endpoint
	Map  []PredMap
}

// Step is one task-control step: either activate a sub-component or transfer
// an information link. Exactly one field is set.
type Step struct {
	Activate string // component name
	Transfer string // link name
}

// Composed is a composed component: sub-components, information links and
// task control. Its own Input/Output states are the interface it presents to
// any enclosing composition.
type Composed struct {
	name      string
	input     *kb.Store
	output    *kb.Store
	children  map[string]Component
	links     map[string]*link
	control   []step
	maxCycles int
}

// link is a registered information link: its endpoints resolved to stores
// and its predicate map indexed, once, when it is added.
type link struct {
	name     string
	src, dst *kb.Store
	rename   map[string]string // nil when every fact is copied unchanged
	done     settled
}

// step is one task-control step resolved to what it activates or transfers;
// exactly one field is set.
type step struct {
	child Component
	link  *link
}

// NewComposed constructs a composed component. Task control steps are run in
// order, repeatedly, until a full pass changes nothing (quiescence), bounded
// by maxCycles (0 means the default of 32).
func NewComposed(name string, ont *kb.Ontology, maxCycles int) *Composed {
	if maxCycles <= 0 {
		maxCycles = 32
	}
	return &Composed{
		name:      name,
		input:     kb.NewStore(ont),
		output:    kb.NewStore(ont),
		children:  make(map[string]Component),
		links:     make(map[string]*link),
		maxCycles: maxCycles,
	}
}

// Name returns the component name.
func (c *Composed) Name() string { return c.name }

// Input returns the input information state.
func (c *Composed) Input() *kb.Store { return c.input }

// Output returns the output information state.
func (c *Composed) Output() *kb.Store { return c.output }

// AddChild registers a sub-component.
func (c *Composed) AddChild(child Component) error {
	if _, ok := c.children[child.Name()]; ok {
		return fmt.Errorf("desire: duplicate child %q in %q", child.Name(), c.name)
	}
	c.children[child.Name()] = child
	return nil
}

// Child returns a registered sub-component.
func (c *Composed) Child(name string) (Component, error) {
	ch, ok := c.children[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q in %q", ErrUnknownComponent, name, c.name)
	}
	return ch, nil
}

// AddLink registers an information link after validating its endpoints.
func (c *Composed) AddLink(l Link) error {
	if l.Name == "" {
		return fmt.Errorf("%w: link must be named", ErrBadLink)
	}
	if _, ok := c.links[l.Name]; ok {
		return fmt.Errorf("desire: duplicate link %q in %q", l.Name, c.name)
	}
	src, err := c.resolve(l.From, true)
	if err != nil {
		return fmt.Errorf("link %q: %w", l.Name, err)
	}
	dst, err := c.resolve(l.To, false)
	if err != nil {
		return fmt.Errorf("link %q: %w", l.Name, err)
	}
	added := &link{name: l.Name, src: src, dst: dst}
	if len(l.Map) > 0 {
		added.rename = make(map[string]string, len(l.Map))
		for _, m := range l.Map {
			added.rename[m.From] = m.To
		}
	}
	c.links[l.Name] = added
	return nil
}

// SetControl installs the task-control sequence after validating every step.
func (c *Composed) SetControl(steps []Step) error {
	control := make([]step, 0, len(steps))
	for i, s := range steps {
		switch {
		case s.Activate != "" && s.Transfer != "":
			return fmt.Errorf("desire: step %d in %q sets both Activate and Transfer", i, c.name)
		case s.Activate != "":
			ch, ok := c.children[s.Activate]
			if !ok {
				return fmt.Errorf("%w: step %d activates %q", ErrUnknownComponent, i, s.Activate)
			}
			control = append(control, step{child: ch})
		case s.Transfer != "":
			l, ok := c.links[s.Transfer]
			if !ok {
				return fmt.Errorf("desire: step %d transfers unknown link %q", i, s.Transfer)
			}
			control = append(control, step{link: l})
		default:
			return fmt.Errorf("desire: step %d in %q is empty", i, c.name)
		}
	}
	c.control = control
	return nil
}

// resolve maps an endpoint to its backing store. asSource selects the
// reading side: for the enclosing component (Component == "") the input state
// is readable and the output state writable, which is the inversion DESIRE
// applies at composition boundaries.
func (c *Composed) resolve(e Endpoint, asSource bool) (*kb.Store, error) {
	if e.Component == "" {
		switch e.Port {
		case In:
			if !asSource {
				return nil, fmt.Errorf("%w: own input is not a link target", ErrUnknownPort)
			}
			return c.input, nil
		case Out:
			if asSource {
				return nil, fmt.Errorf("%w: own output is not a link source", ErrUnknownPort)
			}
			return c.output, nil
		default:
			return nil, ErrUnknownPort
		}
	}
	ch, ok := c.children[e.Component]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownComponent, e.Component)
	}
	switch e.Port {
	case In:
		return ch.Input(), nil
	case Out:
		return ch.Output(), nil
	default:
		return nil, ErrUnknownPort
	}
}

// transfer copies matching facts across a link, reporting change. It does
// nothing while source and destination are what the previous transfer left.
func (l *link) transfer() (bool, error) {
	if l.done.holds(l.src, l.dst) {
		return false, nil
	}
	changed := false
	err := l.src.Each(func(f kb.Fact) error {
		atom := f.Atom
		if l.rename != nil {
			to, ok := l.rename[atom.Pred]
			if !ok {
				return nil
			}
			atom = kb.Atom{Pred: to, Args: atom.Args}
		}
		if l.dst.TruthOf(atom) == f.Truth {
			return nil
		}
		if err := l.dst.Assert(atom, f.Truth); err != nil {
			return err
		}
		changed = true
		return nil
	})
	if err != nil {
		return changed, fmt.Errorf("link %q: %w", l.name, err)
	}
	l.done.mark(l.src, l.dst)
	return changed, nil
}

// Activate runs the task-control sequence to quiescence. The cycle that
// confirms quiescence costs a version comparison per step: links and
// reasoning components skip work whose inputs and outputs have not changed.
func (c *Composed) Activate() (bool, error) {
	anyChange := false
	for cycle := 0; cycle < c.maxCycles; cycle++ {
		changed := false
		for _, s := range c.control {
			var did bool
			var err error
			if s.child != nil {
				did, err = s.child.Activate()
			} else {
				did, err = s.link.transfer()
			}
			if err != nil {
				return anyChange, fmt.Errorf("composed %q: %w", c.name, err)
			}
			changed = changed || did
		}
		if !changed {
			return anyChange, nil
		}
		anyChange = true
	}
	return anyChange, fmt.Errorf("%w: %q after %d cycles", ErrNoFixpoint, c.name, c.maxCycles)
}

// Run is a convenience driver: it asserts the given facts on the component's
// input, activates it, and returns the output facts.
func Run(c Component, facts []kb.Fact) ([]kb.Fact, error) {
	for _, f := range facts {
		if err := c.Input().Assert(f.Atom, f.Truth); err != nil {
			return nil, fmt.Errorf("desire: seed %s: %w", f.Atom, err)
		}
	}
	if _, err := c.Activate(); err != nil {
		return nil, err
	}
	return c.Output().Facts(), nil
}

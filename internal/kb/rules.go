package kb

import (
	"fmt"
	"strings"
)

// Guard is a numeric side-condition in a rule antecedent, comparing two terms
// after substitution. DESIRE knowledge bases routinely contain arithmetic
// comparisons such as "offered reward >= required reward"; guards provide
// exactly that without a full arithmetic theory.
type Guard struct {
	Op    GuardOp
	Left  Term
	Right Term
}

// GuardOp enumerates the comparison operators usable in guards.
type GuardOp int

// Guard operators.
const (
	OpEq GuardOp = iota + 1
	OpNeq
	OpLt
	OpLeq
	OpGt
	OpGeq
)

// String renders the operator symbol.
func (op GuardOp) String() string {
	switch op {
	case OpEq:
		return "=="
	case OpNeq:
		return "!="
	case OpLt:
		return "<"
	case OpLeq:
		return "<="
	case OpGt:
		return ">"
	case OpGeq:
		return ">="
	default:
		return "?"
	}
}

// Eval evaluates the guard under a binding. Numeric operands compare
// numerically; any other ground operands compare by structural equality
// (only for == and !=). Unbound variables make the guard fail.
func (g Guard) Eval(b Binding) bool {
	return g.Op.holds(substitute(g.Left, b), substitute(g.Right, b))
}

// holds compares two substituted operands.
func (op GuardOp) holds(l, r Term) bool {
	if !l.IsGround() || !r.IsGround() {
		return false
	}
	if l.Kind == KindNumber && r.Kind == KindNumber {
		switch op {
		case OpEq:
			return l.Num == r.Num
		case OpNeq:
			return l.Num != r.Num
		case OpLt:
			return l.Num < r.Num
		case OpLeq:
			return l.Num <= r.Num
		case OpGt:
			return l.Num > r.Num
		case OpGeq:
			return l.Num >= r.Num
		}
		return false
	}
	switch op {
	case OpEq:
		return l.Equal(r)
	case OpNeq:
		return !l.Equal(r)
	default:
		return false
	}
}

// String renders the guard.
func (g Guard) String() string {
	return fmt.Sprintf("%s %s %s", g.Left, g.Op, g.Right)
}

// Literal is an atom or its negation inside a rule antecedent. Negation is
// negation-as-unknown over the current store: "not p" succeeds when p is not
// explicitly True.
type Literal struct {
	Atom    Atom
	Negated bool
}

// Pos returns a positive literal.
func Pos(a Atom) Literal { return Literal{Atom: a} }

// Neg returns a negated literal.
func Neg(a Atom) Literal { return Literal{Atom: a, Negated: true} }

// String renders the literal.
func (l Literal) String() string {
	if l.Negated {
		return "not " + l.Atom.String()
	}
	return l.Atom.String()
}

// Rule is an if-then rule: when every antecedent literal is satisfied (and
// every guard passes) under some binding, each consequent atom is asserted
// True under that binding. Negated antecedents must not bind new variables
// (they are checks, not generators), mirroring safe Datalog.
type Rule struct {
	Name      string
	If        []Literal
	Guards    []Guard
	Then      []Atom
	ThenFalse []Atom // consequents asserted False (DESIRE supports explicit negative conclusions)
}

// Validate performs static safety checks: every variable in a consequent or
// negated literal or guard must occur in some positive antecedent literal.
func (r Rule) Validate() error {
	bound := make(map[string]bool)
	for _, l := range r.If {
		if l.Negated {
			continue
		}
		for _, t := range l.Atom.Args {
			if t.Kind == KindVar {
				bound[t.Name] = true
			}
		}
	}
	check := func(where string, ts []Term) error {
		for _, t := range ts {
			if t.Kind == KindVar && !bound[t.Name] {
				return fmt.Errorf("kb: rule %q: unbound variable ?%s in %s", r.Name, t.Name, where)
			}
		}
		return nil
	}
	for _, l := range r.If {
		if !l.Negated {
			continue
		}
		if err := check("negated antecedent "+l.Atom.String(), l.Atom.Args); err != nil {
			return err
		}
	}
	for _, g := range r.Guards {
		if err := check("guard "+g.String(), []Term{g.Left, g.Right}); err != nil {
			return err
		}
	}
	for _, a := range r.Then {
		if err := check("consequent "+a.String(), a.Args); err != nil {
			return err
		}
	}
	for _, a := range r.ThenFalse {
		if err := check("negative consequent "+a.String(), a.Args); err != nil {
			return err
		}
	}
	return nil
}

// String renders the rule.
func (r Rule) String() string {
	var b strings.Builder
	b.WriteString(r.Name)
	b.WriteString(": if ")
	parts := make([]string, 0, len(r.If)+len(r.Guards))
	for _, l := range r.If {
		parts = append(parts, l.String())
	}
	for _, g := range r.Guards {
		parts = append(parts, g.String())
	}
	b.WriteString(strings.Join(parts, " and "))
	b.WriteString(" then ")
	outs := make([]string, 0, len(r.Then)+len(r.ThenFalse))
	for _, a := range r.Then {
		outs = append(outs, a.String())
	}
	for _, a := range r.ThenFalse {
		outs = append(outs, "not "+a.String())
	}
	b.WriteString(strings.Join(outs, " and "))
	return b.String()
}

// Base is a knowledge base: a named collection of rules. Bases compose per
// DESIRE's knowledge composition (Compose). A Base is read-only once built —
// any number of engines may share one — so Rules must not be modified after
// NewBase or Compose returns.
type Base struct {
	Name  string
	Rules []Rule
	// prog is Rules compiled for Engine; nil on a Base built as a literal,
	// which NewEngine then compiles itself.
	prog *program
}

// NewBase validates all rules and constructs a Base.
func NewBase(name string, rules ...Rule) (*Base, error) {
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	rules = append([]Rule(nil), rules...)
	return &Base{Name: name, Rules: rules, prog: compile(rules)}, nil
}

// Compose concatenates several knowledge bases into one, preserving rule
// order (earlier bases' rules fire first within each fixpoint pass).
func Compose(name string, bases ...*Base) *Base {
	var rules []Rule
	for _, b := range bases {
		rules = append(rules, b.Rules...)
	}
	return &Base{Name: name, Rules: rules, prog: compile(rules)}
}

// program is a rule base compiled for evaluation: variables numbered into
// frame slots per rule, predicates numbered across the base.
type program struct {
	rules    []crule
	preds    int // number of distinct predicates
	maxVars  int // widest rule frame
	maxArity int // widest literal or consequent
}

// crule is one compiled rule.
type crule struct {
	name   string
	lits   []cliteral
	guards []cguard
	then   []catom // positive consequents, then negative ones
	vars   int     // frame width
	reads  []int   // predicate numbers of the antecedent literals
}

// cliteral is one compiled antecedent literal.
type cliteral struct {
	src     Atom
	args    []pterm
	negated bool
	// unbound marks a negated literal that names a variable no earlier
	// positive literal binds: reaching it is an evaluation error.
	unbound bool
}

// cguard is one compiled guard.
type cguard struct {
	op          GuardOp
	left, right pterm
}

// catom is one compiled consequent.
type catom struct {
	src   Atom
	args  []pterm
	pred  int // predicate number
	truth Truth
}

// compile numbers every rule's variables and the base's predicates.
func compile(rules []Rule) *program {
	p := &program{rules: make([]crule, 0, len(rules))}
	var preds varTable
	pred := func(name string) (n int) {
		preds, n, _ = preds.slot(name)
		return n
	}
	for _, r := range rules {
		var vars varTable
		// read compiles an occurrence that reads its variable; a positive
		// literal then marks the occurrences that bind instead.
		read := func(t Term) pterm {
			pt := pterm{t: t, slot: -1}
			if t.Kind == KindVar {
				vars, pt.slot, _ = vars.slot(t.Name)
			}
			return pt
		}
		reads := func(ts []Term) []pterm {
			out := make([]pterm, len(ts))
			for i, t := range ts {
				out[i] = read(t)
			}
			return out
		}
		c := crule{name: r.Name}
		bound := make(map[int]bool)
		for _, l := range r.If {
			cl := cliteral{src: l.Atom, args: reads(l.Atom.Args), negated: l.Negated}
			for i := range cl.args {
				a := &cl.args[i]
				switch {
				case a.slot < 0 || bound[a.slot]:
				case l.Negated:
					cl.unbound = true
				default:
					a.bind = true
					bound[a.slot] = true
				}
			}
			c.lits = append(c.lits, cl)
			c.reads = append(c.reads, pred(l.Atom.Pred))
		}
		for _, g := range r.Guards {
			c.guards = append(c.guards, cguard{op: g.Op, left: read(g.Left), right: read(g.Right)})
		}
		for _, a := range r.Then {
			c.then = append(c.then, catom{src: a, args: reads(a.Args), pred: pred(a.Pred), truth: True})
		}
		for _, a := range r.ThenFalse {
			c.then = append(c.then, catom{src: a, args: reads(a.Args), pred: pred(a.Pred), truth: False})
		}
		c.vars = len(vars)
		p.maxVars = max(p.maxVars, c.vars)
		for _, l := range c.lits {
			p.maxArity = max(p.maxArity, len(l.args))
		}
		for _, a := range c.then {
			p.maxArity = max(p.maxArity, len(a.args))
		}
		p.rules = append(p.rules, c)
	}
	p.preds = len(preds)
	return p
}

// Engine evaluates a knowledge base against a store by forward chaining. An
// Engine keeps scratch space between calls, so one engine serves one
// goroutine at a time; engines are cheap and may share a Base.
type Engine struct {
	base *Base
	prog *program
	// MaxPasses bounds fixpoint iteration as a defence against pathological
	// rule sets; 0 means the default.
	MaxPasses int

	frame []Term // the variable slots of the rule being evaluated
	args  []Term // one literal or consequent, ground, while it is looked up
	// rows holds the frames that satisfy the current rule's antecedent, end
	// to end; solutions counts them (a rule without variables has frames of
	// no width).
	rows      []Term
	solutions int
	// derivedAt[p] is the tick of the latest evaluation that derived a fact of
	// predicate p, evaluatedAt[r] the tick of rule r's latest evaluation; both
	// are 0 before the first. A tick is one rule evaluation within an Infer,
	// counted from 1.
	derivedAt   []int
	evaluatedAt []int
}

// NewEngine returns an engine for the given base.
func NewEngine(base *Base) *Engine {
	prog := base.prog
	if prog == nil {
		prog = compile(base.Rules)
	}
	return &Engine{base: base, prog: prog}
}

const defaultMaxPasses = 64

// Infer applies the rules to the store until no pass derives a new fact,
// returning the facts derived (in derivation order). Positive consequents are
// asserted True, negative consequents False. A consequent never downgrades an
// existing value: once a store holds True or False for an atom, conflicting
// derivations are reported as an error, matching DESIRE's consistency
// requirement on information states.
//
// Each pass visits the rules in order. After the first pass a rule is
// evaluated only if a fact of a predicate its antecedent names — positively or
// negated — was derived since the rule's own previous evaluation: otherwise
// its antecedent has the solutions it had then, whose consequents the store
// already holds, so evaluating it could neither derive nor conflict. Passes,
// derivation order and errors are those of evaluating every rule every pass.
func (e *Engine) Infer(s *Store) ([]Fact, error) {
	maxPasses := e.MaxPasses
	if maxPasses <= 0 {
		maxPasses = defaultMaxPasses
	}
	if e.frame == nil {
		terms := make([]Term, e.prog.maxVars+e.prog.maxArity)
		e.frame, e.args = terms[:e.prog.maxVars:e.prog.maxVars], terms[e.prog.maxVars:]
		ticks := make([]int, e.prog.preds+len(e.prog.rules))
		e.derivedAt, e.evaluatedAt = ticks[:e.prog.preds], ticks[e.prog.preds:]
	}
	clear(e.derivedAt)
	clear(e.evaluatedAt)
	var derived []Fact
	tick := 1
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for ri := range e.prog.rules {
			r := &e.prog.rules[ri]
			if pass > 0 && !e.stale(r, ri) {
				continue
			}
			e.evaluatedAt[ri] = tick
			e.rows, e.solutions = e.rows[:0], 0
			clear(e.frame)
			if err := e.solve(s, r, 0); err != nil {
				return derived, err
			}
			before := len(derived)
			for k := 0; k < e.solutions; k++ {
				if err := e.applyConsequents(s, r, e.rows[k*r.vars:(k+1)*r.vars], tick, &derived); err != nil {
					return derived, err
				}
			}
			changed = changed || len(derived) > before
			tick++
		}
		if !changed {
			return derived, nil
		}
	}
	return derived, fmt.Errorf("kb: base %q did not reach a fixpoint within %d passes", e.base.Name, maxPasses)
}

// stale reports whether a fact the rule's antecedent could see was derived
// since the rule was last evaluated. A rule's own derivations carry its own
// tick, so a rule that reads what it derives is stale after deriving.
func (e *Engine) stale(r *crule, ri int) bool {
	for _, p := range r.reads {
		if e.derivedAt[p] >= e.evaluatedAt[ri] {
			return true
		}
	}
	return false
}

// solve enumerates the frames satisfying the rule's antecedent from literal
// li on, depth first, appending each that also passes the guards to e.rows.
// The store is only read, so the order is: facts of the first positive
// literal in insertion order, within each the facts of the second, and so on.
func (e *Engine) solve(s *Store, r *crule, li int) error {
	if li == len(r.lits) {
		for _, g := range r.guards {
			if !g.op.holds(g.left.value(e.frame), g.right.value(e.frame)) {
				return nil
			}
		}
		e.rows = append(e.rows, e.frame[:r.vars]...)
		e.solutions++
		return nil
	}
	l := &r.lits[li]
	if l.negated {
		if l.unbound {
			return fmt.Errorf("kb: rule %q: negated literal %s not ground at evaluation", r.name, l.src)
		}
		if s.TruthOf(Atom{Pred: l.src.Pred, Args: ground(l.args, e.frame, e.args[:0])}) == True {
			return nil
		}
		return e.solve(s, r, li+1)
	}
	for i := s.matchFrom(s.firstOf(l.src.Pred), l.args, e.frame); i >= 0; i = s.matchFrom(s.entries[i].nextPred, l.args, e.frame) {
		if err := e.solve(s, r, li+1); err != nil {
			return err
		}
	}
	return nil
}

// applyConsequents asserts a rule's consequents under one frame, appending
// what the store did not already hold to derived.
func (e *Engine) applyConsequents(s *Store, r *crule, frame []Term, tick int, derived *[]Fact) error {
	for ci := range r.then {
		c := &r.then[ci]
		g := Atom{Pred: c.src.Pred, Args: ground(c.args, frame, e.args[:0])}
		if !g.IsGround() {
			return fmt.Errorf("kb: rule %q: consequent %s not ground", r.name, c.src)
		}
		switch cur := s.TruthOf(g); cur {
		case c.truth:
		case Unknown:
			// The store keeps the atom: give it arguments of its own.
			g.Args = append([]Term(nil), g.Args...)
			if err := s.Assert(g, c.truth); err != nil {
				return fmt.Errorf("kb: rule %q: %w", r.name, err)
			}
			*derived = append(*derived, Fact{Atom: g, Truth: c.truth})
			e.derivedAt[c.pred] = tick
		default:
			return fmt.Errorf("kb: rule %q derives %s = %s but store holds %s", r.name, g, c.truth, cur)
		}
	}
	return nil
}

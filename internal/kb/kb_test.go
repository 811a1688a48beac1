package kb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// domainOntology builds a small load-management ontology used across tests.
func domainOntology(t *testing.T) *Ontology {
	t.Helper()
	o := NewOntology()
	steps := []error{
		o.DeclareSort("agent", SortAny),
		o.DeclareSort("customer", "agent"),
		o.DeclareSort("utility", "agent"),
		o.DeclareConst("ua", "utility"),
		o.DeclareConst("c1", "customer"),
		o.DeclareConst("c2", "customer"),
		o.DeclarePred("offered_reward", SortNumber, SortNumber),              // cutdown, reward
		o.DeclarePred("required_reward", "customer", SortNumber, SortNumber), // who, cutdown, reward
		o.DeclarePred("acceptable", "customer", SortNumber),
		o.DeclarePred("responded", "customer"),
		o.DeclarePred("silent", "customer"),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatalf("ontology setup: %v", err)
		}
	}
	return o
}

func TestOntologyDeclarationErrors(t *testing.T) {
	o := NewOntology()
	if err := o.DeclareSort("agent", SortAny); err != nil {
		t.Fatalf("DeclareSort: %v", err)
	}
	if err := o.DeclareSort("agent", SortAny); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate sort error = %v, want ErrDuplicate", err)
	}
	if err := o.DeclareSort("ghost", "nosuch"); !errors.Is(err, ErrUnknownSort) {
		t.Fatalf("unknown parent error = %v, want ErrUnknownSort", err)
	}
	if err := o.DeclareConst("x", "nosuch"); !errors.Is(err, ErrUnknownSort) {
		t.Fatalf("const with unknown sort error = %v, want ErrUnknownSort", err)
	}
	if err := o.DeclarePred("p", "nosuch"); !errors.Is(err, ErrUnknownSort) {
		t.Fatalf("pred with unknown sort error = %v, want ErrUnknownSort", err)
	}
}

func TestIsSubsort(t *testing.T) {
	o := domainOntology(t)
	tests := []struct {
		sub, super string
		want       bool
	}{
		{"customer", "agent", true},
		{"customer", SortAny, true},
		{"customer", "customer", true},
		{"agent", "customer", false},
		{"utility", "customer", false},
		{SortNumber, SortAny, true},
	}
	for _, tt := range tests {
		if got := o.IsSubsort(tt.sub, tt.super); got != tt.want {
			t.Errorf("IsSubsort(%q, %q) = %v, want %v", tt.sub, tt.super, got, tt.want)
		}
	}
}

func TestCheckAtom(t *testing.T) {
	o := domainOntology(t)
	tests := []struct {
		name    string
		give    Atom
		wantErr error
	}{
		{name: "ok", give: A("acceptable", C("c1"), N(0.4))},
		{name: "unknown pred", give: A("nosuch", C("c1")), wantErr: ErrUnknownPredicate},
		{name: "arity", give: A("acceptable", C("c1")), wantErr: ErrArity},
		{name: "sort mismatch", give: A("acceptable", C("ua"), N(0.4)), wantErr: ErrSortMismatch},
		{name: "unknown const", give: A("acceptable", C("c9"), N(0.4)), wantErr: ErrUnknownConstant},
		{name: "not ground", give: A("acceptable", V("X"), N(0.4)), wantErr: ErrNotGround},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := o.CheckAtom(tt.give); !errors.Is(err, tt.wantErr) {
				t.Fatalf("CheckAtom error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestOntologyMerge(t *testing.T) {
	a := NewOntology()
	if err := a.DeclareSort("agent", SortAny); err != nil {
		t.Fatal(err)
	}
	if err := a.DeclarePred("p", "agent"); err != nil {
		t.Fatal(err)
	}
	b := NewOntology()
	if err := b.DeclareSort("agent", SortAny); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareConst("x", "agent"); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if _, err := a.SortOfConst("x"); err != nil {
		t.Fatalf("merged constant missing: %v", err)
	}

	c := NewOntology()
	if err := c.DeclareSort("agent", SortAny); err != nil {
		t.Fatal(err)
	}
	if err := c.DeclarePred("p", SortNumber); err != nil { // conflicting signature
		t.Fatal(err)
	}
	if err := a.Merge(c); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("conflicting merge error = %v, want ErrDuplicate", err)
	}
}

func TestStoreAssertAndTruth(t *testing.T) {
	o := domainOntology(t)
	s := NewStore(o)
	atom := A("acceptable", C("c1"), N(0.4))
	if got := s.TruthOf(atom); got != Unknown {
		t.Fatalf("fresh store truth = %v, want Unknown", got)
	}
	if err := s.Assert(atom, True); err != nil {
		t.Fatalf("Assert: %v", err)
	}
	if !s.Holds(atom) {
		t.Fatal("atom should hold after Assert(True)")
	}
	if err := s.Assert(atom, False); err != nil {
		t.Fatalf("Assert(False): %v", err)
	}
	if got := s.TruthOf(atom); got != False {
		t.Fatalf("truth = %v, want False", got)
	}
	if err := s.Assert(atom, Unknown); err != nil {
		t.Fatalf("Assert(Unknown): %v", err)
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Len = %d, want 0", got)
	}
}

func TestStoreRejectsBadAtoms(t *testing.T) {
	o := domainOntology(t)
	s := NewStore(o)
	if err := s.Assert(A("acceptable", V("X"), N(0.4)), True); !errors.Is(err, ErrNotGround) {
		t.Fatalf("non-ground assert error = %v, want ErrNotGround", err)
	}
	if err := s.Assert(A("nosuch", C("c1")), True); !errors.Is(err, ErrUnknownPredicate) {
		t.Fatalf("unknown predicate error = %v, want ErrUnknownPredicate", err)
	}
}

func TestStoreQueryAndMatch(t *testing.T) {
	o := domainOntology(t)
	s := NewStore(o)
	mustAssert(t, s, A("required_reward", C("c1"), N(0.3), N(10)))
	mustAssert(t, s, A("required_reward", C("c1"), N(0.4), N(21)))
	mustAssert(t, s, A("required_reward", C("c2"), N(0.4), N(15)))

	got := s.Query(A("required_reward", C("c1"), V("Cut"), V("Req")))
	if len(got) != 2 {
		t.Fatalf("query returned %d atoms, want 2", len(got))
	}
	for _, a := range got {
		if a.Args[0].Name != "c1" {
			t.Fatalf("query leaked other customer: %s", a)
		}
	}

	// Repeated-variable pattern: same variable must bind consistently.
	mustAssert(t, s, A("offered_reward", N(0.4), N(0.4)))
	same := s.Match(A("offered_reward", V("X"), V("X")), nil)
	if len(same) != 1 {
		t.Fatalf("repeated-variable match = %d, want 1", len(same))
	}
}

func TestStoreCloneIsolation(t *testing.T) {
	o := domainOntology(t)
	s := NewStore(o)
	mustAssert(t, s, A("responded", C("c1")))
	c := s.Clone()
	mustAssert(t, c, A("responded", C("c2")))
	if s.Holds(A("responded", C("c2"))) {
		t.Fatal("mutating clone affected original")
	}
	if !c.Holds(A("responded", C("c1"))) {
		t.Fatal("clone lost original fact")
	}
}

func TestGuardEval(t *testing.T) {
	tests := []struct {
		name string
		g    Guard
		b    Binding
		want bool
	}{
		{name: "geq true", g: Guard{Op: OpGeq, Left: V("A"), Right: N(10)}, b: Binding{"A": N(17)}, want: true},
		{name: "geq false", g: Guard{Op: OpGeq, Left: V("A"), Right: N(10)}, b: Binding{"A": N(9)}, want: false},
		{name: "lt", g: Guard{Op: OpLt, Left: N(1), Right: N(2)}, b: Binding{}, want: true},
		{name: "unbound", g: Guard{Op: OpEq, Left: V("Z"), Right: N(1)}, b: Binding{}, want: false},
		{name: "const eq", g: Guard{Op: OpEq, Left: C("c1"), Right: C("c1")}, b: Binding{}, want: true},
		{name: "const neq", g: Guard{Op: OpNeq, Left: C("c1"), Right: C("c2")}, b: Binding{}, want: true},
		{name: "const lt invalid", g: Guard{Op: OpLt, Left: C("c1"), Right: C("c2")}, b: Binding{}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.Eval(tt.b); got != tt.want {
				t.Fatalf("Eval = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRuleValidateUnboundVariables(t *testing.T) {
	r := Rule{
		Name: "bad",
		If:   []Literal{Pos(A("responded", V("C")))},
		Then: []Atom{A("acceptable", V("D"), N(0.1))}, // D unbound
	}
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "?D") {
		t.Fatalf("Validate error = %v, want unbound ?D", err)
	}
	neg := Rule{
		Name: "badneg",
		If:   []Literal{Neg(A("responded", V("C")))},
	}
	if err := neg.Validate(); err == nil {
		t.Fatal("negated literal with unbound var should fail validation")
	}
}

// TestInferAcceptability exercises the exact knowledge pattern the Customer
// Agent uses (Section 6.2): a cut-down is acceptable when the offered reward
// meets the customer's required reward.
func TestInferAcceptability(t *testing.T) {
	o := domainOntology(t)
	s := NewStore(o)
	mustAssert(t, s, A("required_reward", C("c1"), N(0.3), N(10)))
	mustAssert(t, s, A("required_reward", C("c1"), N(0.4), N(21)))
	mustAssert(t, s, A("offered_reward", N(0.3), N(12.75)))
	mustAssert(t, s, A("offered_reward", N(0.4), N(17)))

	rule := Rule{
		Name: "acceptable_cutdown",
		If: []Literal{
			Pos(A("required_reward", V("C"), V("Cut"), V("Req"))),
			Pos(A("offered_reward", V("Cut"), V("Off"))),
		},
		Guards: []Guard{{Op: OpGeq, Left: V("Off"), Right: V("Req")}},
		Then:   []Atom{A("acceptable", V("C"), V("Cut"))},
	}
	base, err := NewBase("ca", rule)
	if err != nil {
		t.Fatal(err)
	}
	derived, err := NewEngine(base).Infer(s)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if len(derived) != 1 {
		t.Fatalf("derived %d facts, want 1: %v", len(derived), derived)
	}
	if !s.Holds(A("acceptable", C("c1"), N(0.3))) {
		t.Fatal("0.3 should be acceptable (12.75 >= 10)")
	}
	if s.Holds(A("acceptable", C("c1"), N(0.4))) {
		t.Fatal("0.4 should not be acceptable (17 < 21)")
	}
}

func TestInferNegationAsUnknown(t *testing.T) {
	o := domainOntology(t)
	s := NewStore(o)
	mustAssert(t, s, A("required_reward", C("c1"), N(0.3), N(10)))
	mustAssert(t, s, A("required_reward", C("c2"), N(0.3), N(10)))
	mustAssert(t, s, A("responded", C("c1")))

	rule := Rule{
		Name: "mark_silent",
		If: []Literal{
			Pos(A("required_reward", V("C"), V("Cut"), V("Req"))),
			Neg(A("responded", V("C"))),
		},
		Then: []Atom{A("silent", V("C"))},
	}
	base, err := NewBase("sentinel", rule)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(base).Infer(s); err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if s.Holds(A("silent", C("c1"))) {
		t.Fatal("c1 responded; must not be silent")
	}
	if !s.Holds(A("silent", C("c2"))) {
		t.Fatal("c2 did not respond; must be silent")
	}
}

func TestInferChainsToFixpoint(t *testing.T) {
	o := NewOntology()
	if err := o.DeclarePred("n", SortNumber); err != nil {
		t.Fatal(err)
	}
	s := NewStore(o)
	mustAssert(t, s, A("n", N(0)))
	// n(X) and X < 5 then n(X+1) cannot be expressed without arithmetic
	// construction; emulate a chain with explicit rules instead.
	var rules []Rule
	for i := 0; i < 5; i++ {
		rules = append(rules, Rule{
			Name: "step",
			If:   []Literal{Pos(A("n", N(float64(i))))},
			Then: []Atom{A("n", N(float64(i+1)))},
		})
	}
	base, err := NewBase("chain", rules...)
	if err != nil {
		t.Fatal(err)
	}
	derived, err := NewEngine(base).Infer(s)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if len(derived) != 5 {
		t.Fatalf("derived %d, want 5", len(derived))
	}
	if !s.Holds(A("n", N(5))) {
		t.Fatal("chain did not reach n(5)")
	}
}

func TestInferConflictIsError(t *testing.T) {
	o := NewOntology()
	if err := o.DeclarePred("p", SortNumber); err != nil {
		t.Fatal(err)
	}
	if err := o.DeclarePred("q", SortNumber); err != nil {
		t.Fatal(err)
	}
	s := NewStore(o)
	mustAssert(t, s, A("p", N(1)))
	pos := Rule{Name: "pos", If: []Literal{Pos(A("p", V("X")))}, Then: []Atom{A("q", V("X"))}}
	neg := Rule{Name: "neg", If: []Literal{Pos(A("p", V("X")))}, ThenFalse: []Atom{A("q", V("X"))}}
	base, err := NewBase("conflict", pos, neg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(base).Infer(s); err == nil {
		t.Fatal("conflicting derivation should be an error")
	}
}

func TestComposeBasesPreservesOrder(t *testing.T) {
	r1 := Rule{Name: "r1", If: []Literal{Pos(A("p", V("X")))}, Then: []Atom{A("q", V("X"))}}
	r2 := Rule{Name: "r2", If: []Literal{Pos(A("q", V("X")))}, Then: []Atom{A("r", V("X"))}}
	b1, err := NewBase("b1", r1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := NewBase("b2", r2)
	if err != nil {
		t.Fatal(err)
	}
	c := Compose("both", b1, b2)
	if len(c.Rules) != 2 || c.Rules[0].Name != "r1" || c.Rules[1].Name != "r2" {
		t.Fatalf("composed rules = %+v", c.Rules)
	}

	o := NewOntology()
	for _, p := range []string{"p", "q", "r"} {
		if err := o.DeclarePred(p, SortNumber); err != nil {
			t.Fatal(err)
		}
	}
	s := NewStore(o)
	mustAssert(t, s, A("p", N(7)))
	if _, err := NewEngine(c).Infer(s); err != nil {
		t.Fatal(err)
	}
	if !s.Holds(A("r", N(7))) {
		t.Fatal("composed base did not chain p -> q -> r")
	}
}

func TestInferRunawayIsBounded(t *testing.T) {
	// A rule that keeps deriving new facts every pass cannot exist in this
	// fragment (consequent terms come from antecedent bindings), so emulate a
	// low pass bound with a deep chain to exercise the bound error path.
	o := NewOntology()
	if err := o.DeclarePred("n", SortNumber); err != nil {
		t.Fatal(err)
	}
	s := NewStore(o)
	mustAssert(t, s, A("n", N(0)))
	var rules []Rule
	for i := 0; i < 10; i++ {
		rules = append(rules, Rule{
			Name: "step",
			If:   []Literal{Pos(A("n", N(float64(i))))},
			Then: []Atom{A("n", N(float64(i+1)))},
		})
	}
	// Reverse rule order so each pass derives exactly one new fact.
	for i, j := 0, len(rules)-1; i < j; i, j = i+1, j-1 {
		rules[i], rules[j] = rules[j], rules[i]
	}
	base, err := NewBase("deep", rules...)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(base)
	e.MaxPasses = 3
	if _, err := e.Infer(s); err == nil {
		t.Fatal("expected fixpoint bound error")
	}
}

// Property: forward chaining is monotonic — every fact present before Infer
// is still present afterwards, and inference is idempotent.
func TestInferMonotoneProperty(t *testing.T) {
	o := domainOntology(t)
	rule := Rule{
		Name: "acceptable_cutdown",
		If: []Literal{
			Pos(A("required_reward", V("C"), V("Cut"), V("Req"))),
			Pos(A("offered_reward", V("Cut"), V("Off"))),
		},
		Guards: []Guard{{Op: OpGeq, Left: V("Off"), Right: V("Req")}},
		Then:   []Atom{A("acceptable", V("C"), V("Cut"))},
	}
	base, err := NewBase("ca", rule)
	if err != nil {
		t.Fatal(err)
	}
	f := func(req1, req2, off1, off2 uint8) bool {
		s := NewStore(o)
		mustAssertQ(s, A("required_reward", C("c1"), N(0.3), N(float64(req1))))
		mustAssertQ(s, A("required_reward", C("c2"), N(0.4), N(float64(req2))))
		mustAssertQ(s, A("offered_reward", N(0.3), N(float64(off1))))
		mustAssertQ(s, A("offered_reward", N(0.4), N(float64(off2))))
		before := s.Facts()
		if _, err := NewEngine(base).Infer(s); err != nil {
			return false
		}
		for _, f := range before {
			if s.TruthOf(f.Atom) != f.Truth {
				return false
			}
		}
		n := s.Len()
		if _, err := NewEngine(base).Infer(s); err != nil {
			return false
		}
		return s.Len() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	r := Rule{
		Name:   "acc",
		If:     []Literal{Pos(A("offered_reward", V("Cut"), V("Off"))), Neg(A("responded", C("c1")))},
		Guards: []Guard{{Op: OpGeq, Left: V("Off"), Right: N(10)}},
		Then:   []Atom{A("acceptable", C("c1"), V("Cut"))},
	}
	got := r.String()
	for _, want := range []string{"acc:", "offered_reward(?Cut, ?Off)", "not responded(c1)", "?Off >= 10", "acceptable(c1, ?Cut)"} {
		if !strings.Contains(got, want) {
			t.Fatalf("rule string %q missing %q", got, want)
		}
	}
	if got := (Fact{Atom: A("p", N(1)), Truth: False}).String(); got != "p(1) = false" {
		t.Fatalf("fact string = %q", got)
	}
	if got := Unknown.String(); got != "unknown" {
		t.Fatalf("Unknown.String = %q", got)
	}
}

func mustAssert(t *testing.T, s *Store, a Atom) {
	t.Helper()
	if err := s.Assert(a, True); err != nil {
		t.Fatalf("assert %s: %v", a, err)
	}
}

func mustAssertQ(s *Store, a Atom) {
	if err := s.Assert(a, True); err != nil {
		panic(err)
	}
}

// refStore is the store this package had before facts were hash-indexed: a
// map keyed by the atom's key string, Facts sorted by key, Match by scanning
// all facts and unifying with a binding cloned per variable, Infer evaluating
// every rule in every pass. It is the oracle the indexed store, the bucketed
// matcher and the change-driven engine are checked against. seq remembers
// when each fact was inserted, which the old store did not need to know.
type refStore struct {
	facts map[string]Fact
	seq   map[string]int
	next  int
	// cache holds sorted()'s two orders until the next mutation; without it a
	// rule that joins two large predicates sorts the store once per binding.
	cache [2][]Fact
}

func newRefStore() *refStore { return &refStore{facts: map[string]Fact{}, seq: map[string]int{}} }

func (s *refStore) assert(a Atom, tv Truth) error {
	if !a.IsGround() {
		return ErrNotGround
	}
	k := a.key()
	s.cache = [2][]Fact{}
	if tv == Unknown {
		delete(s.facts, k)
		delete(s.seq, k)
		return nil
	}
	if _, ok := s.facts[k]; !ok {
		s.seq[k] = s.next
		s.next++
	}
	s.facts[k] = Fact{Atom: a, Truth: tv}
	return nil
}

func (s *refStore) truthOf(a Atom) Truth { return s.facts[a.key()].Truth }

func (s *refStore) clone() *refStore {
	c := &refStore{facts: map[string]Fact{}, seq: map[string]int{}, next: s.next}
	for k, f := range s.facts {
		c.facts[k], c.seq[k] = f, s.seq[k]
	}
	return c
}

// sorted returns the facts ordered by key, or by insertion.
func (s *refStore) sorted(byInsertion bool) []Fact {
	slot := &s.cache[0]
	if byInsertion {
		slot = &s.cache[1]
	}
	if *slot != nil {
		return *slot
	}
	keys := make([]string, 0, len(s.facts))
	for k := range s.facts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if byInsertion {
			return s.seq[keys[i]] < s.seq[keys[j]]
		}
		return keys[i] < keys[j]
	})
	out := make([]Fact, 0, len(keys))
	for _, k := range keys {
		out = append(out, s.facts[k])
	}
	*slot = out
	return out
}

func refUnify(pattern, ground Term, b Binding) (Binding, bool) {
	pattern = substitute(pattern, b)
	if pattern.Kind == KindVar {
		nb := Binding{pattern.Name: ground}
		for k, v := range b {
			nb[k] = v
		}
		return nb, true
	}
	return b, pattern.Equal(ground)
}

func (s *refStore) match(pattern Atom, seed Binding, byInsertion bool) []Binding {
	if seed == nil {
		seed = Binding{}
	}
	var out []Binding
	for _, f := range s.sorted(byInsertion) {
		if f.Truth != True || f.Atom.Pred != pattern.Pred || len(f.Atom.Args) != len(pattern.Args) {
			continue
		}
		b, ok := seed, true
		for i := 0; ok && i < len(pattern.Args); i++ {
			b, ok = refUnify(pattern.Args[i], f.Atom.Args[i], b)
		}
		if ok {
			out = append(out, b)
		}
	}
	return out
}

// infer is the old Engine.Infer: every rule, every pass.
func (s *refStore) infer(rules []Rule) error {
	for pass := 0; pass < defaultMaxPasses; pass++ {
		changed := false
		for _, r := range rules {
			bindings := []Binding{{}}
			for _, l := range r.If {
				var next []Binding
				for _, b := range bindings {
					if !l.Negated {
						next = append(next, s.match(l.Atom, b, false)...)
					} else if g := SubstituteAtom(l.Atom, b); !g.IsGround() {
						return ErrNotGround
					} else if s.truthOf(g) != True {
						next = append(next, b)
					}
				}
				bindings = next
			}
		solutions:
			for _, b := range bindings {
				for _, g := range r.Guards {
					if !g.Eval(b) {
						continue solutions
					}
				}
				for i, a := range append(append([]Atom(nil), r.Then...), r.ThenFalse...) {
					tv := True
					if i >= len(r.Then) {
						tv = False
					}
					g := SubstituteAtom(a, b)
					switch cur := s.truthOf(g); {
					case !g.IsGround():
						return ErrNotGround
					case cur == Unknown:
						_ = s.assert(g, tv) // ground: checked above
						changed = true
					case cur != tv:
						return errors.New("conflict")
					}
				}
			}
		}
		if !changed {
			return nil
		}
	}
	return errors.New("no fixpoint")
}

// opStream decodes store operations from bytes: the seeded test feeds it
// random bytes, the fuzzer whatever it likes. An exhausted stream reads 0.
type opStream struct {
	data []byte
	pos  int
}

func (o *opStream) byte() int {
	if o.pos >= len(o.data) {
		return 0
	}
	o.pos++
	return int(o.data[o.pos-1])
}

// Ground terms that stress key equality (one NaN key whatever its payload,
// -0 and +0 two keys, a constant and a string that print alike) against
// unification's == (NaN matches nothing, -0 matches +0).
var termPool = []Term{
	C("a"), C("b"), S("a"), S(""), N(1), N(2.5), N(0), N(math.Copysign(0, -1)),
	N(math.NaN()), N(math.Float64frombits(0x7ff8000000000001)), N(math.Inf(1)),
}

func (o *opStream) ground() Term { return termPool[o.byte()%len(termPool)] }

// pattern draws a term that is a variable three times in eight.
func (o *opStream) pattern() Term {
	switch b := o.byte(); b % 8 {
	case 0, 1:
		return V("X")
	case 2:
		return V("Y")
	default:
		return termPool[b/8%len(termPool)]
	}
}

// atom draws p, q or r at arity 0 to 2, so one predicate name occurs at
// several arities.
func (o *opStream) atom(term func() Term) Atom {
	b := o.byte()
	a := Atom{Pred: []string{"p", "q", "r"}[b%3]}
	for i := 0; i < b/3%3; i++ {
		a.Args = append(a.Args, term())
	}
	return a
}

// rules draws a small rule base; ok is false when it does not validate.
func (o *opStream) rules() ([]Rule, bool) {
	var rules []Rule
	for n := 1 + o.byte()%3; n > 0; n-- {
		var r Rule
		for k := 1 + o.byte()%2; k > 0; k-- {
			r.If = append(r.If, Literal{Atom: o.atom(o.pattern), Negated: o.byte()%4 == 0})
		}
		if o.byte()%3 == 0 {
			r.Guards = []Guard{{Op: GuardOp(1 + o.byte()%6), Left: o.pattern(), Right: o.pattern()}}
		}
		if o.byte()%4 == 0 {
			r.ThenFalse = []Atom{o.atom(o.pattern)}
		} else {
			r.Then = []Atom{o.atom(o.pattern)}
		}
		if r.Validate() != nil {
			return nil, false
		}
		rules = append(rules, r)
	}
	return rules, true
}

func factKeys(facts []Fact) []string {
	out := make([]string, len(facts))
	for i, f := range facts {
		out[i] = f.Atom.key() + "=" + f.Truth.String()
	}
	return out
}

func bindingKeys(bs []Binding) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		names := make([]string, 0, len(b))
		for name := range b {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			out[i] += name + "=" + A("", b[name]).key() + ";"
		}
	}
	return out
}

func sortedCopy(v []string) []string {
	out := append([]string(nil), v...)
	sort.Strings(out)
	return out
}

// checkOps drives a Store and the reference through the operations the bytes
// encode and fails on the first disagreement: truth values, Len, Facts (key
// order), Each (insertion order), Match and Query (as sets against the old
// key order, exactly against insertion order), Infer (resulting facts, or an
// error from both). It returns how many retractions compacted the store.
func checkOps(t *testing.T, data []byte) (compactions int) {
	t.Helper()
	o := &opStream{data: data}
	st, ref := NewStore(nil), newRefStore()
	equal := func(what string, got, want []string) {
		t.Helper()
		if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("op %d: %s:\n got %q\nwant %q", o.pos, what, got, want)
		}
	}
	for o.pos < len(o.data) {
		switch op := o.byte() % 16; op {
		case 0, 1, 2, 3, 4:
			a, tv := o.atom(o.ground), []Truth{True, True, True, False, Unknown}[op]
			if err := st.Assert(a, tv); err != nil {
				t.Fatalf("op %d: Assert(%s, %s): %v", o.pos, a, tv, err)
			}
			_ = ref.assert(a, tv) // ground by construction
		case 5, 6, 7:
			a, before := o.atom(o.ground), len(st.entries)
			st.Retract(a)
			_ = ref.assert(a, Unknown)
			if len(st.entries) < before {
				compactions++
			}
		case 8:
			a := o.atom(o.ground)
			if got, want := st.TruthOf(a), ref.truthOf(a); got != want {
				t.Fatalf("op %d: TruthOf(%s) = %s, want %s", o.pos, a, got, want)
			}
		case 9, 10:
			p := o.atom(o.pattern)
			var seed Binding
			if o.byte()%3 == 0 {
				seed = Binding{"X": o.ground()}
			}
			got := bindingKeys(st.Match(p, seed))
			equal(fmt.Sprintf("Match(%s, %v) in insertion order", p, seed), got, bindingKeys(ref.match(p, seed, true)))
			equal(fmt.Sprintf("Match(%s, %v) as a set", p, seed), sortedCopy(got), sortedCopy(bindingKeys(ref.match(p, seed, false))))
		case 11:
			p := o.atom(o.pattern)
			var want []Fact
			for _, b := range ref.match(p, nil, true) {
				want = append(want, Fact{Atom: SubstituteAtom(p, b), Truth: True})
			}
			var got []Fact
			for _, a := range st.Query(p) {
				got = append(got, Fact{Atom: a, Truth: True})
			}
			equal(fmt.Sprintf("Query(%s)", p), factKeys(got), factKeys(want))
		case 12:
			if o.byte()%8 == 0 {
				st.Clear()
				ref = newRefStore()
			}
		case 13:
			// Go on with the clones; the originals take one more fact, which
			// the clones must not see.
			sc, rc := st.Clone(), ref.clone()
			if err := st.Assert(A("clone_isolation"), True); err != nil {
				t.Fatal(err)
			}
			st, ref = sc, rc
		case 14:
			a := o.atom(func() Term { return V("X") })
			if err := st.Assert(a, True); a.IsGround() == (err != nil) {
				t.Fatalf("op %d: Assert(%s) = %v", o.pos, a, err)
			}
			_ = ref.assert(a, True) // refuses what the store refused
		case 15:
			rules, ok := o.rules()
			if !ok {
				continue
			}
			base, err := NewBase("generated", rules...)
			if err != nil {
				t.Fatalf("op %d: NewBase after Validate: %v", o.pos, err)
			}
			sc, rc := st.Clone(), ref.clone()
			derived, gotErr := NewEngine(base).Infer(sc)
			wantErr := rc.infer(rules)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("op %d: Infer error = %v, reference error = %v\nrules %v\nfacts %q", o.pos, gotErr, wantErr, rules, factKeys(ref.sorted(true)))
			}
			if gotErr != nil {
				continue // how far each got before the error depends on match order
			}
			equal(fmt.Sprintf("facts after Infer of %v", rules), factKeys(sc.Facts()), factKeys(rc.sorted(false)))
			if len(derived) != sc.Len()-st.Len() {
				t.Fatalf("op %d: Infer returned %d derived facts, store grew by %d", o.pos, len(derived), sc.Len()-st.Len())
			}
			// The reference derived in key order: give its new facts the
			// places the store gave them.
			for _, f := range derived {
				rc.seq[f.Atom.key()] = rc.next
				rc.next++
			}
			st, ref = sc, rc
		}
		if got, want := st.Len(), len(ref.facts); got != want {
			t.Fatalf("op %d: Len = %d, want %d", o.pos, got, want)
		}
		if o.pos%16 == 0 {
			equal("Facts", factKeys(st.Facts()), factKeys(ref.sorted(false)))
			var each []Fact
			_ = st.Each(func(f Fact) error { each = append(each, f); return nil })
			equal("Each", factKeys(each), factKeys(ref.sorted(true)))
		}
	}
	return compactions
}

// randomOps returns n seeded random operation bytes.
func randomOps(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// TestStoreAgainstReference is the differential test: the indexed store, the
// bucketed matcher and the change-driven engine against the map-and-sort
// store they replaced, over seeded random operation sequences.
func TestStoreAgainstReference(t *testing.T) {
	compactions := 0
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			compactions += checkOps(t, randomOps(seed, 6000))
		})
	}
	if compactions == 0 {
		t.Fatal("no sequence retracted enough to compact a store")
	}
}

// TestStoreForcedCollisions runs the differential test with every atom on
// one hash chain under one hash value: only key equality tells facts apart.
func TestStoreForcedCollisions(t *testing.T) {
	hashMask = 0
	t.Cleanup(func() { hashMask = ^uint64(0) })
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkOps(t, randomOps(seed, 3000))
		})
	}
}

// FuzzStoreOps feeds the differential test arbitrary operation bytes; beyond
// the reference's verdict it checks that no sequence panics.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{})
	f.Add(randomOps(1, 512))
	f.Add(randomOps(2, 2048))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The reference sorts every fact for every literal it matches: keep
		// one input to about the seeded test's length.
		checkOps(t, data[:min(len(data), 8192)])
	})
}

// TestStoreAllocationBudgets pins what the hot path may allocate: nothing to
// re-assert a fact, read a truth value or fail to match.
func TestStoreAllocationBudgets(t *testing.T) {
	s := NewStore(domainOntology(t))
	held := A("required_reward", C("c1"), N(0.3), N(10))
	mustAssert(t, s, held)
	mustAssert(t, s, A("required_reward", C("c2"), N(0.4), N(15)))
	absent := A("required_reward", C("c1"), N(0.9), N(10))
	noMatch := A("required_reward", C("c1"), V("Cut"), N(99))
	budgets := []struct {
		name string
		run  func()
	}{
		{"Assert of an existing fact", func() { _ = s.Assert(held, True) }},
		{"TruthOf a held fact", func() { s.TruthOf(held) }},
		{"TruthOf an absent fact", func() { s.TruthOf(absent) }},
		{"Retract of an absent fact", func() { s.Retract(absent) }},
		{"failed Match", func() { s.Match(noMatch, nil) }},
	}
	for _, b := range budgets {
		if got := testing.AllocsPerRun(100, b.run); got != 0 {
			t.Errorf("%s allocates %v times, want 0", b.name, got)
		}
	}
	if got := testing.AllocsPerRun(100, func() { s.Match(A("required_reward", C("c2"), V("Cut"), V("Req")), nil) }); got > 3 {
		t.Errorf("a Match with one result allocates %v times, want its Binding and the result slice (<= 3)", got)
	}
}

// TestInferSkipsSettledRules pins the change-driven engine's pass structure
// on the Customer Agent's shape: one rule whose consequent it does not read
// is evaluated once, and the confirming pass costs nothing.
func TestInferSkipsSettledRules(t *testing.T) {
	rule := Rule{
		Name:   "acceptable",
		If:     []Literal{Pos(A("required", V("Cut"), V("Req"))), Pos(A("announced", V("Cut"), V("Off")))},
		Guards: []Guard{{Op: OpGeq, Left: V("Off"), Right: V("Req")}},
		Then:   []Atom{A("acceptable", V("Cut"))},
	}
	base, err := NewBase("ca", rule)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(nil)
	for i := 0; i < 10; i++ {
		mustAssert(t, s, A("required", N(float64(i)), N(float64(i))))
		mustAssert(t, s, A("announced", N(float64(i)), N(5)))
	}
	e := NewEngine(base)
	derived, err := e.Infer(s)
	if err != nil || len(derived) != 6 {
		t.Fatalf("Infer = %v, %v; want 6 derived facts", derived, err)
	}
	if got := e.evaluatedAt[0]; got != 1 {
		t.Fatalf("the rule was last evaluated at tick %d, want 1: its antecedent names nothing it derives", got)
	}
	for i, f := range derived {
		if want := A("acceptable", N(float64(i))); !f.Atom.Equal(want) {
			t.Fatalf("derived[%d] = %s, want %s: derivation follows insertion order", i, f.Atom, want)
		}
	}

	// A rule that reads what an earlier rule derives in the same pass, and one
	// that reads what a later rule derives, both still fire.
	chain, err := NewBase("chain",
		Rule{Name: "r_from_q", If: []Literal{Pos(A("q", V("X")))}, Then: []Atom{A("r", V("X"))}},
		Rule{Name: "q_from_p", If: []Literal{Pos(A("p", V("X")))}, Then: []Atom{A("q", V("X"))}},
		Rule{Name: "s_from_r", If: []Literal{Pos(A("r", V("X")))}, Then: []Atom{A("s", V("X"))}},
	)
	if err != nil {
		t.Fatal(err)
	}
	s = NewStore(nil)
	mustAssert(t, s, A("p", N(1)))
	derived, err = NewEngine(chain).Infer(s)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := factKeys(derived), []string{"q(n:1)=true", "r(n:1)=true", "s(n:1)=true"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("derived %q, want %q", got, want)
	}
}

// Package kb implements the knowledge representation layer of the DESIRE
// reproduction: order-sorted constants, predicates over those sorts, ground
// facts with explicit truth values, and rules evaluated by forward chaining.
//
// DESIRE (Section 4.2 of the paper) models knowledge as "information types"
// (an ontology: sorts, objects, relations) plus "knowledge bases" (rules in
// order-sorted predicate logic, normalised into if-then form). This package
// provides an executable semantics for exactly that fragment:
//
//   - an Ontology declares sorts (with sub-sort relations), typed constants
//     and predicates;
//   - a Store holds ground facts under a three-valued reading (true, false,
//     unknown = absent);
//   - Rules have a conjunctive antecedent of literals (with variables and
//     numeric guards) and a consequent of literals;
//   - Engine.Infer runs the rules to a fixpoint.
//
// It is part of the reference specification (with internal/desire and
// internal/desiremodel): tests hold production equal to it and ./bench times
// it, but no production binary links this package, and CI
// (.github/scripts/orphan-packages.sh) enforces that.
package kb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// TermKind discriminates the kinds of terms that may appear in atoms.
type TermKind int

// Term kinds. Variables may only appear inside rules, never in stored facts.
const (
	KindConst TermKind = iota + 1
	KindNumber
	KindString
	KindVar
)

// Term is a single argument of an atom: a sorted constant, a number, a
// string, or (in rules only) a variable.
type Term struct {
	Kind TermKind
	// Name holds the constant name or variable name.
	Name string
	// Num holds the value for KindNumber terms.
	Num float64
	// Str holds the value for KindString terms.
	Str string
}

// C returns a constant term. Constants are interpreted against an Ontology,
// which assigns them sorts.
func C(name string) Term { return Term{Kind: KindConst, Name: name} }

// N returns a numeric term.
func N(v float64) Term { return Term{Kind: KindNumber, Num: v} }

// S returns a string term.
func S(v string) Term { return Term{Kind: KindString, Str: v} }

// V returns a variable term; by convention variable names start with an
// upper-case letter, but this is not enforced.
func V(name string) Term { return Term{Kind: KindVar, Name: name} }

// IsGround reports whether the term contains no variable.
func (t Term) IsGround() bool { return t.Kind != KindVar }

// Equal reports structural equality of two terms.
func (t Term) Equal(o Term) bool {
	if t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case KindConst, KindVar:
		return t.Name == o.Name
	case KindNumber:
		return t.Num == o.Num
	case KindString:
		return t.Str == o.Str
	default:
		return false
	}
}

// numKey maps a number to the bits that identify it as a store key: every NaN
// is one key, and -0 and +0 are two (the keys the number's shortest decimal
// rendering gave when facts were keyed by string).
func numKey(v float64) uint64 {
	if v != v {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(v)
}

// sameKey reports whether two terms are the same store key. It is Equal
// except on numbers, which compare by numKey: a store can hold a fact about
// NaN and find it again, which == could not.
func (t Term) sameKey(o Term) bool {
	if t.Kind == KindNumber && o.Kind == KindNumber {
		return numKey(t.Num) == numKey(o.Num)
	}
	return t.Equal(o)
}

// String renders the term in a readable logic syntax.
func (t Term) String() string {
	switch t.Kind {
	case KindConst:
		return t.Name
	case KindVar:
		return "?" + t.Name
	case KindNumber:
		return strconv.FormatFloat(t.Num, 'g', -1, 64)
	case KindString:
		return strconv.Quote(t.Str)
	default:
		return "<invalid>"
	}
}

// Atom is a predicate applied to terms, e.g.
// acceptable_cutdown(customer1, 0.4).
type Atom struct {
	Pred string
	Args []Term
}

// A constructs an atom.
func A(pred string, args ...Term) Atom {
	return Atom{Pred: pred, Args: args}
}

// IsGround reports whether every argument is ground.
func (a Atom) IsGround() bool {
	for i := range a.Args {
		if a.Args[i].Kind == KindVar {
			return false
		}
	}
	return true
}

// Equal reports structural equality of two atoms.
func (a Atom) Equal(o Atom) bool {
	if a.Pred != o.Pred || len(a.Args) != len(o.Args) {
		return false
	}
	for i := range a.Args {
		if !a.Args[i].Equal(o.Args[i]) {
			return false
		}
	}
	return true
}

// sameKey reports whether two ground atoms are the same fact of a store:
// same predicate, same arity, and argument by argument the same key.
func (a Atom) sameKey(o Atom) bool {
	if a.Pred != o.Pred || len(a.Args) != len(o.Args) {
		return false
	}
	for i := range a.Args {
		if !a.Args[i].sameKey(o.Args[i]) {
			return false
		}
	}
	return true
}

// key renders a ground atom as the string Store.Facts sorts by. Nothing looks
// a fact up by it: stores find facts by hash and sameKey.
func (a Atom) key() string {
	var b strings.Builder
	b.WriteString(a.Pred)
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		switch t.Kind {
		case KindConst:
			b.WriteString("c:")
			b.WriteString(t.Name)
		case KindNumber:
			b.WriteString("n:")
			b.WriteString(strconv.FormatFloat(t.Num, 'g', -1, 64))
		case KindString:
			b.WriteString("s:")
			b.WriteString(t.Str)
		case KindVar:
			// Callers must not key non-ground atoms; keep deterministic anyway.
			b.WriteString("v:")
			b.WriteString(t.Name)
		}
	}
	b.WriteByte(')')
	return b.String()
}

// String renders the atom.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", a.Pred, strings.Join(parts, ", "))
}

// Truth is the three-valued truth assignment DESIRE uses for information
// states: facts are explicitly true, explicitly false, or unknown (absent).
type Truth int

// Truth values. Unknown is the zero value so that map misses read naturally.
const (
	Unknown Truth = iota
	True
	False
)

// String renders the truth value.
func (tv Truth) String() string {
	switch tv {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "unknown"
	}
}

// Fact is a ground atom with an explicit truth value.
type Fact struct {
	Atom  Atom
	Truth Truth
}

// String renders the fact.
func (f Fact) String() string { return fmt.Sprintf("%s = %s", f.Atom, f.Truth) }

package kb

import (
	"errors"
	"fmt"
)

// Errors reported by ontology construction and validation.
var (
	ErrUnknownSort      = errors.New("kb: unknown sort")
	ErrUnknownConstant  = errors.New("kb: unknown constant")
	ErrUnknownPredicate = errors.New("kb: unknown predicate")
	ErrDuplicate        = errors.New("kb: duplicate declaration")
	ErrArity            = errors.New("kb: arity mismatch")
	ErrSortMismatch     = errors.New("kb: sort mismatch")
	ErrNotGround        = errors.New("kb: atom is not ground")
)

// Builtin sorts available in every ontology. "number" and "string" cover the
// literal term kinds; "any" is the top sort.
const (
	SortAny    = "any"
	SortNumber = "number"
	SortString = "string"
)

// Ontology is an information type in the DESIRE sense: a lexicon of sorts
// (with a sub-sort partial order), constants belonging to sorts, and
// predicates with sorted argument positions. Ontologies compose: see Merge.
type Ontology struct {
	parents    map[string]string   // sort -> parent sort ("" for roots)
	constSorts map[string]string   // constant -> sort
	predicates map[string][]string // predicate -> argument sorts
}

// NewOntology returns an ontology containing only the builtin sorts.
func NewOntology() *Ontology {
	o := &Ontology{
		parents:    make(map[string]string),
		constSorts: make(map[string]string),
		predicates: make(map[string][]string),
	}
	o.parents[SortAny] = ""
	o.parents[SortNumber] = SortAny
	o.parents[SortString] = SortAny
	return o
}

// DeclareSort adds a sort beneath the given parent. Parent must already be
// declared; use SortAny for roots.
func (o *Ontology) DeclareSort(name, parent string) error {
	if _, ok := o.parents[name]; ok {
		return fmt.Errorf("%w: sort %q", ErrDuplicate, name)
	}
	if _, ok := o.parents[parent]; !ok {
		return fmt.Errorf("%w: parent %q of %q", ErrUnknownSort, parent, name)
	}
	o.parents[name] = parent
	return nil
}

// DeclareConst adds a constant with the given sort.
func (o *Ontology) DeclareConst(name, sort string) error {
	if _, ok := o.constSorts[name]; ok {
		return fmt.Errorf("%w: constant %q", ErrDuplicate, name)
	}
	if _, ok := o.parents[sort]; !ok {
		return fmt.Errorf("%w: %q for constant %q", ErrUnknownSort, sort, name)
	}
	o.constSorts[name] = sort
	return nil
}

// DeclarePred adds a predicate with sorted argument positions.
func (o *Ontology) DeclarePred(name string, argSorts ...string) error {
	if _, ok := o.predicates[name]; ok {
		return fmt.Errorf("%w: predicate %q", ErrDuplicate, name)
	}
	for _, s := range argSorts {
		if _, ok := o.parents[s]; !ok {
			return fmt.Errorf("%w: %q in predicate %q", ErrUnknownSort, s, name)
		}
	}
	o.predicates[name] = append([]string(nil), argSorts...)
	return nil
}

// SortOfConst returns the sort of a declared constant.
func (o *Ontology) SortOfConst(name string) (string, error) {
	s, ok := o.constSorts[name]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownConstant, name)
	}
	return s, nil
}

// IsSubsort reports whether sub is equal to, or a descendant of, super.
func (o *Ontology) IsSubsort(sub, super string) bool {
	for cur := sub; cur != ""; {
		if cur == super {
			return true
		}
		parent, ok := o.parents[cur]
		if !ok {
			return false
		}
		cur = parent
	}
	return super == ""
}

// sortOfTerm resolves the sort of a ground term.
func (o *Ontology) sortOfTerm(t Term) (string, error) {
	switch t.Kind {
	case KindConst:
		return o.SortOfConst(t.Name)
	case KindNumber:
		return SortNumber, nil
	case KindString:
		return SortString, nil
	default:
		return "", ErrNotGround
	}
}

// CheckAtom validates that a ground atom is well-formed with respect to this
// ontology: the predicate exists, the arity matches and every argument's sort
// is a subsort of the declared position sort.
func (o *Ontology) CheckAtom(a Atom) error {
	sorts, ok := o.predicates[a.Pred]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPredicate, a.Pred)
	}
	if len(sorts) != len(a.Args) {
		return fmt.Errorf("%w: %s has %d args, want %d", ErrArity, a.Pred, len(a.Args), len(sorts))
	}
	for i := range a.Args {
		t := &a.Args[i]
		if !t.IsGround() {
			return fmt.Errorf("%w: %s", ErrNotGround, a)
		}
		got, err := o.sortOfTerm(*t)
		if err != nil {
			return fmt.Errorf("%s arg %d: %w", a.Pred, i, err)
		}
		if !o.IsSubsort(got, sorts[i]) {
			return fmt.Errorf("%w: %s arg %d has sort %q, want %q", ErrSortMismatch, a.Pred, i, got, sorts[i])
		}
	}
	return nil
}

// Merge folds another ontology into this one, implementing DESIRE's
// composition of information types. Conflicting re-declarations (same name,
// different definition) are errors; identical re-declarations are ignored.
func (o *Ontology) Merge(other *Ontology) error {
	for name, parent := range other.parents {
		if cur, ok := o.parents[name]; ok {
			if cur != parent {
				return fmt.Errorf("%w: sort %q (parents %q vs %q)", ErrDuplicate, name, cur, parent)
			}
			continue
		}
		o.parents[name] = parent
	}
	for name, sort := range other.constSorts {
		if cur, ok := o.constSorts[name]; ok {
			if cur != sort {
				return fmt.Errorf("%w: constant %q (sorts %q vs %q)", ErrDuplicate, name, cur, sort)
			}
			continue
		}
		o.constSorts[name] = sort
	}
	for name, sorts := range other.predicates {
		if cur, ok := o.predicates[name]; ok {
			if !equalStrings(cur, sorts) {
				return fmt.Errorf("%w: predicate %q", ErrDuplicate, name)
			}
			continue
		}
		o.predicates[name] = append([]string(nil), sorts...)
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

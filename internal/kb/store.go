package kb

import (
	"fmt"
	"sort"
)

// Store holds ground facts under a three-valued reading: each atom is True,
// False, or Unknown (absent). A Store is the executable form of a DESIRE
// information state. Stores are not safe for concurrent use; each agent
// component owns its stores and all cross-component traffic flows through
// information links (see internal/desire).
//
// Facts live in one slice in insertion order: the order of the Assert that
// first gave each fact a value since it was last absent. Overwriting a fact's
// truth value keeps its place; retracting and re-asserting it moves it to the
// end. Each, Match and Query walk that order and build no string, which makes
// them the hot path; Facts sorts by key and is the cold export path. A store
// fed by one component is therefore iterated in an order its feeder decides.
// A store fed by concurrent senders is iterated in arrival order, so nothing
// may fold floats over what Each, Match or Query return from such a store.
type Store struct {
	ont *Ontology
	// entries holds the facts in insertion order. A retraction leaves a hole
	// (Truth == Unknown) so positions stay valid; compact squeezes the holes
	// out once they outnumber the live facts.
	entries []entry
	// table heads the hash chains: table[hash&(len-1)] is the position of the
	// newest entry of that chain, -1 when empty. Its length is a power of two.
	table []int32
	// preds maps a predicate to its index in lists; lists[i] threads that
	// predicate's entries, holes included, in insertion order.
	preds   map[string]int32
	lists   []predList
	live    int
	version uint64
}

// entry is one position of Store.entries.
type entry struct {
	fact     Fact
	hash     uint64
	next     int32 // next entry on the hash chain, -1 at its end
	nextPred int32 // next entry of the same predicate, -1 at the end
}

// predList is the first and last position of one predicate's entries.
type predList struct{ head, tail int32 }

// minTable is the size of a store's first hash table and entry slice.
const minTable = 8

// hashMask is all ones. The collision test clears it so that every atom lands
// on one chain with one hash, and only sameKey tells facts apart.
var hashMask = ^uint64(0)

// hashAtom hashes a ground atom's predicate, argument kinds and argument
// values, so that sameKey atoms hash alike.
func hashAtom(a Atom) uint64 {
	h := hashString(fnvOffset, a.Pred)
	for i := range a.Args {
		t := &a.Args[i]
		h = (h ^ uint64(t.Kind)) * fnvPrime
		switch t.Kind {
		case KindNumber:
			h = (h ^ numKey(t.Num)) * fnvPrime
		case KindString:
			h = hashString(h, t.Str)
		default:
			h = hashString(h, t.Name)
		}
	}
	// The table is indexed by the low bits, which a multiply never feeds from
	// the high ones (whole numbers differ only there): fold them down.
	h ^= h >> 32
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	return h & hashMask
}

// FNV-1a, 64 bits.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashString folds a string into an FNV-1a state, eight bytes to a step while
// they last (predicate names are the longest thing a fact is keyed by).
func hashString(h uint64, s string) uint64 {
	for ; len(s) >= 8; s = s[8:] {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = (h ^ w) * fnvPrime
		h ^= h >> 32
	}
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// NewStore returns an empty store. If ont is non-nil, every asserted fact is
// validated against it.
func NewStore(ont *Ontology) *Store {
	return &Store{ont: ont}
}

// find returns the position of the fact with a's key, or -1.
func (s *Store) find(a Atom, h uint64) int32 {
	if len(s.table) == 0 {
		return -1
	}
	for i := s.table[h&uint64(len(s.table)-1)]; i >= 0; i = s.entries[i].next {
		if e := &s.entries[i]; e.hash == h && e.fact.Atom.sameKey(a) {
			return i
		}
	}
	return -1
}

// chain puts entry i at the head of its hash chain.
func (s *Store) chain(i int32) {
	e := &s.entries[i]
	head := &s.table[e.hash&uint64(len(s.table)-1)]
	e.next = *head
	*head = i
}

// enlist puts entry i at the tail of its predicate's list.
func (s *Store) enlist(i int32) {
	e := &s.entries[i]
	e.nextPred = -1
	li, ok := s.preds[e.fact.Atom.Pred]
	if !ok {
		s.preds[e.fact.Atom.Pred] = int32(len(s.lists))
		s.lists = append(s.lists, predList{head: i, tail: i})
		return
	}
	l := &s.lists[li]
	s.entries[l.tail].nextPred = i
	l.tail = i
}

// resetTable empties every hash chain of a table of n heads, reusing the
// current table when it has that size.
func (s *Store) resetTable(n int) {
	if len(s.table) != n {
		s.table = make([]int32, n)
	}
	for i := range s.table {
		s.table[i] = -1
	}
}

// insert appends a fact the store does not hold.
func (s *Store) insert(a Atom, tv Truth, h uint64) {
	switch {
	case s.table == nil:
		s.resetTable(minTable)
		s.entries = make([]entry, 0, minTable)
		s.preds = make(map[string]int32)
	case len(s.entries) == len(s.table):
		s.resetTable(2 * len(s.table))
		for i := range s.entries {
			if s.entries[i].fact.Truth != Unknown {
				s.chain(int32(i))
			}
		}
	}
	i := int32(len(s.entries))
	s.entries = append(s.entries, entry{fact: Fact{Atom: a, Truth: tv}, hash: h})
	s.chain(i)
	s.enlist(i)
	s.live++
	s.version++
}

// remove turns entry i into a hole: off its hash chain, still on its
// predicate's list, which walkers step over.
func (s *Store) remove(i int32) {
	e := &s.entries[i]
	p := &s.table[e.hash&uint64(len(s.table)-1)]
	for *p != i {
		p = &s.entries[*p].next
	}
	*p = e.next
	e.fact = Fact{}
	s.live--
	s.version++
	if len(s.entries)-s.live > s.live {
		s.compact()
	}
}

// compact squeezes the holes out of entries, keeping the order of the live
// facts, and rebuilds the chains and lists over the new positions.
func (s *Store) compact() {
	n := 0
	for i := range s.entries {
		if s.entries[i].fact.Truth != Unknown {
			s.entries[n] = s.entries[i]
			n++
		}
	}
	clear(s.entries[n:])
	s.entries = s.entries[:n]
	s.resetTable(len(s.table))
	clear(s.preds)
	s.lists = s.lists[:0]
	for i := range s.entries {
		s.chain(int32(i))
		s.enlist(int32(i))
	}
}

// Assert records the truth value of a ground atom, overwriting any previous
// value. Asserting Unknown removes the fact. Asserting a fact the store
// already holds allocates nothing.
func (s *Store) Assert(a Atom, tv Truth) error {
	if !a.IsGround() {
		return fmt.Errorf("%w: %s", ErrNotGround, a)
	}
	if s.ont != nil {
		if err := s.ont.CheckAtom(a); err != nil {
			return err
		}
	}
	h := hashAtom(a)
	i := s.find(a, h)
	switch {
	case tv == Unknown:
		if i >= 0 {
			s.remove(i)
		}
	case i < 0:
		s.insert(a, tv, h)
	default:
		e := &s.entries[i]
		if e.fact.Truth != tv {
			s.version++
		}
		e.fact = Fact{Atom: a, Truth: tv}
	}
	return nil
}

// AssertTrue is shorthand for Assert(a, True).
func (s *Store) AssertTrue(a Atom) error { return s.Assert(a, True) }

// Retract removes any recorded truth value for the atom.
func (s *Store) Retract(a Atom) {
	if i := s.find(a, hashAtom(a)); i >= 0 {
		s.remove(i)
	}
}

// TruthOf returns the truth value recorded for a ground atom (Unknown when
// absent).
func (s *Store) TruthOf(a Atom) Truth {
	i := s.find(a, hashAtom(a))
	if i < 0 {
		return Unknown
	}
	return s.entries[i].fact.Truth
}

// Holds reports whether the atom is explicitly True.
func (s *Store) Holds(a Atom) bool { return s.TruthOf(a) == True }

// Len returns the number of explicitly-valued facts.
func (s *Store) Len() int { return s.live }

// Version returns a counter that moves on every mutation that adds a fact,
// removes one or changes a truth value, and on no other call. Two equal
// readings mean the store holds what it held.
func (s *Store) Version() uint64 { return s.version }

// Each calls fn for every fact in insertion order, without copying the store,
// and stops at the first error, which it returns. fn must not mutate s.
func (s *Store) Each(fn func(Fact) error) error {
	for i := range s.entries {
		if f := s.entries[i].fact; f.Truth != Unknown {
			if err := fn(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// Facts returns a copy of all facts in deterministic (key-sorted) order. It
// renders and sorts a key string per fact: use it to export, compare or
// print a store, and Each, Match or Query on any path that runs per message.
func (s *Store) Facts() []Fact {
	out := keyed{facts: make([]Fact, 0, s.live), keys: make([]string, 0, s.live)}
	for i := range s.entries {
		if f := s.entries[i].fact; f.Truth != Unknown {
			out.facts = append(out.facts, f)
			out.keys = append(out.keys, f.Atom.key())
		}
	}
	sort.Stable(out)
	return out.facts
}

// keyed sorts facts by their key strings.
type keyed struct {
	facts []Fact
	keys  []string
}

func (k keyed) Len() int           { return len(k.keys) }
func (k keyed) Less(i, j int) bool { return k.keys[i] < k.keys[j] }
func (k keyed) Swap(i, j int) {
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
	k.facts[i], k.facts[j] = k.facts[j], k.facts[i]
}

// Clear removes every fact and keeps the store's capacity.
func (s *Store) Clear() {
	if s.live > 0 {
		s.version++
	}
	clear(s.entries)
	s.entries = s.entries[:0]
	s.resetTable(len(s.table))
	clear(s.preds)
	s.lists = s.lists[:0]
	s.live = 0
}

// Clone returns a deep copy sharing the ontology.
func (s *Store) Clone() *Store {
	c := &Store{
		ont:     s.ont,
		entries: append([]entry(nil), s.entries...),
		table:   append([]int32(nil), s.table...),
		lists:   append([]predList(nil), s.lists...),
		live:    s.live,
		version: s.version,
	}
	if s.preds != nil {
		c.preds = make(map[string]int32, len(s.preds))
		for p, li := range s.preds {
			c.preds[p] = li
		}
	}
	return c
}

package kb

// Binding maps variable names to ground terms.
type Binding map[string]Term

// substitute applies a binding to a term.
func substitute(t Term, b Binding) Term {
	if t.Kind == KindVar {
		if g, ok := b[t.Name]; ok {
			return g
		}
	}
	return t
}

// SubstituteAtom applies a binding to every argument of an atom.
func SubstituteAtom(a Atom, b Binding) Atom {
	out := Atom{Pred: a.Pred, Args: make([]Term, len(a.Args))}
	for i, t := range a.Args {
		out.Args[i] = substitute(t, b)
	}
	return out
}

// pterm is one argument of a compiled pattern. Variables are numbered into
// the slots of a frame ([]Term, one per variable) when the pattern is
// compiled, so matching a fact compares and copies terms and never touches a
// map.
type pterm struct {
	t    Term // the source term: what a ground argument must Equal
	slot int  // the variable's frame slot, -1 for a ground argument
	// bind marks the occurrence that gives the variable its value: the slot
	// is written, not read. Which occurrence that is is known when the pattern
	// is compiled, so a failed match leaves nothing to undo — whatever it
	// wrote is overwritten before the next read.
	bind bool
}

// varTable numbers variable names into slots in order of first appearance.
type varTable []string

// slot returns the variable's slot, whether this call created it, and the
// table with it.
func (v varTable) slot(name string) (varTable, int, bool) {
	for i, n := range v {
		if n == name {
			return v, i, false
		}
	}
	return append(v, name), len(v), true
}

// value is the term an occurrence stands for under frame: the variable's
// value once bound, the source term otherwise (so an unbound variable stays a
// variable, as substitute leaves it).
func (p *pterm) value(frame []Term) Term {
	if p.slot >= 0 && frame[p.slot].Kind != 0 {
		return frame[p.slot]
	}
	return p.t
}

// matchArgs reports whether the pattern matches the ground arguments, binding
// frame as it goes. Terms compare with Equal, as unification always has: NaN
// matches nothing and -0 matches +0, unlike the store's key equality.
func matchArgs(pat []pterm, args []Term, frame []Term) bool {
	if len(pat) != len(args) {
		return false
	}
	for i := range pat {
		p := &pat[i]
		switch {
		case p.bind:
			frame[p.slot] = args[i]
		case p.slot >= 0:
			if !frame[p.slot].Equal(args[i]) {
				return false
			}
		default:
			if !p.t.Equal(args[i]) {
				return false
			}
		}
	}
	return true
}

// firstOf returns the position of the predicate's oldest entry, -1 if none.
func (s *Store) firstOf(pred string) int32 {
	li, ok := s.preds[pred]
	if !ok {
		return -1
	}
	return s.lists[li].head
}

// matchFrom returns the first position at or after i on its predicate's list
// whose fact is True and matches the pattern, with frame bound to it, or -1.
// Walkers loop
//
//	for i := s.matchFrom(s.firstOf(pred), pat, frame); i >= 0; i = s.matchFrom(s.entries[i].nextPred, pat, frame)
//
// so only the pattern predicate's facts are visited, in insertion order.
func (s *Store) matchFrom(i int32, pat []pterm, frame []Term) int32 {
	for ; i >= 0; i = s.entries[i].nextPred {
		if f := &s.entries[i].fact; f.Truth == True && matchArgs(pat, f.Atom.Args, frame) {
			return i
		}
	}
	return -1
}

// inlineTerms is the arity and variable count Match and Query handle without
// allocating.
const inlineTerms = 8

// compilePattern compiles a pattern's arguments under a seed binding, into
// buffers its caller keeps on its stack: seeded variables become ground
// arguments, the others get slots in vars and a frame wide enough to hold
// their values.
func compilePattern(pattern Atom, seed Binding, pat []pterm, vars varTable, frame []Term) ([]pterm, varTable, []Term) {
	for _, t := range pattern.Args {
		t = substitute(t, seed)
		p := pterm{t: t, slot: -1}
		if t.Kind == KindVar {
			vars, p.slot, p.bind = vars.slot(t.Name)
		}
		pat = append(pat, p)
	}
	if len(vars) > len(frame) {
		frame = make([]Term, len(vars))
	}
	return pat, vars, frame
}

// Match finds all bindings under which the pattern atom matches a True fact
// in the store, in insertion order of the matching facts. Each binding
// extends seed. A pattern that is ground under seed yields seed itself when
// it holds. Only a successful match allocates: its Binding.
func (s *Store) Match(pattern Atom, seed Binding) []Binding {
	var (
		patBuf   [inlineTerms]pterm
		nameBuf  [inlineTerms]string
		frameBuf [inlineTerms]Term
	)
	pat, vars, frame := compilePattern(pattern, seed, patBuf[:0], nameBuf[:0], frameBuf[:])
	var out []Binding
	for i := s.matchFrom(s.firstOf(pattern.Pred), pat, frame); i >= 0; i = s.matchFrom(s.entries[i].nextPred, pat, frame) {
		b := seed
		if len(vars) > 0 || b == nil {
			b = make(Binding, len(seed)+len(vars))
			for k, v := range seed {
				b[k] = v
			}
			for k, name := range vars {
				b[name] = frame[k]
			}
		}
		out = append(out, b)
	}
	return out
}

// Query returns the ground atoms of all True facts matching the pattern, in
// insertion order of the facts.
func (s *Store) Query(pattern Atom) []Atom {
	var (
		patBuf   [inlineTerms]pterm
		nameBuf  [inlineTerms]string
		frameBuf [inlineTerms]Term
	)
	pat, _, frame := compilePattern(pattern, nil, patBuf[:0], nameBuf[:0], frameBuf[:])
	var out []Atom
	for i := s.matchFrom(s.firstOf(pattern.Pred), pat, frame); i >= 0; i = s.matchFrom(s.entries[i].nextPred, pat, frame) {
		out = append(out, Atom{Pred: pattern.Pred, Args: ground(pat, frame, make([]Term, 0, len(pat)))})
	}
	return out
}

// ground appends the pattern's arguments under frame to dst.
func ground(pat []pterm, frame []Term, dst []Term) []Term {
	for i := range pat {
		dst = append(dst, pat[i].value(frame))
	}
	return dst
}

package kb

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// persistOntology builds a small typed vocabulary.
func persistOntology(t *testing.T) *Ontology {
	t.Helper()
	o := NewOntology()
	for _, step := range []error{
		o.DeclareSort("customer", SortAny),
		o.DeclareConst("c1", "customer"),
		o.DeclareConst("c2", "customer"),
		o.DeclarePred("acceptable", "customer", SortNumber),
		o.DeclarePred("label", "customer", SortString),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	return o
}

// persistStore fills a store with one fact of every term kind and both
// truth values.
func persistStore(t *testing.T, ont *Ontology) *Store {
	t.Helper()
	s := NewStore(ont)
	for _, step := range []error{
		s.Assert(A("acceptable", C("c1"), N(0.4)), True),
		s.Assert(A("acceptable", C("c2"), N(0.25)), False),
		s.Assert(A("label", C("c1"), S("industrial")), True),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	return s
}

func TestStorePersistenceRoundTrip(t *testing.T) {
	ont := persistOntology(t)
	s := persistStore(t, ont)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStore(bytes.NewReader(buf.Bytes()), ont)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("loaded %d facts, want %d", got.Len(), s.Len())
	}
	want := s.Facts()
	for i, f := range got.Facts() {
		if !f.Atom.Equal(want[i].Atom) || f.Truth != want[i].Truth {
			t.Fatalf("fact %d: %v, want %v", i, f, want[i])
		}
	}
	if got.TruthOf(A("acceptable", C("c2"), N(0.25))) != False {
		t.Fatal("explicit False did not survive the round trip")
	}
	// The encoding is deterministic: writing the loaded store reproduces
	// the document byte for byte.
	var buf2 bytes.Buffer
	if err := got.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("round trip is not canonical:\n%s\nvs\n%s", buf.String(), buf2.String())
	}
}

func TestStorePersistenceWithoutOntology(t *testing.T) {
	s := NewStore(nil)
	if err := s.Assert(A("p", N(1), S("x")), True); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStore(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Holds(A("p", N(1), S("x"))) {
		t.Fatal("untyped fact lost")
	}
}

func TestReadStoreValidatesAgainstOntology(t *testing.T) {
	ont := persistOntology(t)
	// A document whose fact names an undeclared constant must fail the
	// load, exactly as a live Assert would.
	rogue := NewStore(nil)
	if err := rogue.Assert(A("acceptable", C("intruder"), N(0.4)), True); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rogue.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStore(&buf, ont); err == nil {
		t.Fatal("undeclared constant passed ontology validation")
	}
}

func TestReadStoreRejectsDamage(t *testing.T) {
	ont := persistOntology(t)
	var buf bytes.Buffer
	if err := persistStore(t, ont).Save(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	tests := []struct {
		name string
		doc  string
	}{
		{"truncated", doc[:len(doc)/2]},
		{"not json", "{{{"},
		{"wrong format", strings.Replace(doc, "kb-state-1", "kb-state-9", 1)},
		{"bad truth", strings.Replace(doc, `"truth": "true"`, `"truth": "maybe"`, 1)},
		{"bad term kind", strings.Replace(doc, `"kind": "number"`, `"kind": "vector"`, 1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ReadStore(strings.NewReader(tt.doc), ont)
			if err == nil {
				t.Fatal("damaged document loaded without error")
			}
			if tt.name != "truncated" && tt.name != "not json" {
				return
			}
			if !errors.Is(err, ErrBadDocument) {
				t.Fatalf("error = %v, want ErrBadDocument", err)
			}
		})
	}
}

func TestSaveRefusesVariables(t *testing.T) {
	// Assert only admits ground facts, but a store shares the argument slice
	// it was handed: a caller that rewrites the slice afterwards can put a
	// variable into a stored fact. Save must not serialise it.
	s := NewStore(nil)
	args := []Term{N(1)}
	if err := s.Assert(Atom{Pred: "p", Args: args}, True); err != nil {
		t.Fatal(err)
	}
	args[0] = V("X")
	var buf bytes.Buffer
	if err := s.Save(&buf); !errors.Is(err, ErrNotGround) {
		t.Fatalf("error = %v, want ErrNotGround", err)
	}
}

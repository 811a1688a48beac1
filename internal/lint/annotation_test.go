package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestParseAllowBody(t *testing.T) {
	cases := []struct {
		in      string
		names   []string
		wantErr string
	}{
		{in: "allow walltime(latency measurement)", names: []string{"walltime"}},
		{in: "allow walltime(reason with spaces, commas; punctuation!)", names: []string{"walltime"}},
		{in: "allow walltime(a), globalrand(b)", names: []string{"walltime", "globalrand"}},
		{in: "allow  walltime(padded)  ,  lockedsend(more)", names: []string{"walltime", "lockedsend"}},
		{in: "allow walltime", wantErr: "missing (reason)"},
		{in: "allow walltime()", wantErr: "empty reason"},
		{in: "allow walltime(   )", wantErr: "empty reason"},
		{in: "allow walltime(unclosed", wantErr: "unclosed reason"},
		{in: "allow Walltime(caps)", wantErr: "bad analyzer name"},
		{in: "allow wall time(space)", wantErr: "bad analyzer name"},
		{in: "allow (anonymous)", wantErr: "bad analyzer name"},
		{in: "allow", wantErr: "missing space"},
		{in: "allow\t", wantErr: "missing analyzer list"},
		{in: "allow walltime(a) globalrand(b)", wantErr: "trailing text"},
		{in: "allow walltime(a),", wantErr: "missing (reason)"},
		{in: "allowed walltime(verb typo)", wantErr: "unknown verb"},
		{in: "ignore walltime(wrong verb)", wantErr: "unknown verb"},
		{in: "disable", wantErr: "unknown verb"},
	}
	for _, c := range cases {
		names, err := parseAllowBody(c.in)
		if c.wantErr != "" {
			if err == nil {
				t.Errorf("%q: expected error containing %q, got names %v", c.in, c.wantErr, names)
			} else if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%q: error %q does not contain %q", c.in, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: unexpected error: %v", c.in, err)
			continue
		}
		if len(names) != len(c.names) {
			t.Errorf("%q: got %v, want %v", c.in, names, c.names)
			continue
		}
		for i := range names {
			if names[i] != c.names[i] {
				t.Errorf("%q: got %v, want %v", c.in, names, c.names)
			}
		}
	}
}

// parseFileAnnotations is a test helper running the full comment scan.
func parseFileAnnotations(t *testing.T, src string, known ...string) (allowSet, []rawDiag) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	knownSet := make(map[string]bool)
	for _, k := range known {
		knownSet[k] = true
	}
	return parseAnnotations(fset, []*ast.File{f}, knownSet)
}

func TestParseAnnotationsPlacement(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //gridlint:allow walltime(trailing form)
	//gridlint:allow globalrand(own-line form)
	_ = 2
}
`
	allows, bad := parseFileAnnotations(t, src, "walltime", "globalrand")
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed annotations: %v", bad)
	}
	// Trailing: suppresses on its own line (4).
	if !allows.suppressed("walltime", position("fixture.go", 4)) {
		t.Error("trailing annotation must suppress its own line")
	}
	// Own-line on 5: suppresses line 6.
	if !allows.suppressed("globalrand", position("fixture.go", 6)) {
		t.Error("own-line annotation must suppress the line below")
	}
	// Wrong analyzer or far line: no suppression.
	if allows.suppressed("globalrand", position("fixture.go", 4)) {
		t.Error("annotation must only suppress its named analyzer")
	}
	if allows.suppressed("walltime", position("fixture.go", 7)) {
		t.Error("annotation must not reach two lines down")
	}
}

func TestParseAnnotationsMalformed(t *testing.T) {
	src := `package p

//gridlint:allow walltime
//gridlint:allow unknownanalyzer(reason)
//gridlint:allow gridlint(self-allow)
//gridlint:suppress walltime(wrong verb)
func f() {}
`
	allows, bad := parseFileAnnotations(t, src, "walltime")
	if len(bad) != 4 {
		t.Fatalf("want 4 malformed annotations, got %d: %v", len(bad), bad)
	}
	for _, b := range bad {
		if b.analyzer != AnnotationAnalyzerName {
			t.Errorf("malformed annotation reported under %q, want %q", b.analyzer, AnnotationAnalyzerName)
		}
		if !strings.Contains(b.message, "annotation") {
			t.Errorf("message %q should mention the annotation", b.message)
		}
	}
	// None of the malformed forms may suppress anything.
	for line := 1; line <= 7; line++ {
		if allows.suppressed("walltime", position("fixture.go", line)) {
			t.Errorf("malformed annotation suppressed line %d", line)
		}
	}
}

func position(file string, line int) (p token.Position) {
	p.Filename = file
	p.Line = line
	return p
}

// FuzzParseAllow searches the annotation grammar from every //gridlint:
// comment in the module, fixtures included: parseAllowBody never panics, an
// annotation it accepts names at least one analyzer, and that annotation
// written canonically — "allow a(r1), b(r2)" — parses to the same names.
//
//	go test -run '^$' -fuzz FuzzParseAllow -fuzztime 10s ./internal/lint
func FuzzParseAllow(f *testing.F) {
	seeds := 0
	err := filepath.WalkDir(filepath.Join("..", ".."), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return nil // a fixture that is not Go has no comments to offer
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if text, ok := strings.CutPrefix(c.Text, "//"+annPrefix); ok {
					f.Add(text)
					seeds++
				}
			}
		}
		return nil
	})
	if err != nil || seeds == 0 {
		f.Fatalf("%d seeds from the module's //%s comments, error %v", seeds, annPrefix, err)
	}
	f.Fuzz(func(t *testing.T, text string) {
		names, err := parseAllowBody(text)
		if err != nil {
			return
		}
		if len(names) == 0 {
			t.Fatalf("%q: accepted with no analyzer", text)
		}
		var canon strings.Builder
		canon.WriteString("allow ")
		for i, name := range names {
			if i > 0 {
				canon.WriteString(", ")
			}
			fmt.Fprintf(&canon, "%s(r%d)", name, i+1)
		}
		again, err := parseAllowBody(canon.String())
		if err != nil || !slices.Equal(again, names) {
			t.Fatalf("%q names %q; written canonically as %q it parses to %q, %v", text, names, canon.String(), again, err)
		}
	})
}

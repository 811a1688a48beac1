package loadbalance_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// auditedOptions names the option structs of the daemon's subsystems, by the
// directory of the package that declares them.
var auditedOptions = map[string][]string{
	"internal/bus":       {"Config", "ServerConfig", "ClientConfig", "ReconnConfig"},
	"internal/replica":   {"SenderConfig", "ReceiverConfig", "StandbyConfig"},
	"internal/obsplane":  {"EmitterConfig", "HubConfig"},
	"internal/tsdb":      {"Config", "ScrapeConfig"},
	"internal/store":     {"Options"},
	"internal/telemetry": {"LiveConfig", "DurableConfig", "CollectorConfig", "MeterConfig", "DeviationConfig"},
	"internal/health":    {"Config", "Engine", "Recorder"},
}

// TestEveryOptionIsSet keeps an exported option field only while something
// sets it: every exported field of the audited structs must be a
// composite-literal key or the target of an assignment in at least one file
// outside its own package's non-test files — a test, bench/, a command or an
// example. A field that only its package's defaulting code reads is a
// constant spelled as an option; sixteen of them were.
func TestEveryOptionIsSet(t *testing.T) {
	fset := token.NewFileSet()
	idx := optionIndex{fields: map[string][]string{}, fieldTypes: map[string][]string{}, ctors: map[string]string{}}
	for dir, types := range auditedOptions {
		pkgs, err := parser.ParseDir(fset, filepath.FromSlash(dir), func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				idx.declare(f, dir, types)
			}
		}
	}
	total := 0
	for dir, types := range auditedOptions {
		for _, typ := range types {
			names, ok := idx.fields[path.Base(dir)+"."+typ]
			if !ok {
				t.Fatalf("no struct %s in %s", typ, dir)
			}
			total += len(names)
		}
	}

	set := make(map[string]bool)
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		if _, own := auditedOptions[dir]; !strings.HasSuffix(p, ".go") || (own && !strings.HasSuffix(p, "_test.go")) {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		idx.markSet(f, dir, set)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unset []string
	for typ, names := range idx.fields {
		for _, n := range names {
			if !set[typ+"."+n] {
				unset = append(unset, typ+"."+n)
			}
		}
	}
	slices.Sort(unset)
	t.Logf("%d exported fields in %d audited structs", total, len(idx.fields))
	if len(unset) > 0 {
		t.Errorf("%d option fields are set by nothing outside their package's defaulting code; make each a constant:\n\t%s",
			len(unset), strings.Join(unset, "\n\t"))
	}
}

// optionIndex is what the audit knows of the declaring packages.
type optionIndex struct {
	fields     map[string][]string // "pkg.Type" -> its exported field names
	fieldTypes map[string][]string // exported field name -> the audited types it holds
	ctors      map[string]string   // "pkg.Func" -> the audited type it returns
}

// declare records what file f of the package in dir says of the audited
// types: the exported fields of those it declares, which exported fields
// anywhere in it hold one, and which exported functions return one.
func (idx optionIndex) declare(f *ast.File, dir string, types []string) {
	r := newOptionResolver(f, dir)
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() && fd.Type.Results != nil {
			if typ := r.typeOf(fd.Type.Results.List[0].Type); typ != "" {
				idx.ctors[f.Name.Name+"."+fd.Name.Name] = typ
			}
		}
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !slices.Contains(types, ts.Name.Name) {
				continue
			}
			key := f.Name.Name + "." + ts.Name.Name
			idx.fields[key] = []string{}
			for _, fl := range st.Fields.List {
				for _, n := range fl.Names {
					if n.IsExported() {
						idx.fields[key] = append(idx.fields[key], n.Name)
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if st, ok := n.(*ast.StructType); ok {
			for _, fl := range st.Fields.List {
				for _, name := range fl.Names {
					if typ := r.typeOf(fl.Type); typ != "" && name.IsExported() {
						idx.fieldTypes[name.Name] = append(idx.fieldTypes[name.Name], typ)
					}
				}
			}
		}
		return true
	})
}

// optionResolver names the audited types a file can write.
type optionResolver struct {
	// visible maps a qualifier as the file writes it ("" for its own
	// package's types) to the audited package's name.
	visible map[string]string
}

func newOptionResolver(f *ast.File, dir string) optionResolver {
	r := optionResolver{visible: make(map[string]string)}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if _, ok := auditedOptions[strings.TrimPrefix(p, "loadbalance/")]; !ok {
			continue
		}
		local := path.Base(p)
		if imp.Name != nil {
			local = imp.Name.Name
		}
		r.visible[local] = path.Base(p)
	}
	if _, ok := auditedOptions[dir]; ok && f.Name.Name == path.Base(dir) {
		r.visible[""] = path.Base(dir)
	}
	return r
}

// qualified splits an identifier or a pkg.Name selector into the audited
// package it names and the name, or reports false.
func (r optionResolver) qualified(e ast.Expr) (pkg, name string, ok bool) {
	var qual string
	switch x := e.(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.SelectorExpr:
		id, isIdent := x.X.(*ast.Ident)
		if !isIdent {
			return "", "", false
		}
		qual, name = id.Name, x.Sel.Name
	default:
		return "", "", false
	}
	pkg, ok = r.visible[qual]
	return pkg, name, ok
}

// typeOf returns "pkg.Type" for a type expression naming an audited type,
// through one pointer, and "" for anything else.
func (r optionResolver) typeOf(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	pkg, name, ok := r.qualified(e)
	if !ok || !slices.Contains(auditedOptions["internal/"+pkg], name) {
		return ""
	}
	return pkg + "." + name
}

// markSet records in set every "pkg.Type.Field" that file f, in directory
// dir, sets: a key of a composite literal of an audited type (written out, or
// implied by the element type of a slice or map literal), or the field an
// assignment writes through a variable, parameter or field to which the file
// gives an audited type — by declaring it, or by a composite literal or a
// constructor call.
func (idx optionIndex) markSet(f *ast.File, dir string, set map[string]bool) {
	r := newOptionResolver(f, dir)
	valueType := func(e ast.Expr) string {
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = u.X
		}
		switch x := e.(type) {
		case *ast.CompositeLit:
			return r.typeOf(x.Type)
		case *ast.CallExpr:
			if pkg, name, ok := r.qualified(x.Fun); ok {
				return idx.ctors[pkg+"."+name]
			}
		}
		return ""
	}
	// named maps a variable, parameter or field name to the audited types
	// the file gives it; names are not scoped, so a reused name holds each.
	named := make(map[string][]string)
	for name, types := range idx.fieldTypes {
		named[name] = append(named[name], types...)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Field:
			if typ := r.typeOf(x.Type); typ != "" {
				for _, name := range x.Names {
					named[name.Name] = append(named[name.Name], typ)
				}
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				typ := ""
				if x.Type != nil {
					typ = r.typeOf(x.Type)
				} else if i < len(x.Values) {
					typ = valueType(x.Values[i])
				}
				if typ != "" {
					named[name.Name] = append(named[name.Name], typ)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				typ := ""
				if len(x.Rhs) == len(x.Lhs) {
					typ = valueType(x.Rhs[i])
				} else if i == 0 {
					typ = valueType(x.Rhs[0])
				}
				if typ != "" {
					named[id.Name] = append(named[id.Name], typ)
				}
			}
		}
		return true
	})

	implied := make(map[*ast.CompositeLit]string)
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			typ := implied[x]
			if x.Type != nil {
				typ = r.typeOf(x.Type)
			}
			var elem string
			switch tt := x.Type.(type) {
			case *ast.ArrayType:
				elem = r.typeOf(tt.Elt)
			case *ast.MapType:
				elem = r.typeOf(tt.Value)
			}
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if k, ok := kv.Key.(*ast.Ident); ok && typ != "" {
						set[typ+"."+k.Name] = true
					}
					el = kv.Value
				}
				if u, ok := el.(*ast.UnaryExpr); ok && u.Op == token.AND {
					el = u.X
				}
				if lit, ok := el.(*ast.CompositeLit); ok && lit.Type == nil && elem != "" {
					implied[lit] = elem
				}
			}
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range x.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				var holder string
				switch h := sel.X.(type) {
				case *ast.Ident:
					holder = h.Name
				case *ast.SelectorExpr:
					holder = h.Sel.Name
				}
				for _, typ := range named[holder] {
					if slices.Contains(idx.fields[typ], sel.Sel.Name) {
						set[typ+"."+sel.Sel.Name] = true
					}
				}
			}
		}
		return true
	})
}

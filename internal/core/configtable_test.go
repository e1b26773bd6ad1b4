package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// kindTests returns the position of every comparison or case clause in
// files that names a ConfigKind constant. Configurations differ only in
// their configs row, so outside the table no code may ask which kind it
// is running.
func kindTests(fset *token.FileSet, files []*ast.File) []string {
	kinds := map[string]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok || g.Tok != token.CONST || len(g.Specs) == 0 {
				continue
			}
			if typ, ok := g.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident); !ok || typ.Name != "ConfigKind" {
				continue
			}
			for _, sp := range g.Specs {
				for _, n := range sp.(*ast.ValueSpec).Names {
					kinds[n.Name] = true
				}
			}
		}
	}
	isKind := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && kinds[id.Name]
	}
	var found []string
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				switch n.Op {
				case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
					if isKind(n.X) || isKind(n.Y) {
						found = append(found, fset.Position(n.Pos()).String())
					}
				}
			case *ast.CaseClause:
				for _, e := range n.List {
					if isKind(e) {
						found = append(found, fset.Position(e.Pos()).String())
					}
				}
			}
			return true
		})
	}
	return found
}

// TestConfigKindOnlyInTable keeps the configs table the one source of
// configuration structure: no non-test file of the package compares a
// ConfigKind constant or switches on one.
func TestConfigKindOnlyInTable(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatal("no package files parsed")
	}
	for _, pos := range kindTests(fset, files) {
		t.Errorf("%s: tests a ConfigKind constant; read the configs row instead", pos)
	}

	// The detector itself: a package declaring the kinds and then
	// testing them in each banned shape.
	const src = `package p
type ConfigKind int
const (
	CfgA ConfigKind = iota
	CfgB
)
func f(k ConfigKind) bool {
	switch k {
	case CfgA:
	}
	return k == CfgB || CfgA != k
}`
	f, err := parser.ParseFile(fset, "synthetic.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := kindTests(fset, []*ast.File{f}); len(got) != 3 {
		t.Errorf("detector found %v in the synthetic file, want 3 sites", got)
	}
}

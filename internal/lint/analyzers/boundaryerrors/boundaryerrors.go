// Package boundaryerrors extends the PR-1 validated-error boundary to
// compile time: every exported function of the root xlate package that
// can fail must return errors classifiable with errors.Is — which in
// practice means every fmt.Errorf wraps a typed sentinel with %w, and
// ad-hoc errors.New values never cross the boundary.
//
// The contract (DESIGN.md §6): malformed user input surfaces as an
// error wrapping ErrInvalidParams / ErrInvalidWorkload; panics are
// reserved for internal invariant violations. An unwrapped Errorf at
// the boundary is an error a caller can only classify by string
// matching, which is exactly the bug class this analyzer removes.
//
// The coordinator/worker RPC boundary is held to the same standard:
// the cluster coordinator decides whether to requeue a cell (transient,
// client.ErrUnavailable) or fail it (deterministic, client.ErrJobFailed
// / client.ErrProtocol) purely via errors.Is, so every exported
// function in internal/service/client and internal/service/cluster
// must wrap a sentinel with %w too — a bare Errorf there silently
// turns a dead worker into a failed experiment.
//
// The crash-survivability internals (DESIGN.md §6, §12) extend the
// contract below the export line: the journal loader in
// internal/harness classifies damage as heal-vs-refuse purely via
// errors.Is(ErrJournalCorrupt / ErrJournalMismatch) for both the suite
// checkpoint and the cluster coordinator, and the cluster's
// takeover/federation callers classify probe misses the same way — so
// functions in those two packages whose names (or receiver types) mark
// them as journal, replay, federation, or takeover code are held to
// the %w rule too, exported or not.
package boundaryerrors

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"xlate/internal/lint"
)

// Analyzer is the API error-boundary check.
var Analyzer = &lint.Analyzer{
	Name: "boundaryerrors",
	Doc:  "exported boundary functions must wrap typed sentinels with %w",
	Run:  run,
}

// boundaryPkgs are the packages whose exported error returns callers
// classify with errors.Is: the public API, and the two sides of the
// coordinator/worker RPC boundary.
var boundaryPkgs = map[string]bool{
	"xlate":                          true,
	"xlate/internal/service/client":  true,
	"xlate/internal/service/cluster": true,
}

// crashPathPkgs hold the crash-survivability machinery: the journal
// loader (harness) and its coordinator user (cluster).
var crashPathPkgs = map[string]bool{
	"xlate/internal/harness":         true,
	"xlate/internal/service/cluster": true,
}

func run(pass *lint.Pass) {
	for _, pkg := range pass.Pkgs {
		if !boundaryPkgs[pkg.Path] && !crashPathPkgs[pkg.Path] {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !returnsError(pkg, fd) {
					continue
				}
				exported := boundaryPkgs[pkg.Path] && fd.Name.IsExported()
				if !exported && !(crashPathPkgs[pkg.Path] && crashPathFunc(fd)) {
					continue
				}
				checkFunc(pass, pkg, fd)
			}
		}
	}
}

// crashPathFunc reports whether a function belongs to the
// crash-survivability machinery, whose error returns are classified
// with errors.Is by the heal-vs-refuse and requeue-vs-fail decisions:
// its name, or its receiver's type name, says journal, replay,
// federation, or takeover.
func crashPathFunc(fd *ast.FuncDecl) bool {
	names := []string{fd.Name.Name}
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		names = append(names, recvTypeName(fd.Recv.List[0].Type))
	}
	for _, n := range names {
		l := strings.ToLower(n)
		for _, kw := range []string{"journal", "replay", "federat", "takeover"} {
			if strings.Contains(l, kw) {
				return true
			}
		}
	}
	return false
}

// recvTypeName is the type name of a method receiver: T, *T, T[P] or
// *T[P] all name T.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func returnsError(pkg *lint.Package, fd *ast.FuncDecl) bool {
	sig, ok := pkg.Info.Defs[fd.Name].Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if named, ok := sig.Results().At(i).Type().(*types.Named); ok &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			return true
		}
	}
	return false
}

func checkFunc(pass *lint.Pass, pkg *lint.Package, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() + "." + fn.Name() {
		case "errors.New":
			pass.Reportf(call.Pos(), "ad-hoc errors.New at the API boundary; wrap a typed sentinel with fmt.Errorf and %%w")
		case "fmt.Errorf":
			if len(call.Args) == 0 {
				return true
			}
			format, known := constantString(pkg, call.Args[0])
			if known && !strings.Contains(format, "%w") {
				pass.Reportf(call.Pos(), "fmt.Errorf without %%w at the API boundary; callers cannot classify this error with errors.Is")
			}
		}
		return true
	})
}

// constantString evaluates a constant string expression.
func constantString(pkg *lint.Package, e ast.Expr) (string, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

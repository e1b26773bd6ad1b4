// Package goroleak demands a shutdown path for every goroutine: a go
// statement must spawn work that is tied to a cancellation chain — a
// context, a WaitGroup, or channel traffic a closing peer can unblock
// (DESIGN.md §14).
//
// The judgment is interprocedural and deliberately permissive: the
// spawned function's transitive summary (lint.Graph) passes if it
// touches a context, performs any channel operation, or participates in
// a WaitGroup; so does handing a context value in as an argument. The
// analyzer under-reports by construction — a goroutine that blocks on a
// channel nobody closes still passes — because the alternative is
// flagging every structured-concurrency idiom the summaries cannot
// prove terminates. What it catches is the goroutine with no ears at
// all: no context, no channels, no group — the kind that outlives a
// coordinator generation and keeps mutating state nobody owns.
//
// Fire-and-forget sites that are genuinely sound carry
// //eeatlint:allow goroleak <reason>.
package goroleak

import (
	"go/ast"
	"go/types"

	"xlate/internal/lint"
)

// Analyzer is the goroleak check.
var Analyzer = &lint.Analyzer{
	Name: "goroleak",
	Doc:  "every goroutine must be tied to a context, WaitGroup, or channel shutdown path",
	Run:  run,
}

// stdSupervised are stdlib callees that own their shutdown story:
// (*http.Server).Serve returns when the server is Shutdown/Closed.
var stdSupervised = map[string]bool{
	"(*net/http.Server).Serve":          true,
	"(*net/http.Server).ListenAndServe": true,
}

func run(pass *lint.Pass) {
	g := pass.Graph()
	for _, n := range g.Nodes {
		ast.Inspect(n.Body(), func(node ast.Node) bool {
			if _, ok := node.(*ast.FuncLit); ok {
				return false // its own node
			}
			gs, ok := node.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !supervised(g, n.Pkg, gs.Call) {
				pass.Reportf(gs.Pos(),
					"goroutine has no shutdown path: tie it to a context, WaitGroup, or channel (or justify with //eeatlint:allow goroleak)")
			}
			// The call's arguments and a literal callee still deserve the
			// generic walk for nested go statements.
			return true
		})
	}
}

// supervised decides whether the spawned call has a shutdown path.
func supervised(g *lint.Graph, pkg *lint.Package, call *ast.CallExpr) bool {
	// A context handed in as an argument is a shutdown path even if the
	// summary cannot see inside the callee.
	for _, arg := range call.Args {
		if tv, ok := pkg.Info.Types[arg]; ok && tv.Type != nil && lint.IsContextType(tv.Type) {
			return true
		}
	}

	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		if n, ok := g.ByLit[fun]; ok {
			return summaryPasses(&n.Summary)
		}
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return calleePasses(g, fn)
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return calleePasses(g, fn)
		}
	}
	// Computed callee (function value from a variable): the summaries
	// cannot see through it; stay silent rather than guess wrong.
	return true
}

// calleePasses judges a named callee: module functions by summary,
// stdlib by the supervised table.
func calleePasses(g *lint.Graph, fn *types.Func) bool {
	if n := g.Node(fn); n != nil {
		return summaryPasses(&n.Summary)
	}
	return stdSupervised[fn.FullName()]
}

// summaryPasses is the shutdown-path judgment on a transitive summary.
func summaryPasses(s *lint.Summary) bool {
	return s.UsesCtx || s.ChanOps || s.WaitGroup
}

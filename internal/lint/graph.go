package lint

import (
	"go/ast"
	"go/types"
)

// This file is the interprocedural substrate of the framework
// (DESIGN.md §14): a module-level call graph over go/types whose nodes
// are declared functions and function literals, with classified edges.
// Per-function facts are folded bottom-up over the graph's strongly
// connected components in summary.go; analyzers reach both through
// Pass.Graph(), which builds the graph once per RunAnalyzers call and
// shares it across the suite.

// EdgeKind classifies one call-graph edge.
type EdgeKind uint8

const (
	// EdgeCall is a direct, statically resolved call (including an
	// immediately invoked function literal).
	EdgeCall EdgeKind = iota
	// EdgeGo spawns the callee in a new goroutine.
	EdgeGo
	// EdgeDefer is a deferred call; it runs in the caller before
	// returning, so summaries treat it like EdgeCall.
	EdgeDefer
	// EdgeRef is a reference to a function, method value, or literal
	// without an immediate call — the value escapes to a variable,
	// argument, or field, and may run anywhere. Summaries do not flow
	// across it; reachability analyses may choose to follow it.
	EdgeRef
	// EdgeDynamic is a possible interface-dispatch target: the call goes
	// through an interface method, and the edge points at a module
	// method whose receiver type implements that interface
	// (class-hierarchy analysis). Over-approximate by construction, so
	// summaries do not flow across it either.
	EdgeDynamic
)

// String names the edge kind for diagnostics and tests.
func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeGo:
		return "go"
	case EdgeDefer:
		return "defer"
	case EdgeRef:
		return "ref"
	case EdgeDynamic:
		return "dynamic"
	}
	return "?"
}

// Edge is one outgoing edge of a FuncNode.
type Edge struct {
	Kind EdgeKind
	To   *FuncNode
	// Site is the call expression, go/defer statement's call, or the
	// referencing expression — where the edge happens in source.
	Site ast.Node
}

// FuncNode is one function of the module call graph: a declared
// function or method (Obj/Decl set) or a function literal (Lit and
// Parent set).
type FuncNode struct {
	Obj    *types.Func   // nil for literals
	Decl   *ast.FuncDecl // nil for literals
	Lit    *ast.FuncLit  // nil for declared functions
	Pkg    *Package
	Parent *FuncNode // enclosing function, for literals
	Out    []Edge

	// Summary carries the bottom-up facts of summary.go.
	Summary Summary

	scc int // SCC id, assigned by summarize; callee SCCs have lower ids
}

// Body returns the function's body ("nil" only for bodiless decls,
// which never become nodes).
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	return n.Decl.Body
}

// Label renders the node for diagnostics: pkg.Func, pkg.Recv.Func, or
// "func literal in pkg.Func" for literals.
func (n *FuncNode) Label() string {
	if n.Lit != nil {
		root := n.Parent
		for root != nil && root.Lit != nil {
			root = root.Parent
		}
		if root != nil {
			return "func literal in " + root.Label()
		}
		return "func literal"
	}
	return funcObjLabel(n.Obj)
}

// funcObjLabel renders pkg.Func or pkg.Recv.Func.
func funcObjLabel(fn *types.Func) string {
	label := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			label = named.Obj().Name() + "." + label
		}
	}
	if fn.Pkg() != nil {
		label = fn.Pkg().Name() + "." + label
	}
	return label
}

// Graph is the module call graph plus the node indexes analyzers
// resolve through.
type Graph struct {
	Nodes []*FuncNode
	ByObj map[*types.Func]*FuncNode
	ByLit map[*ast.FuncLit]*FuncNode

	// lockLabels names every mutex object seen by the summarizer
	// (Type.field or pkg.var), for lock-order diagnostics.
	lockLabels map[*types.Var]string

	// ifaceMethods caches CHA results: interface method → module
	// methods possibly dispatched to.
	ifaceMethods map[*types.Func][]*FuncNode
}

// LockLabel names a mutex object for diagnostics ("Coordinator.mu").
func (g *Graph) LockLabel(v *types.Var) string {
	if l, ok := g.lockLabels[v]; ok {
		return l
	}
	return v.Name()
}

// BuildGraph constructs the call graph over the loaded packages. The
// resolution rules, in order, for each call site:
//
//   - an ident or selector resolving to a declared module function or
//     concrete method → EdgeCall (EdgeGo/EdgeDefer under go/defer);
//   - a directly invoked function literal → the same;
//   - a call through an interface method → EdgeDynamic edges to every
//     module method that may satisfy the dispatch (CHA over the
//     module's named types);
//   - any other mention of a module function, method value, or literal
//     (assigned, passed, returned) → EdgeRef.
//
// Calls out of the module (stdlib) produce no edges; analyzers classify
// those against known-behavior tables in summary.go instead.
func BuildGraph(pkgs []*Package) *Graph {
	g := &Graph{
		ByObj:        make(map[*types.Func]*FuncNode),
		ByLit:        make(map[*ast.FuncLit]*FuncNode),
		lockLabels:   make(map[*types.Var]string),
		ifaceMethods: make(map[*types.Func][]*FuncNode),
	}

	// Pass 1: a node per declared function with a body.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg}
				g.ByObj[obj] = n
				g.Nodes = append(g.Nodes, n)
			}
		}
	}

	// Pass 2: walk every body, creating literal nodes and edges.
	for _, n := range g.Nodes {
		if n.Lit == nil { // literals are appended during the walk
			g.walkBody(n, n.Decl.Body)
		}
	}

	summarize(g, pkgs)
	return g
}

// walkBody records the edges of one function body, spawning child
// nodes for the function literals it contains.
func (g *Graph) walkBody(n *FuncNode, body *ast.BlockStmt) {
	var walk func(node ast.Node, kind EdgeKind)
	// walk visits an expression/statement tree; kind is the edge kind a
	// directly invoked callee at the root gets (EdgeCall normally,
	// EdgeGo/EdgeDefer under the respective statements).
	walk = func(node ast.Node, kind EdgeKind) {
		switch x := node.(type) {
		case nil:
			return
		case *ast.GoStmt:
			walk(x.Call, EdgeGo)
			return
		case *ast.DeferStmt:
			walk(x.Call, EdgeDefer)
			return
		case *ast.CallExpr:
			g.callEdges(n, x, kind)
			return
		case *ast.FuncLit:
			// A bare literal (not the Fun of a call): it escapes.
			child := g.litNode(n, x)
			n.Out = append(n.Out, Edge{Kind: EdgeRef, To: child, Site: x})
			return
		case *ast.Ident:
			g.refEdge(n, x, x)
			return
		case *ast.SelectorExpr:
			// A method value or package-qualified function reference.
			g.refEdge(n, x.Sel, x)
			walk(x.X, EdgeCall)
			return
		}
		// Generic recursion for every other node.
		ast.Inspect(node, func(child ast.Node) bool {
			if child == node || child == nil {
				return child == node
			}
			walk(child, EdgeCall)
			return false
		})
	}
	for _, stmt := range body.List {
		walk(stmt, EdgeCall)
	}
}

// Node returns the node of a module function, nil for functions
// outside the module. A call to a generic function or to a method of a
// generic type resolves to an instantiation; its node is the
// declaration's (Origin), so summaries see through generic code.
func (g *Graph) Node(fn *types.Func) *FuncNode {
	return g.ByObj[fn.Origin()]
}

// callEdges resolves one call site into edges; kind is EdgeCall, or
// EdgeGo/EdgeDefer when the call hangs off a go/defer statement.
func (g *Graph) callEdges(n *FuncNode, call *ast.CallExpr, kind EdgeKind) {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.FuncLit:
		child := g.litNode(n, f)
		n.Out = append(n.Out, Edge{Kind: kind, To: child, Site: call})
	case *ast.Ident:
		if fn, ok := n.Pkg.Info.Uses[f].(*types.Func); ok {
			if target := g.Node(fn); target != nil {
				n.Out = append(n.Out, Edge{Kind: kind, To: target, Site: call})
			}
		}
	case *ast.SelectorExpr:
		fn, ok := n.Pkg.Info.Uses[f.Sel].(*types.Func)
		if ok {
			if isInterfaceMethod(fn) {
				for _, target := range g.dispatchTargets(n.Pkg, fn) {
					n.Out = append(n.Out, Edge{Kind: EdgeDynamic, To: target, Site: call})
				}
			} else if target := g.Node(fn); target != nil {
				n.Out = append(n.Out, Edge{Kind: kind, To: target, Site: call})
			}
		}
		// The receiver expression may itself mention functions.
		g.walkBody(n, &ast.BlockStmt{List: []ast.Stmt{&ast.ExprStmt{X: f.X}}})
	default:
		// Computed callee (function-typed expression): no edge, but the
		// expression may reference functions.
		g.walkBody(n, &ast.BlockStmt{List: []ast.Stmt{&ast.ExprStmt{X: fun}}})
	}
	for _, arg := range call.Args {
		g.walkBody(n, &ast.BlockStmt{List: []ast.Stmt{&ast.ExprStmt{X: arg}}})
	}
}

// refEdge records an EdgeRef when id mentions a module function outside
// a call position.
func (g *Graph) refEdge(n *FuncNode, id *ast.Ident, site ast.Node) {
	fn, ok := n.Pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	if target := g.Node(fn); target != nil {
		n.Out = append(n.Out, Edge{Kind: EdgeRef, To: target, Site: site})
	}
}

// litNode creates (and walks) the node of a function literal.
func (g *Graph) litNode(parent *FuncNode, lit *ast.FuncLit) *FuncNode {
	if n, ok := g.ByLit[lit]; ok {
		return n
	}
	n := &FuncNode{Lit: lit, Pkg: parent.Pkg, Parent: parent}
	g.ByLit[lit] = n
	g.Nodes = append(g.Nodes, n)
	g.walkBody(n, lit.Body)
	return n
}

// isInterfaceMethod reports whether fn is declared on an interface.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, isIface := sig.Recv().Type().Underlying().(*types.Interface)
	return isIface
}

// dispatchTargets returns the module methods an interface-method call
// may dispatch to: for every named type of the analyzed packages whose
// value or pointer method set implements the interface, the method with
// the call's name. Results are cached per interface method.
func (g *Graph) dispatchTargets(pkg *Package, iface *types.Func) []*FuncNode {
	if cached, ok := g.ifaceMethods[iface]; ok {
		return cached
	}
	sig := iface.Type().(*types.Signature)
	ifaceType, ok := sig.Recv().Type().Underlying().(*types.Interface)
	var targets []*FuncNode
	if ok {
		seen := make(map[*FuncNode]bool)
		for obj := range g.ByObj {
			osig, k := obj.Type().(*types.Signature)
			if !k || osig.Recv() == nil || obj.Name() != iface.Name() {
				continue
			}
			recv := osig.Recv().Type()
			if _, ri := recv.Underlying().(*types.Interface); ri {
				continue
			}
			if types.Implements(recv, ifaceType) ||
				types.Implements(types.NewPointer(recv), ifaceType) {
				if n := g.ByObj[obj]; n != nil && !seen[n] {
					seen[n] = true
					targets = append(targets, n)
				}
			}
		}
	}
	g.ifaceMethods[iface] = targets
	return targets
}

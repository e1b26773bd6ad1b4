// Package locksafe guards the mutex discipline of the service and
// cluster layers: no blocking under a lock, and one global acquisition
// order per lock pair (DESIGN.md §14).
//
// Two checks share one intraprocedural scan over each function body,
// with the interprocedural engine (lint.Graph) supplying what callees
// do:
//
//   - Blocking while holding a mutex. The scan tracks the held set
//     through straight-line code (branch bodies scan against a copy —
//     an acquisition inside an if must not leak into the fall-through
//     path) and flags channel operations, known-blocking stdlib calls
//     (HTTP round trips, fsync, time.Sleep, WaitGroup waits), and calls
//     to module functions whose transitive summary blocks. A deferred
//     Unlock keeps the lock held to the end of the scan, which is
//     exactly the semantics; other deferred calls are skipped (they run
//     at return, when the analysis of interleaving is the runtime's
//     problem, not a linear scan's).
//
//   - Lock-order inversion. Every acquisition while another lock is
//     held records an ordered pair — including acquisitions the callee
//     summary performs on the caller's behalf. Two sites establishing
//     (A,B) and (B,A) are a deadlock waiting for contention; both sites
//     are reported, each naming the other.
//
// Sites that hold a lock across a channel send by design (the
// depth-checked queue send in service.Submit) carry
// //eeatlint:allow locksafe <reason>.
package locksafe

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"xlate/internal/lint"
)

// Analyzer is the locksafe check.
var Analyzer = &lint.Analyzer{
	Name: "locksafe",
	Doc:  "no blocking under a mutex; one global acquisition order per lock pair",
	Run:  run,
}

// pairKey orders one acquisition: second was acquired while first was
// held.
type pairKey struct {
	first, second *types.Var
}

// checker accumulates lock-order evidence across the whole module.
type checker struct {
	pass *lint.Pass
	g    *lint.Graph
	// pairs: first site establishing each ordered pair.
	pairs map[pairKey]token.Pos
}

func run(pass *lint.Pass) {
	c := &checker{pass: pass, g: pass.Graph(), pairs: make(map[pairKey]token.Pos)}
	for _, n := range c.g.Nodes {
		held := []*types.Var{}
		c.scanList(n, n.Body().List, &held)
	}
	c.reportInversions()
}

// scanList scans statements in order, mutating held.
func (c *checker) scanList(n *lint.FuncNode, stmts []ast.Stmt, held *[]*types.Var) {
	for _, s := range stmts {
		c.scan(n, s, held)
	}
}

// scan walks one statement or expression. Straight-line constructs
// mutate held; branch bodies get a copy, so acquisitions inside them
// stay local to the branch.
func (c *checker) scan(n *lint.FuncNode, node ast.Node, held *[]*types.Var) {
	switch x := node.(type) {
	case nil:
		return
	case *ast.FuncLit:
		return // its own node, scanned with an empty held set
	case *ast.DeferStmt:
		if op, ok := lint.MutexOpOf(n.Pkg, x.Call); ok && op.Kind == lint.MutexRelease {
			return // defer mu.Unlock(): the lock stays held to the end
		}
		return // other deferred work runs at return; out of scan scope
	case *ast.CallExpr:
		c.checkCall(n, x, held)
		return
	case *ast.SendStmt:
		c.blockingWhileHeld(n, x.Pos(), "channel send", *held)
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			c.blockingWhileHeld(n, x.Pos(), "channel receive", *held)
		}
	case *ast.SelectStmt:
		blocking := true
		for _, cl := range x.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				blocking = false
			}
		}
		if blocking {
			c.blockingWhileHeld(n, x.Pos(), "select", *held)
		}
		// The comm operations' blocking IS the select's, judged above —
		// a receive in a default-carrying select never blocks. Their
		// subexpressions (calls computing channels or values) still scan.
		for _, cl := range x.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			branchHeld := append([]*types.Var(nil), *held...)
			if cc.Comm != nil {
				c.scanCommExprs(n, cc.Comm, &branchHeld)
			}
			c.scanList(n, cc.Body, &branchHeld)
		}
		return
	case *ast.RangeStmt:
		if tv, ok := n.Pkg.Info.Types[x.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				c.blockingWhileHeld(n, x.Pos(), "range over channel", *held)
			}
		}
		c.scan(n, x.X, held)
		c.scanBranch(n, x.Body, *held)
		return
	case *ast.IfStmt:
		c.scan(n, x.Init, held)
		c.scan(n, x.Cond, held)
		c.scanBranch(n, x.Body, *held)
		if x.Else != nil {
			elseHeld := append([]*types.Var(nil), *held...)
			c.scan(n, x.Else, &elseHeld)
		}
		return
	case *ast.ForStmt:
		c.scan(n, x.Init, held)
		c.scan(n, x.Cond, held)
		body := append([]*types.Var(nil), *held...)
		c.scanList(n, x.Body.List, &body)
		c.scan(n, x.Post, &body)
		return
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		ast.Inspect(node, func(child ast.Node) bool {
			if child == node || child == nil {
				return child == node
			}
			branchHeld := append([]*types.Var(nil), *held...)
			c.scan(n, child, &branchHeld)
			return false
		})
		return
	case *ast.BlockStmt:
		c.scanList(n, x.List, held)
		return
	}
	// Generic one-level recursion, same held set.
	ast.Inspect(node, func(child ast.Node) bool {
		if child == node || child == nil {
			return child == node
		}
		c.scan(n, child, held)
		return false
	})
}

// scanCommExprs scans a select comm statement's subexpressions while
// skipping the channel operation itself (the select already judged it).
func (c *checker) scanCommExprs(n *lint.FuncNode, comm ast.Stmt, held *[]*types.Var) {
	switch s := comm.(type) {
	case *ast.SendStmt:
		c.scan(n, s.Chan, held)
		c.scan(n, s.Value, held)
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			c.scan(n, u.X, held)
			return
		}
		c.scan(n, s.X, held)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			if u, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				c.scan(n, u.X, held)
				continue
			}
			c.scan(n, rhs, held)
		}
		for _, lhs := range s.Lhs {
			c.scan(n, lhs, held)
		}
	default:
		c.scan(n, comm, held)
	}
}

// scanBranch scans a block against a copy of the held set.
func (c *checker) scanBranch(n *lint.FuncNode, body *ast.BlockStmt, held []*types.Var) {
	branchHeld := append([]*types.Var(nil), held...)
	c.scanList(n, body.List, &branchHeld)
}

// checkCall handles one call site: mutex ops mutate the held set,
// blocking callees are flagged, callee acquisitions feed the pair map.
func (c *checker) checkCall(n *lint.FuncNode, call *ast.CallExpr, held *[]*types.Var) {
	// Arguments may themselves contain calls and channel ops.
	for _, arg := range call.Args {
		c.scan(n, arg, held)
	}

	if op, ok := lint.MutexOpOf(n.Pkg, call); ok {
		switch op.Kind {
		case lint.MutexAcquire:
			for _, h := range *held {
				c.recordPair(h, op.Var, call.Pos())
			}
			*held = append(*held, op.Var)
		case lint.MutexRelease:
			for i := len(*held) - 1; i >= 0; i-- {
				if (*held)[i] == op.Var {
					*held = append((*held)[:i], (*held)[i+1:]...)
					break
				}
			}
		}
		return
	}

	if k, name, ok := lint.StdBlockingCall(n.Pkg, call); ok {
		c.blockingWhileHeld(n, call.Pos(), fmt.Sprintf("%s (%s)", name, k), *held)
		return
	}

	// Module callee: its transitive summary says whether it blocks and
	// which locks it takes on our behalf.
	callee := c.calleeNode(n.Pkg, call)
	if callee == nil {
		return
	}
	if callee.Summary.Blocks != 0 && len(*held) > 0 {
		k := lowestBlock(callee.Summary.Blocks)
		c.blockingWhileHeld(n, call.Pos(),
			fmt.Sprintf("call to %s, which blocks (%s: %s)", callee.Label(), callee.Summary.Blocks, callee.Summary.Via(k)),
			*held)
	}
	for v := range callee.Summary.Acquires {
		for _, h := range *held {
			if h != v {
				c.recordPair(h, v, call.Pos())
			}
		}
	}
}

// lowestBlock isolates the lowest set bit of a block mask — the kind
// whose provenance label the diagnostic shows.
func lowestBlock(k lint.BlockKind) lint.BlockKind {
	return k & (^k + 1)
}

// calleeNode resolves a call to a module graph node (nil for stdlib,
// builtins, computed callees, and interface dispatch).
func (c *checker) calleeNode(pkg *lint.Package, call *ast.CallExpr) *lint.FuncNode {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.FuncLit:
		return c.g.ByLit[fun]
	default:
		return nil
	}
	if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
		return c.g.Node(fn)
	}
	return nil
}

// blockingWhileHeld reports op happening with locks held.
func (c *checker) blockingWhileHeld(n *lint.FuncNode, pos token.Pos, op string, held []*types.Var) {
	if len(held) == 0 {
		return
	}
	labels := ""
	for i, v := range held {
		if i > 0 {
			labels += ", "
		}
		labels += c.g.LockLabel(v)
	}
	c.pass.Reportf(pos, "%s while holding %s; shrink the critical section or justify with //eeatlint:allow locksafe", op, labels)
}

// recordPair notes that second was acquired while first was held.
func (c *checker) recordPair(first, second *types.Var, pos token.Pos) {
	if first == second {
		return
	}
	k := pairKey{first, second}
	if _, ok := c.pairs[k]; !ok {
		c.pairs[k] = pos
	}
}

// reportInversions flags every lock pair acquired in both orders, at
// both establishing sites.
func (c *checker) reportInversions() {
	for k, pos := range c.pairs {
		revPos, ok := c.pairs[pairKey{k.second, k.first}]
		if !ok {
			continue
		}
		a, b := c.g.LockLabel(k.first), c.g.LockLabel(k.second)
		other := c.pass.Fset.Position(revPos)
		c.pass.Reportf(pos,
			"lock order inversion: %s acquired while holding %s here, but the opposite order is established at %s:%d",
			b, a, other.Filename, other.Line)
	}
}

package analysis

import (
	"go/ast"
	"go/types"
)

// LockSend enforces the no-blocking-traffic-under-a-lock invariant in
// internal/{comm,cluster,core,fault}: a fabric operation (Fetch/Send/Ping)
// or an unbuffered channel operation performed while a sync.Mutex or RWMutex
// is held couples lock hold time to network progress. Under a partition the
// fabric call blocks until its deadline — and every goroutine queueing on
// that mutex (checkpoint trackers, the speculation monitor, metric readers)
// stalls with it. That is exactly the deadlock shape partition chaos tests
// exist to expose, so it is rejected statically.
//
// The blocking operations and their held sets come from the lock table
// (locktable.go, walked by flow.go): an early-return arm that unlocks does
// not release the lock on the path that continues, a deferred unlock keeps
// the lock held to the end of the function, and a goroutine body does not
// hold its spawner's locks. Select statements with a default clause are
// non-blocking and pass; a select's communication clauses block as the
// select, reported once.
var LockSend = &Analyzer{
	Name: "locksend",
	Tier: 1,
	Doc: "no fabric Send/Fetch/Ping or blocking channel operation while a " +
		"sync.Mutex/RWMutex is held — the deadlock shape partitions expose",
	Run: runLockSend,
}

// fabricMethods are the comm-package method names whose calls block on the
// network.
var fabricMethods = map[string]bool{
	"Fetch": true,
	"Send":  true,
	"Ping":  true,
}

func runLockSend(pass *Pass) {
	path := pass.Pkg.Path()
	if pass.Prog == nil || !pathHasSegments(path, "internal", "comm") &&
		!pathHasSegments(path, "internal", "cluster") &&
		!pathHasSegments(path, "internal", "core") &&
		!pathHasSegments(path, "internal", "fault") {
		return
	}
	for _, b := range pass.Prog.tab.blocks {
		if b.fn.Pkg() == pass.Pkg {
			pass.Reportf(b.pos, b.msg, b.held[len(b.held)-1].text)
		}
	}
}

// fabricCall reports whether call invokes a blocking fabric method — a
// method named Fetch/Send/Ping declared in a comm package
// (matched on path segments so fixture trees qualify too).
func fabricCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !fabricMethods[sel.Sel.Name] {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	if fn.Type().(*types.Signature).Recv() == nil {
		return "", false
	}
	if !pathHasSegments(fn.Pkg().Path(), "internal", "comm") && fn.Pkg().Path() != "comm" {
		return "", false
	}
	return sel.Sel.Name, true
}

// isChanType reports whether e has a channel type.
func isChanType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// selectHasDefault reports whether a select has a default clause.
func selectHasDefault(st *ast.SelectStmt) bool {
	for _, c := range st.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

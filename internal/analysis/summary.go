package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Per-function summaries over the call graph. Two facts matter to the tier-2
// analyzers and both propagate through calls:
//
//   - blocks: the function can park on channel communication (a receive, a
//     send, a select without a default, a range over a channel) directly or
//     via a callee. sync.WaitGroup.Wait is deliberately not counted — a
//     fork/join barrier over workers the function itself spawned is not the
//     stranded-on-a-peer shape cancelpoll exists to catch, and counting it
//     would flag every recovery round's join.
//   - polls: the function observes cancellation directly or via a callee — it
//     receives/selects on a channel whose name says
//     cancel/stop/done/quit/closed, or calls a function named *Canceled.
//
// Both are syntactic over-approximations refined to a fixpoint over the
// approximate call graph; cancelpoll combines them per loop. A third fact
// rides along for timerstop:
//
//   - timer source: the function hands a timer it (transitively) created
//     back to its caller — its results include a *time.Ticker or
//     *time.Timer and it reaches a constructor directly or through another
//     source. Result type alone is not enough: a getter returning a
//     struct's ticker field hands out a borrowed value whose Stop belongs
//     to the owner, not the caller.
//
// The fact walk (locktable.go) records the direct facts outside spawned
// goroutines, and BuildProgram propagates them.

// summaryFact is one per-function fact that flows from callee to caller.
type summaryFact uint8

const (
	factPolls summaryFact = iota
	factBlocks
	factTimerSource
)

// Polls reports whether fn (transitively) observes cancellation.
func (p *Program) Polls(fn *types.Func) bool { return p.summary[fn][factPolls] }

// Blocks reports whether fn (transitively) can park on channel communication.
func (p *Program) Blocks(fn *types.Func) bool { return p.summary[fn][factBlocks] }

// propagate grows each declared function's facts by those of its
// synchronous callees until nothing changes. inherit says whether fn takes
// callee's fact k, and what fn records for it. Facts are only ever added, so
// recursion converges; passes visit DeclList and each callee list in order,
// so the witness recorded for a fact is deterministic.
func propagate[K comparable, V any](p *Program, facts map[*types.Func]map[K]V,
	inherit func(fn, callee *types.Func, k K, v V) (V, bool)) {
	fixpoint(func() (changed bool) {
		for _, fn := range p.DeclList {
			for _, c := range p.syncCallees[fn] {
				for k, v := range facts[c] {
					if _, ok := facts[fn][k]; ok {
						continue
					}
					if v, ok := inherit(fn, c, k, v); ok {
						if facts[fn] == nil {
							facts[fn] = map[K]V{}
						}
						facts[fn][k] = v
						changed = true
					}
				}
			}
		}
		return changed
	})
}

// fixpoint repeats pass until a pass changes nothing. It is the package's
// one fixpoint loop: propagate runs on it, and so does guardfield's
// entry-set intersection.
func fixpoint(pass func() (changed bool)) {
	for changed := true; changed; {
		changed = pass()
	}
}

// hasTimerResult reports whether fn's results include a *time.Ticker or
// *time.Timer.
func hasTimerResult(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Results().Len(); i++ {
		if timerTypeKind(sig.Results().At(i).Type()) != "" {
			return true
		}
	}
	return false
}

// cancelNames are the substrings that make a channel identifier read as a
// cancellation signal.
var cancelNames = []string{"cancel", "stop", "done", "quit", "closed"}

// isCancelChan reports whether the source text of a channel expression names
// a cancellation signal (b.stopCh, r.closed, ctx.Done(), ...).
func isCancelChan(e ast.Expr) bool {
	text := strings.ToLower(types.ExprString(e))
	for _, n := range cancelNames {
		if strings.Contains(text, n) {
			return true
		}
	}
	return false
}

// pollsCancelNode reports whether n directly observes cancellation: a call of
// a function named *Canceled (core's checkCanceled), a receive from a
// cancel-named channel, or a select with a cancel-named receive case.
func pollsCancelNode(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		name := calledName(n)
		return name == "Canceled" || name == "canceled" || strings.HasSuffix(name, "Canceled")
	case *ast.UnaryExpr:
		return n.Op == token.ARROW && isCancelChan(n.X)
	case *ast.SelectStmt:
		for _, c := range n.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			if recv := commRecvExpr(cc.Comm); recv != nil && isCancelChan(recv) {
				return true
			}
		}
	}
	return false
}

// blocksNode reports whether n is a directly-blocking channel operation.
// Ranges over channels (rare in this tree) are re-checked with type info by
// cancelpoll itself; the summary walk spans many packages and stays
// syntactic.
func blocksNode(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.UnaryExpr:
		return n.Op == token.ARROW
	case *ast.SendStmt:
		return true
	case *ast.SelectStmt:
		return !selectHasDefault(n)
	}
	return false
}

// calledName returns the bare name of the called function or method,
// whatever the callee resolves to — including calls of func-typed fields
// like e.cfg.OnRangeDone(start, end).
func calledName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// commRecvExpr extracts the channel expression of a select case's receive
// statement, or nil when the case is a send.
func commRecvExpr(s ast.Stmt) ast.Expr {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if u, ok := s.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			return u.X
		}
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				return u.X
			}
		}
	}
	return nil
}

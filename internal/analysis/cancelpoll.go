package analysis

import "go/ast"

// CancelPoll guards cancellability of the long-running machinery:
// speculation's first-completion-wins protocol (§4 of the resilience design)
// and fabric Close both depend on every loop that can park on channel
// communication also observing a cancellation signal. A loop that blocks and
// never polls strands the goroutine: a losing speculative engine keeps
// holding fetch batches, Close hangs behind it, and the driver's exact-count
// reconciliation waits forever.
//
// The analyzer walks every function reachable from a //khuzdulvet:longrun
// root. For each for/range loop it computes, over the loop's entire subtree
// (nested loops and callees included, via the call-graph summaries):
//
//	blocks — the loop's own iteration can park: a receive, send, or select
//	    without default appears outside nested loops and function literals,
//	    or a called function (transitively) blocks;
//	polls — anywhere in the subtree, cancellation is observed: a receive or
//	    select case on a cancel-named channel (core's Config.Stop, a
//	    task's stop, a fabric's closed), a call of a function named
//	    *Canceled (such as core's checkCanceled), or a callee that polls.
//
// A loop with blocks && !polls is flagged. Blocking evidence inside a nested
// loop is attributed to that nested loop (it gets its own finding); blocking
// inside a spawned function literal belongs to the spawned goroutine, not
// this loop. sync.WaitGroup.Wait is not blocking evidence (see summary.go).
var CancelPoll = &Analyzer{
	Name: "cancelpoll",
	Tier: 2,
	Doc: "loops reachable from //khuzdulvet:longrun roots that block on " +
		"channels must poll Config.Stop or another cancel channel",
	Run: runCancelPoll,
}

func runCancelPoll(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	for _, fn := range pass.Prog.DeclList {
		fd := pass.Prog.Decls[fn]
		if fn.Pkg() != pass.Pkg || !pass.Prog.Long[fn] || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				if isChanType(pass.Info, loop.X) {
					// Ranging over a channel is itself a blocking receive.
					if !loopHas(pass, loop.Body, factPolls) {
						pass.Reportf(loop.Pos(), "loop ranges over a channel but never polls cancellation; a stalled sender strands it (function %s)", fn.Name())
					}
					return true
				}
				body = loop.Body
			default:
				return true
			}
			if loopHas(pass, body, factBlocks) && !loopHas(pass, body, factPolls) {
				pass.Reportf(n.Pos(), "loop blocks on channel communication but never polls Config.Stop or another cancel channel (function %s); cancellation and Close can strand it", fn.Name())
			}
			return true
		})
	}
}

// loopHas reports whether fact f holds for a loop body: directly (blocksNode,
// pollsCancelNode) or through a resolved callee's summary. Function literals
// and go statements are skipped — the spawned goroutine blocks or polls, not
// this loop. For blocking, a range over a channel counts and nested loops
// are skipped (each gets its own finding); for polling, nested loops count —
// a poll in an inner loop covers every enclosing loop's iteration.
func loopHas(pass *Pass, body *ast.BlockStmt, f summaryFact) bool {
	direct, blocking := pollsCancelNode, f == factBlocks
	if blocking {
		direct = blocksNode
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.ForStmt:
			return !blocking
		case *ast.RangeStmt:
			if blocking {
				found = isChanType(pass.Info, n.X)
				return false
			}
		case *ast.CallExpr:
			if fn := calleeFunc(pass.Info, n); fn != nil {
				for _, target := range pass.Prog.implementations(fn) {
					found = found || pass.Prog.summary[target][f]
				}
			}
		}
		found = found || direct(n)
		return !found
	})
	return found
}

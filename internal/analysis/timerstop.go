package analysis

import (
	"go/ast"
	"go/types"
)

// TimerStop enforces one shape on time.NewTicker, time.NewTimer and
// time.AfterFunc: the creation is the whole right-hand side of an
// assignment to one identifier, and the next statement of the same block is
// `defer <that identifier>.Stop()`. Under Go 1.22 semantics (both modules'
// language version) an unstopped ticker pins a runtime timer and wakes
// forever and an unstopped timer pins its heap timer until it fires; under
// any version an unstopped AfterFunc still runs its function — in a resident
// service, possibly against a later query that reuses the first one's ID.
//
// The rule is syntactic and deliberately strict: a timer returned to a
// caller, stored in a field, stopped on a later line or discarded is
// reported at its creation, whatever the surrounding code does with it.
// Every timer in the tree has the sanctioned shape, so the rule costs no
// flow interpretation and admits no escape analysis to get wrong.
var TimerStop = &Analyzer{
	Name: "timerstop",
	Doc: "every time.NewTicker/NewTimer/AfterFunc result must be bound to a " +
		"local and stopped by `defer x.Stop()` on the next statement",
	Run: runTimerStop,
}

func runTimerStop(pass *Pass) {
	for _, f := range pass.Files {
		// stopped holds the creations in the sanctioned shape. A statement
		// list is visited before the calls inside it, so each creation is
		// marked before it is checked.
		stopped := map[*ast.CallExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				markDeferStopped(pass.Info, n.List, stopped)
			case *ast.CaseClause:
				markDeferStopped(pass.Info, n.Body, stopped)
			case *ast.CommClause:
				markDeferStopped(pass.Info, n.Body, stopped)
			case *ast.CallExpr:
				if name := timerCreation(pass.Info, n); name != "" && !stopped[n] {
					pass.Reportf(n.Pos(),
						"%s result is not bound to a local and stopped by a defer on the next "+
							"statement: an unstopped timer pins a runtime timer until it fires "+
							"(a ticker, forever) — write `t := %s(...)` then `defer t.Stop()`",
						name, name)
				}
			}
			return true
		})
	}
}

// markDeferStopped records each creation in list that a single-identifier
// assignment binds and the next statement stops with `defer <ident>.Stop()`.
func markDeferStopped(info *types.Info, list []ast.Stmt, stopped map[*ast.CallExpr]bool) {
	for i := 0; i+1 < len(list); i++ {
		as, ok := list[i].(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			continue
		}
		id, okID := as.Lhs[0].(*ast.Ident)
		call, okCall := as.Rhs[0].(*ast.CallExpr)
		if !okID || !okCall || id.Name == "_" || timerCreation(info, call) == "" {
			continue
		}
		def, ok := list[i+1].(*ast.DeferStmt)
		if !ok || len(def.Call.Args) != 0 {
			continue
		}
		sel, ok := def.Call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Stop" {
			continue
		}
		if recv, ok := sel.X.(*ast.Ident); ok && info.ObjectOf(recv) == info.ObjectOf(id) {
			stopped[call] = true
		}
	}
}

// timerCreation names the time-package constructor call invokes, or "".
func timerCreation(info *types.Info, call *ast.CallExpr) string {
	for _, name := range []string{"NewTicker", "NewTimer", "AfterFunc"} {
		if isPkgCall(info, call, "time", name) {
			return "time." + name
		}
	}
	return ""
}

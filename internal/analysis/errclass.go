package analysis

import (
	"go/ast"
	"strconv"
	"strings"
)

// ErrClass enforces the classifiable-error invariant inside internal/comm
// and internal/cluster: every error that can cross the communication
// boundary must keep a sentinel reachable through errors.Is, because the
// resilience stack routes on exactly that — comm.Resilient separates
// retryable from permanent failures, and cluster's recovery classifier
// decides between re-execution and aborting the run. A fmt.Errorf whose
// format has no %w verb truncates the chain; a bare errors.New at a return
// site mints an unclassifiable error no caller can route.
var ErrClass = &Analyzer{
	Name: "errclass",
	Doc: "errors crossing the comm boundary must wrap a classifiable sentinel: " +
		"fmt.Errorf needs %w and return sites must not mint bare errors.New values",
	Run: runErrClass,
}

func runErrClass(pass *Pass) {
	path := pass.Pkg.Path()
	if !pathHasSegments(path, "internal", "comm") && !pathHasSegments(path, "internal", "cluster") {
		return
	}
	for _, f := range pass.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isPkgCall(pass.Info, call, "fmt", "Errorf") && len(call.Args) > 0 {
				if lit, ok := call.Args[0].(*ast.BasicLit); ok {
					if format, err := strconv.Unquote(lit.Value); err == nil && !strings.Contains(format, "%w") {
						pass.Reportf(call.Pos(),
							"fmt.Errorf without %%w drops the error class; wrap a sentinel so the retry/recovery layers can classify it")
					}
				}
			}
			if isPkgCall(pass.Info, call, "errors", "New") && inReturn(stack) {
				pass.Reportf(call.Pos(),
					"bare errors.New at a return site is unclassifiable; return a package-level sentinel (or wrap one) instead")
			}
			return true
		})
	}
}

// inReturn reports whether the node whose ancestor stack is given sits
// inside a return statement.
func inReturn(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		}
	}
	return false
}

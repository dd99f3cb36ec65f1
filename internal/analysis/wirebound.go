package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"regexp"
	"strings"
)

// WireBound enforces the trust boundary on wire-decoded integers in
// internal/comm: a length or count read off the socket with
// binary.LittleEndian/BigEndian.UintN (or a readU32-style helper) is
// attacker-controlled, and letting it size a `make`, an alloc helper, or a
// loop bound turns one hostile frame into an out-of-memory or a CPU stall —
// exactly what the QUERY_SUBMIT/HEALTH server surface must survive. HUGE's
// bounded-memory guarantee is only real if no such value reaches an
// allocation unclamped.
//
// Taint is tracked per function on the shared flow walker (flow.go): the
// state is the set of tainted variables, and arms join by union, so a value
// tainted on any path that reaches a sink is tainted there. An assignment
// whose right side contains a wire decode taints the target; any other
// assignment clears it. The recognized clamp is an `if` that
// magnitude-compares the variable (<, <=, >, >=) and then returns (the
// `if n > maxFrameEntries { return ErrCorruptFrame }` idiom) or reassigns
// it; seen at its condition, it kills the taint on the arms that follow, so
// a clamp on only one path leaves the other path tainted. An equality-shaped
// length check (`if len(p) != fixed+4*n`) is NOT a clamp: it proves
// consistency, not a bound, and still admits every length the frame cap
// allows. Function literals and parameters are out of scope — the analysis
// charges the function that performs the decode.
var WireBound = &Analyzer{
	Name: "wirebound",
	Doc: "wire-decoded integers must be clamped against a constant cap " +
		"before sizing allocations, slice reservations, or loop bounds",
	Run: runWireBound,
}

func runWireBound(pass *Pass) {
	if !pathHasSegments(pass.Pkg.Path(), "internal", "comm") {
		return
	}
	w := &wireWalk{pass: pass}
	w.f.hooks = w
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w.f.walkFunc(pass.Info, fd.Body)
			}
		}
	}
}

// taintSet holds the variables that carry an unclamped wire-decoded integer.
type taintSet map[types.Object]bool

// wireWalk is the flow hook set of the taint tracking.
type wireWalk struct {
	f    flow[taintSet]
	pass *Pass
}

func (w *wireWalk) empty() taintSet { return taintSet{} }

func (w *wireWalk) clone(st taintSet) taintSet { return maps.Clone(st) }

func (w *wireWalk) join(arms []taintSet) taintSet {
	out := taintSet{}
	for _, arm := range arms {
		maps.Copy(out, arm)
	}
	return out
}

// node checks each statement's sinks against the taint before it and then
// applies its assignments; an if or for condition is checked where the
// walker reaches it, and an if condition that clamps kills its taint. The
// hook handles every subtree itself, so it never descends (and never
// queues a function literal).
func (w *wireWalk) node(st taintSet, n ast.Node, stack []ast.Node) (taintSet, bool) {
	if w.f.inLit {
		return st, false
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		w.bind(st, n.Lhs, n.Rhs)
	case *ast.DeclStmt:
		for _, spec := range n.Decl.(*ast.GenDecl).Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				lhs := make([]ast.Expr, len(vs.Names))
				for i, id := range vs.Names {
					lhs[i] = id
				}
				w.bind(st, lhs, vs.Values)
			}
		}
	case *ast.ExprStmt:
		w.sinks(st, n.X)
	case *ast.ReturnStmt:
		w.sinks(st, n.Results...)
	case *ast.SendStmt:
		w.sinks(st, n.Value)
	case *ast.RangeStmt:
		w.sinks(st, n.X)
	case ast.Expr:
		switch s := stackParent(stack).(type) {
		case *ast.IfStmt:
			if s.Cond == n {
				w.sinks(st, n)
				w.clamp(st, s)
			}
		case *ast.ForStmt:
			if s.Cond == n {
				w.loopBound(st, s)
			}
		}
	}
	return st, false
}

// bind checks the sinks of an assignment's (or var spec's) right side, then
// sets each target's taint from its source; n, err := decode(...) taints
// every target from the one source.
func (w *wireWalk) bind(st taintSet, lhs, rhs []ast.Expr) {
	w.sinks(st, rhs...)
	for i, l := range lhs {
		t := false
		if len(lhs) == len(rhs) {
			t = w.tainted(st, rhs[i])
		} else if len(rhs) == 1 {
			t = w.tainted(st, rhs[0])
		}
		id, ok := l.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := w.pass.Info.Defs[id]
		if obj == nil {
			obj = w.pass.Info.Uses[id]
		}
		if t && obj != nil {
			st[obj] = true
		} else {
			delete(st, obj)
		}
	}
}

// readHelperRE matches readU32-style decode helpers by name.
var readHelperRE = regexp.MustCompile(`^read.*[Uu](?:int)?(?:8|16|32|64)$`)

// wireDecodeCall reports whether call reads an integer off the wire: a
// binary.LittleEndian/BigEndian UintN accessor, or a read*U<N> helper.
func wireDecodeCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return readHelperRE.MatchString(fun.Name)
	case *ast.SelectorExpr:
		if !strings.HasPrefix(fun.Sel.Name, "Uint") {
			return readHelperRE.MatchString(fun.Sel.Name)
		}
		if inner, ok := fun.X.(*ast.SelectorExpr); ok {
			id, ok := inner.X.(*ast.Ident)
			return ok && pkgOfIdent(info, id) == "encoding/binary"
		}
	}
	return false
}

// tainted reports whether e contains a wire decode or a tainted variable.
// Function literals are opaque.
func (w *wireWalk) tainted(st taintSet, e ast.Expr) bool {
	tainted := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			tainted = tainted || wireDecodeCall(w.pass.Info, n)
		case *ast.Ident:
			tainted = tainted || st[w.pass.Info.Uses[n]]
		}
		return !tainted
	})
	return tainted
}

// clamp recognizes the sanctioned validation shape on an if statement and
// kills the taint of the variables it clamps: the condition
// magnitude-compares a tainted variable and the body either leaves (reject
// path) or reassigns the variable (saturate path).
func (w *wireWalk) clamp(st taintSet, s *ast.IfStmt) {
	var compared []types.Object
	ast.Inspect(s.Cond, func(n ast.Node) bool {
		if be, ok := n.(*ast.BinaryExpr); ok && isMagnitudeOp(be.Op) {
			ast.Inspect(be, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && st[w.pass.Info.Uses[id]] {
					compared = append(compared, w.pass.Info.Uses[id])
				}
				return true
			})
		}
		return true
	})
	if len(compared) == 0 {
		return
	}
	exits := false
	assigned := map[types.Object]bool{}
	ast.Inspect(s.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt, *ast.BranchStmt:
			exits = true
		case *ast.CallExpr:
			exits = exits || isBuiltinCall(w.pass.Info, n, "panic")
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					assigned[w.pass.Info.Uses[id]] = true
				}
			}
		}
		return true
	})
	for _, obj := range compared {
		if exits || assigned[obj] {
			delete(st, obj)
		}
	}
}

func isMagnitudeOp(op token.Token) bool {
	return op == token.GTR || op == token.GEQ || op == token.LSS || op == token.LEQ
}

// sinks flags tainted values reaching sinks: make sizes and capacities and
// alloc-named helpers.
func (w *wireWalk) sinks(st taintSet, list ...ast.Expr) {
	for _, e := range list {
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			args, name := call.Args, calledName(call)
			if isBuiltinCall(w.pass.Info, call, "make") {
				args, name = args[1:], "make"
			} else if !allocSinkName(name) {
				return true
			}
			for _, arg := range args {
				if !w.tainted(st, arg) {
					continue
				}
				if name == "make" {
					w.pass.Reportf(call.Pos(),
						"make sized by a wire-decoded integer with no bound check: clamp it against a constant cap (and return a classified ErrCorruptFrame) first")
				} else {
					w.pass.Reportf(call.Pos(),
						"%s called with a wire-decoded integer with no bound check: clamp it against a constant cap first", name)
				}
				break
			}
			return true
		})
	}
}

// loopBound flags a for-loop condition bounded by a tainted value — the
// trip count becomes attacker-controlled — and checks the condition's sinks.
func (w *wireWalk) loopBound(st taintSet, s *ast.ForStmt) {
	found := false
	ast.Inspect(s.Cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if found || !ok {
			return !found
		}
		if !isMagnitudeOp(be.Op) && be.Op != token.NEQ {
			return true
		}
		found = w.tainted(st, be.X) || w.tainted(st, be.Y)
		return false
	})
	if found {
		w.pass.Reportf(s.Pos(),
			"loop bounded by a wire-decoded integer with no bound check: clamp it against a constant cap before iterating")
	}
	w.sinks(st, s.Cond)
}

// allocSinkName matches helper names whose argument sizes an allocation
// (alloc, freshPayload, growBuf, reserve...).
func allocSinkName(name string) bool {
	l := strings.ToLower(name)
	return strings.Contains(l, "alloc") || strings.Contains(l, "payload") ||
		strings.Contains(l, "grow") || strings.Contains(l, "reserve")
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc enforces the allocation-free hot path. Khuzdul's per-task work —
// Extend → setops intersection → chunk emit — runs once per extendable
// embedding, i.e. billions of times per query; the paper's throughput claims
// (§6) assume the inner loop touches the allocator never, the way
// DwarvesGraph's compiled kernels do. Any function reachable from a
// //khuzdulvet:hotpath root must therefore avoid:
//
//   - make/new and slice/map/&T{} composite literals (direct heap traffic);
//   - append to a slice that provably starts empty (nil literal, []T(nil),
//     or a local declared without capacity) — growth reallocates every call
//     instead of amortizing into a caller-owned buffer;
//   - passing a literal nil where the callee names the parameter dst,
//     scratch or buf — those parameters exist precisely so callers can reuse
//     storage;
//   - bound method values (x.M used as a value) — each one allocates a
//     closure;
//   - implicit interface conversions of non-pointer values (boxing), and any
//     call into fmt or log (formatting allocates and serializes).
//
// A deliberate, amortized allocation (arena refill, one-time warmup) is
// suppressed with //khuzdulvet:ignore hotalloc <reason>.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "no heap allocation, interface boxing, fmt/log call or growing " +
		"append in functions reachable from //khuzdulvet:hotpath roots",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	for _, fn := range pass.Prog.DeclList {
		fd := pass.Prog.Decls[fn]
		if fn.Pkg() != pass.Pkg || !pass.Prog.Hot[fn] || fd.Body == nil {
			continue
		}
		h := &hotScanner{pass: pass, emptyLocals: emptySliceLocals(pass.Info, fd)}
		inspectStack(fd.Body, h.visit)
	}
}

type hotScanner struct {
	pass *Pass
	// emptyLocals holds the local slice variables declared with provably
	// empty backing (var s []T, s := []T(nil), s := []T{}).
	emptyLocals map[*types.Var]bool
}

func (h *hotScanner) visit(n ast.Node, stack []ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		h.checkCall(n)
	case *ast.CompositeLit:
		h.checkCompositeLit(n)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := n.X.(*ast.CompositeLit); ok {
				h.pass.Reportf(n.Pos(), "&composite literal on the hot path escapes to the heap per call")
				return false
			}
		}
	case *ast.SelectorExpr:
		// x.M() is a call, not a method value.
		if call, ok := stackParent(stack).(*ast.CallExpr); !ok || call.Fun != n {
			h.checkMethodValue(n)
		}
	}
	return true
}

func (h *hotScanner) checkCall(call *ast.CallExpr) {
	if isBuiltinCall(h.pass.Info, call, "make") {
		h.pass.Reportf(call.Pos(), "make on the hot path allocates per call; preallocate in setup or reuse worker scratch")
		return
	}
	if isBuiltinCall(h.pass.Info, call, "new") {
		h.pass.Reportf(call.Pos(), "new on the hot path allocates per call; hoist the allocation out of the per-task code")
		return
	}
	if isBuiltinCall(h.pass.Info, call, "append") && len(call.Args) > 0 {
		if h.isEmptySlice(call.Args[0]) {
			h.pass.Reportf(call.Pos(), "append to an empty slice allocates and copies every call; append into reused scratch instead")
		}
	}
	callee := calleeFunc(h.pass.Info, call)
	if callee != nil && callee.Pkg() != nil {
		switch callee.Pkg().Path() {
		case "fmt", "log":
			h.pass.Reportf(call.Pos(), "call to %s.%s on the hot path: formatting allocates and serializes workers", callee.Pkg().Name(), callee.Name())
			return
		}
	}
	h.checkArgs(call, callee)
}

// checkArgs inspects a call's arguments for two per-call allocation shapes:
// a literal nil handed to a reuse parameter (dst/scratch/buf), and a
// non-pointer concrete value converted to an interface parameter (boxing).
func (h *hotScanner) checkArgs(call *ast.CallExpr, callee *types.Func) {
	sig := callSignature(h.pass.Info, call)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		param := paramAt(sig, i)
		if param == nil {
			continue
		}
		if isNilIdent(h.pass.Info, arg) {
			if name := param.Name(); name == "dst" || name == "scratch" || name == "buf" {
				h.pass.Reportf(arg.Pos(), "nil %s argument%s forces the callee to allocate every call; pass reused scratch", name, calleeSuffix(callee))
			}
			continue
		}
		if _, isIface := param.Type().Underlying().(*types.Interface); !isIface {
			continue
		}
		at := h.pass.Info.Types[arg].Type
		if at == nil {
			continue
		}
		if _, already := at.Underlying().(*types.Interface); already {
			continue
		}
		if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
			continue // pointers fit in the interface word; no boxing allocation
		}
		if _, isChan := at.Underlying().(*types.Chan); isChan {
			continue
		}
		if _, isMap := at.Underlying().(*types.Map); isMap {
			continue
		}
		if _, isFunc := at.Underlying().(*types.Signature); isFunc {
			continue // func values are reference-shaped; flagged via method values instead
		}
		h.pass.Reportf(arg.Pos(), "argument boxes a %s into an interface%s, allocating per call", at.String(), calleeSuffix(callee))
	}
}

func (h *hotScanner) checkCompositeLit(lit *ast.CompositeLit) {
	t := h.pass.Info.Types[lit].Type
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		h.pass.Reportf(lit.Pos(), "slice literal on the hot path allocates per call")
	case *types.Map:
		h.pass.Reportf(lit.Pos(), "map literal on the hot path allocates per call")
	}
}

// checkMethodValue flags x.M used as a value: a bound method value allocates
// a closure capturing the receiver.
func (h *hotScanner) checkMethodValue(sel *ast.SelectorExpr) {
	selInfo, ok := h.pass.Info.Selections[sel]
	if !ok || selInfo.Kind() != types.MethodVal {
		return
	}
	h.pass.Reportf(sel.Pos(), "bound method value %s allocates a closure per evaluation; hoist it into setup", types.ExprString(sel))
}

func (h *hotScanner) isEmptySlice(e ast.Expr) bool {
	if isNilIdent(h.pass.Info, e) {
		return true
	}
	// []T(nil) conversion.
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := h.pass.Info.Types[call.Fun]; ok && tv.IsType() {
			if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice && isNilIdent(h.pass.Info, call.Args[0]) {
				return true
			}
		}
	}
	if id, ok := e.(*ast.Ident); ok {
		if v, ok := h.pass.Info.Uses[id].(*types.Var); ok && h.emptyLocals[v] {
			return true
		}
	}
	return false
}

// emptySliceLocals collects fd's local slice variables declared with no
// backing storage; appending to them allocates on first growth, every call.
func emptySliceLocals(info *types.Info, fd *ast.FuncDecl) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
							out[v] = true
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// callSignature returns the signature of the called function or func value,
// skipping conversions and builtins.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// paramAt returns the parameter variable matching argument index i,
// collapsing variadic tails onto the element type's parameter.
func paramAt(sig *types.Signature, i int) *types.Var {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if i < n-1 || (!sig.Variadic() && i < n) {
		return sig.Params().At(i)
	}
	if !sig.Variadic() {
		return nil
	}
	// Variadic tail: the parameter is []E; boxing happens per element, so
	// report against the element type by synthesizing a var of type E.
	last := sig.Params().At(n - 1)
	slice, ok := last.Type().(*types.Slice)
	if !ok {
		return last
	}
	return types.NewVar(last.Pos(), last.Pkg(), last.Name(), slice.Elem())
}

// calleeSuffix names the callee in a diagnostic when it resolved statically.
func calleeSuffix(callee *types.Func) string {
	if callee == nil {
		return ""
	}
	return " of " + callee.Name()
}

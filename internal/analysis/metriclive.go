package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// MetricLive enforces liveness of the metrics surface: every atomic counter
// or gauge declared in a metrics package must be written somewhere (or it
// is dead weight that reads as instrumentation) and read somewhere (or the
// increments burn cycles producing a number nobody can see — the dead
// `vertHits` tally of PR 5 is the precedent; it counted vertical-extension
// hits into a local that no summary ever surfaced).
//
// The check is whole-program over the call graph's declaration index: for
// each atomic integer field of a struct declared in a *metrics* package
// path segment, classify every method call on it anywhere in the program —
// Add / Swap / CompareAndSwap / Store-of-nonzero mutate it; Load / Swap /
// an Add whose result is consumed read it; Store(0) is a reset and proves
// nothing. Taking the field's address escapes the analysis and counts as
// both. Fields never mutated are reported as dead; fields mutated but
// never read are reported as unsurfaced. Test files are outside the loaded
// program, so a counter only a test reads is still unsurfaced — correctly:
// the runtime summary is the surface that matters.
var MetricLive = &Analyzer{
	Name: "metriclive",
	Doc: "metrics counters/gauges must be both incremented and surfaced: " +
		"dead or write-only atomics are reported at their declaration",
	Run: runMetricLive,
}

// metricField is one tracked atomic counter/gauge declaration.
type metricField struct {
	owner string
	name  string
	decl  *ast.Ident
}

func runMetricLive(pass *Pass) {
	if pass.Prog == nil || !pathHasSegments(pass.Pkg.Path(), "metrics") {
		return
	}
	fields := map[types.Object]*metricField{}
	var order []types.Object // declaration order
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fld := range st.Fields.List {
					if !isAtomicCounterField(pass.Info, fld.Type) {
						continue
					}
					for _, name := range fld.Names {
						obj := pass.Info.Defs[name]
						if obj == nil {
							continue
						}
						fields[obj] = &metricField{owner: ts.Name.Name, name: name.Name, decl: name}
						order = append(order, obj)
					}
				}
			}
		}
	}
	if len(fields) == 0 {
		return
	}
	mutated := map[types.Object]bool{}
	read := map[types.Object]bool{}
	for _, fn := range pass.Prog.DeclList {
		fd := pass.Prog.Decls[fn]
		info := pass.Prog.InfoOf[fn]
		if fd.Body == nil {
			continue
		}
		inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				obj, method := atomicFieldCall(info, n, fields)
				if obj == nil {
					return true
				}
				switch method {
				case "Load":
					read[obj] = true
				case "Swap":
					mutated[obj] = true
					read[obj] = true
				case "Add":
					// The result is discarded by a statement call, go or defer.
					mutated[obj] = true
					switch stackParent(stack).(type) {
					case *ast.ExprStmt, *ast.GoStmt, *ast.DeferStmt:
					default:
						read[obj] = true
					}
				case "CompareAndSwap":
					mutated[obj] = true
				case "Store":
					if len(n.Args) == 1 && !isConstZero(info, n.Args[0]) {
						mutated[obj] = true
					}
				}
			case *ast.UnaryExpr:
				// &m.Counter escapes: assume both written and read.
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					if obj := info.Uses[sel.Sel]; obj != nil && fields[obj] != nil {
						mutated[obj] = true
						read[obj] = true
					}
				}
			}
			return true
		})
	}
	for _, obj := range order {
		mf := fields[obj]
		switch {
		case !mutated[obj]:
			pass.Reportf(mf.decl.Pos(),
				"metric %s.%s is declared but never incremented: dead gauge — wire it or delete it",
				mf.owner, mf.name)
		case !read[obj]:
			pass.Reportf(mf.decl.Pos(),
				"metric %s.%s is incremented but never surfaced: no Load reaches a summary, merge, or CLI line",
				mf.owner, mf.name)
		}
	}
}

// isAtomicCounterField reports whether a struct-field type is one of the
// sync/atomic integer types.
func isAtomicCounterField(info *types.Info, t ast.Expr) bool {
	tv, ok := info.Types[t]
	if !ok || tv.Type == nil {
		return false
	}
	pkg, name := namedType(tv.Type)
	if pkg != "sync/atomic" {
		return false
	}
	switch name {
	case "Uint64", "Uint32", "Int64", "Int32":
		return true
	}
	return false
}

// atomicFieldCall matches `x.Field.Method(...)` where Field is one of the
// tracked metric fields, returning the field object and method name.
func atomicFieldCall(info *types.Info, call *ast.CallExpr, fields map[types.Object]*metricField) (types.Object, string) {
	msel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fsel, ok := msel.X.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	obj := info.Uses[fsel.Sel]
	if obj == nil || fields[obj] == nil {
		return nil, ""
	}
	return obj, msel.Sel.Name
}

// isConstZero reports whether e is the constant 0 (a Reset, not a write).
func isConstZero(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	return ok && v == 0
}

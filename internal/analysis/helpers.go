package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// pathHasSegments reports whether pkgPath contains segs as consecutive
// slash-separated segments, e.g. pathHasSegments("khuzdul/internal/comm",
// "internal", "comm"). Matching on segments rather than literal paths keeps
// analyzers testable against fixture trees with synthetic prefixes.
func pathHasSegments(pkgPath string, segs ...string) bool {
	parts := strings.Split(pkgPath, "/")
	if len(segs) == 0 || len(parts) < len(segs) {
		return false
	}
	for i := 0; i+len(segs) <= len(parts); i++ {
		match := true
		for j, s := range segs {
			if parts[i+j] != s {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// isPkgCall reports whether call invokes pkgPath.name (through any import
// alias).
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// namedType returns the package path and name of t's underlying named type,
// dereferencing one pointer level.
func namedType(t types.Type) (pkgPath, name string) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

// isSyncType reports whether t (or *t) is one of the named sync types.
func isSyncType(t types.Type, names ...string) bool {
	p, n := namedType(t)
	if p != "sync" {
		return false
	}
	for _, want := range names {
		if n == want {
			return true
		}
	}
	return false
}

// receiverType returns the static type of the receiver expression of a
// method-call selector, or nil.
func receiverType(info *types.Info, sel *ast.SelectorExpr) types.Type {
	tv, ok := info.Types[sel.X]
	if !ok {
		return nil
	}
	return tv.Type
}

// isBuiltinCall reports whether call invokes the named builtin (close,
// panic, ...).
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// funcDecls maps each package-level function and method object to its
// declaration, so the program build can walk every body.
func funcDecls(info *types.Info, files []*ast.File) map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				out[fn] = fd
			}
		}
	}
	return out
}

// calleeFunc resolves a call expression to the invoked function or method
// object, or nil for builtins, function values and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// inspectStack walks the subtree under root like ast.Inspect but hands the
// visitor the stack of enclosing nodes (outermost first, n excluded).
func inspectStack(root ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !visit(n, stack) {
			return false // no children, so no closing nil call
		}
		stack = append(stack, n)
		return true
	})
}

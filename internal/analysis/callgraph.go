package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-program view of the module: an approximate call
// graph over every loaded package. Heap traffic on the per-task hot path and
// transitive lock acquisitions are cross-function properties, so hotalloc and
// lockorder need reachability.
//
// The graph is deliberately approximate, in the only direction that is safe
// for each client:
//
//   - Static calls resolve exactly through go/types object identity (the
//     loader shares *types.Package across importers, so a call into another
//     module package resolves to the same *types.Func the defining package
//     declared).
//   - A call through an interface method over-approximates to every concrete
//     method in the program with that name whose receiver implements the
//     interface. Hot-path reachability and lock-order propagation both want
//     the union of possible callees.
//   - Calls of function values (fields, parameters, locals) resolve to
//     nothing.
//
// Hot-path roots come from a directive mirroring //khuzdulvet:ignore:
//
//	//khuzdulvet:hotpath [reason]   on a function: the function is a
//	    per-task hot-path root; on a package clause: every function in the
//	    package is.

const hotpathPrefix = "khuzdulvet:hotpath"

// Program is the whole-program fact base shared by every analyzer of one Run:
// declarations, call edges, the hot-path roots and their reachability
// closure, and the fact table.
type Program struct {
	// Fset positions every loaded file; the loader shares one FileSet across
	// packages, so cross-package positions (a lockorder acquisition path that
	// spans comm and cluster) render correctly from any pass.
	Fset *token.FileSet
	// Decls maps every function and method object declared in the loaded
	// packages to its syntax.
	Decls map[*types.Func]*ast.FuncDecl
	// DeclList holds the same functions sorted by full name. Every iteration
	// that feeds an ordered artifact — root lists, call edges, diagnostics —
	// walks this list rather than ranging Decls, so a Run's output is
	// identical from one execution to the next (the same determinism the
	// engine owes its wire traffic).
	DeclList []*types.Func
	// InfoOf returns the type-checking fact base of the package declaring fn
	// (needed to resolve calls inside fn's body).
	InfoOf map[*types.Func]*types.Info
	// Callees holds the approximate out-edges of each declared function:
	// static callees plus the implementation expansion of interface-method
	// callees. Only functions declared in the program appear as targets.
	Callees map[*types.Func][]*types.Func
	// syncCallees is Callees minus the calls that run on a goroutine of their
	// own — `go` statements and every call inside a spawned literal: a
	// spawned goroutine takes its locks on its own stack, so lock-order
	// propagation must not attribute them to the spawner. Reachability (Hot)
	// still uses the full edge set — work done on a spawned goroutine is
	// still on the hot path.
	syncCallees map[*types.Func][]*types.Func
	// HotRoots are the directive-marked entry points, Hot their
	// forward-reachability closure.
	HotRoots []*types.Func
	Hot      map[*types.Func]bool

	// tab is the fact table of locktable.go. lockInfo is the lock graph of
	// lockorder.go, built lazily by the one analyzer that reads it.
	tab      *lockTable
	lockInfo *lockGraphInfo
}

// BuildProgram walks every declared body once (the fact table) and derives
// from it the call graph and the hot-path closure for the given packages. It
// is called once per Run and shared by every pass through Pass.Prog.
func BuildProgram(pkgs []*LoadedPackage) *Program {
	p := &Program{
		Decls:       map[*types.Func]*ast.FuncDecl{},
		InfoOf:      map[*types.Func]*types.Info{},
		Callees:     map[*types.Func][]*types.Func{},
		syncCallees: map[*types.Func][]*types.Func{},
		Hot:         map[*types.Func]bool{},
	}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}
	// Phase 1: declarations and directive-marked roots.
	pkgHot := map[*types.Package]bool{}
	for _, pkg := range pkgs {
		for fn, fd := range funcDecls(pkg.Info, pkg.Files) {
			p.Decls[fn] = fd
			p.InfoOf[fn] = pkg.Info
		}
		for _, f := range pkg.Files {
			pkgHot[pkg.Types] = pkgHot[pkg.Types] || isHotpath(f.Doc)
		}
	}
	for fn := range p.Decls {
		p.DeclList = append(p.DeclList, fn)
	}
	sort.Slice(p.DeclList, func(i, j int) bool {
		return p.DeclList[i].FullName() < p.DeclList[j].FullName()
	})
	for _, fn := range p.DeclList {
		if isHotpath(p.Decls[fn].Doc) || pkgHot[fn.Pkg()] {
			p.HotRoots = append(p.HotRoots, fn)
		}
	}

	// Phase 2: the fact walk, and the call edges read off its call records.
	// Function literals belong to their enclosing declaration (a helper
	// goroutine spawned on the hot path is still hot).
	p.tab = p.buildTable()
	seen, seenSync := map[[2]*types.Func]bool{}, map[[2]*types.Func]bool{}
	for _, rec := range p.tab.calls {
		for _, target := range p.implementations(rec.callee) {
			e := [2]*types.Func{rec.fn, target}
			if !seen[e] {
				seen[e] = true
				p.Callees[rec.fn] = append(p.Callees[rec.fn], target)
			}
			if !rec.spawn && !rec.spawned && !seenSync[e] {
				seenSync[e] = true
				p.syncCallees[rec.fn] = append(p.syncCallees[rec.fn], target)
			}
		}
	}

	p.Hot = p.reachable(p.HotRoots)
	return p
}

// propagate grows each declared function's facts by those of its
// synchronous callees until nothing changes. inherit says whether fn takes
// callee's fact k, and what fn records for it. Facts are only ever added, so
// recursion converges; passes visit DeclList and each callee list in order,
// so the witness recorded for a fact is deterministic.
func propagate[K comparable, V any](p *Program, facts map[*types.Func]map[K]V,
	inherit func(fn, callee *types.Func, k K, v V) (V, bool)) {
	for changed := true; changed; {
		changed = false
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
	}
}

// implementations resolves a callee object to its declared implementations:
// the object itself when the program declares it, or — for an interface
// method — every declared concrete method implementing it, in DeclList
// order. The call graph's edges and every analyzer that resolves a call
// site itself expand through it.
func (p *Program) implementations(fn *types.Func) []*types.Func {
	if _, ok := p.Decls[fn]; ok {
		return []*types.Func{fn}
	}
	recv := recvOf(fn)
	if recv == nil {
		return nil
	}
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, cand := range p.DeclList {
		cr := recvOf(cand)
		if cr == nil || cand.Name() != fn.Name() {
			continue
		}
		rt := cr.Type()
		if types.Implements(rt, iface) {
			out = append(out, cand)
			continue
		}
		if _, isPtr := rt.(*types.Pointer); !isPtr && types.Implements(types.NewPointer(rt), iface) {
			out = append(out, cand)
		}
	}
	return out
}

// reachable is forward BFS from roots over Callees.
func (p *Program) reachable(roots []*types.Func) map[*types.Func]bool {
	out := map[*types.Func]bool{}
	queue := append([]*types.Func(nil), roots...)
	for _, r := range roots {
		out[r] = true
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, c := range p.Callees[fn] {
			if !out[c] {
				out[c] = true
				queue = append(queue, c)
			}
		}
	}
	return out
}

// recvOf returns fn's receiver variable, or nil for plain functions.
func recvOf(fn *types.Func) *types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	return sig.Recv()
}

// isHotpath reports whether a doc comment group carries the hotpath root
// directive. The trailing reason is optional — the directive marks an entry
// point rather than suppressing a finding.
func isHotpath(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == hotpathPrefix || strings.HasPrefix(text, hotpathPrefix+" ") {
			return true
		}
	}
	return false
}

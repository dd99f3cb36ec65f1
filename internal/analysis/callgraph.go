package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file builds the whole-program view of the module: an approximate call
// graph over every loaded package. Transitive lock acquisitions are a
// cross-function property, so lockorder needs the callees of every function.
//
// The graph is deliberately approximate, in the direction that is safe for
// lock-order propagation:
//
//   - Static calls resolve exactly through go/types object identity (the
//     loader shares *types.Package across importers, so a call into another
//     module package resolves to the same *types.Func the defining package
//     declared).
//   - A call through an interface method over-approximates to every concrete
//     method in the program with that name whose receiver implements the
//     interface: lock-order propagation wants the union of possible callees.
//   - Calls of function values (fields, parameters, locals) resolve to
//     nothing.

// Program is the whole-program fact base shared by every analyzer of one Run:
// declarations, synchronous call edges and the fact table.
type Program struct {
	// Fset positions every loaded file; the loader shares one FileSet across
	// packages, so cross-package positions (a lockorder acquisition path that
	// spans comm and cluster) render correctly from any pass.
	Fset *token.FileSet
	// Decls maps every function and method object declared in the loaded
	// packages to its syntax.
	Decls map[*types.Func]*ast.FuncDecl
	// DeclList holds the same functions sorted by full name. Every iteration
	// that feeds an ordered artifact — call edges, diagnostics — walks this
	// list rather than ranging Decls, so a Run's output is identical from one
	// execution to the next (the same determinism the engine owes its wire
	// traffic).
	DeclList []*types.Func
	// InfoOf returns the type-checking fact base of the package declaring fn
	// (needed to resolve calls inside fn's body).
	InfoOf map[*types.Func]*types.Info
	// syncCallees holds the approximate out-edges of each declared function:
	// static callees plus the implementation expansion of interface-method
	// callees, minus the calls that run on a goroutine of their own — `go`
	// statements and every call inside a spawned literal: a spawned goroutine
	// takes its locks on its own stack, so lock-order propagation must not
	// attribute them to the spawner. Only functions declared in the program
	// appear as targets.
	syncCallees map[*types.Func][]*types.Func

	// tab is the fact table of locktable.go. lockInfo is the lock graph of
	// lockorder.go, built lazily by the one analyzer that reads it.
	tab      *lockTable
	lockInfo *lockGraphInfo
}

// BuildProgram walks every declared body once (the fact table) and derives
// from it the call graph for the given packages. It is called once per Run
// and shared by every pass through Pass.Prog.
func BuildProgram(pkgs []*LoadedPackage) *Program {
	p := &Program{
		Decls:       map[*types.Func]*ast.FuncDecl{},
		InfoOf:      map[*types.Func]*types.Info{},
		syncCallees: map[*types.Func][]*types.Func{},
	}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}
	// Phase 1: declarations.
	for _, pkg := range pkgs {
		for fn, fd := range funcDecls(pkg.Info, pkg.Files) {
			p.Decls[fn] = fd
			p.InfoOf[fn] = pkg.Info
		}
	}
	for fn := range p.Decls {
		p.DeclList = append(p.DeclList, fn)
	}
	sort.Slice(p.DeclList, func(i, j int) bool {
		return p.DeclList[i].FullName() < p.DeclList[j].FullName()
	})

	// Phase 2: the fact walk, and the synchronous call edges read off its
	// call records. Function literals belong to their enclosing declaration.
	p.tab = p.buildTable()
	seen := map[[2]*types.Func]bool{}
	for _, rec := range p.tab.calls {
		if rec.spawn || rec.spawned {
			continue
		}
		for _, target := range p.implementations(rec.callee) {
			if e := [2]*types.Func{rec.fn, target}; !seen[e] {
				seen[e] = true
				p.syncCallees[rec.fn] = append(p.syncCallees[rec.fn], target)
			}
		}
	}
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

// recvOf returns fn's receiver variable, or nil for plain functions.
func recvOf(fn *types.Func) *types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	return sig.Recv()
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// GuardField infers, per struct field, the lock that guards it — and then
// holds every access to that standard. The resident service's correctness
// now rests on lock discipline across ~30 mutex-guarded structs; the race
// detector only sees the interleavings the tests happen to schedule, but the
// *intent* of a guarded field is visible statically: if nearly every access
// happens under the same mutex, the stray access that doesn't is either a
// data race or a deliberate exception worth documenting.
//
// The inference: every field access in the program is recorded in the lock
// table (locktable.go) together with the set of locks held at that point —
// locks acquired in the same function, plus the locks provably held on
// entry, computed as the intersection over every call site of the function
// (a helper only ever called under s.mu inherits s.mu). A field whose
// accesses hold one consistent lock key (pkg.Type.field or a package-level
// mutex) at >= 80% of at least guardMinAccesses sites is presumed guarded
// by it; each remaining access is reported with the inferred guard and the
// witnessing lock-free site.
//
// Deliberate approximations, in the safe direction for each:
//   - Accesses through a value still inside its constructor (a local built
//     from a composite literal or new in the same function) are excluded —
//     pre-escape initialization needs no lock and must not dilute the
//     guarded fraction.
//   - Function-literal bodies hold nothing on entry: a goroutine spawned
//     under a lock does not inherit it, so its accesses either lock for
//     themselves or count as lock-free.
//   - Functions with no in-program callers (exported entry points) and
//     functions spawned by `go` or taken as values enter lock-free.
//   - sync.* and sync/atomic fields are exempt: mutexes are the guards, and
//     typed atomics need none.
//
// An intentional lock-free access (a racy-by-design stats read, a field
// that is immutable after publication) is annotated in place:
//
//	//khuzdulvet:ignore guardfield <why the lock-free access is safe>
var GuardField = &Analyzer{
	Name: "guardfield",
	Doc: "a struct field accessed under one consistent lock at >=80% of its " +
		"sites is presumed guarded by it; every remaining lock-free access " +
		"is a potential data race",
	Run: runGuardField,
}

// Inference thresholds: a guard is inferred only over at least
// guardMinAccesses recorded accesses, of which a fraction of at least
// guardThreshold must hold the same lock key.
const (
	guardMinAccesses = 4
	guardThreshold   = 0.8
)

func runGuardField(pass *Pass) {
	if pass.Prog != nil {
		reportProg(pass, pass.Prog.guardFields().findings)
	}
}

// guardFieldInfo is the whole-program guard-inference result, built once
// per Run.
type guardFieldInfo struct {
	findings []progFinding
}

// guardFields builds (once) and returns the program's guard inference from
// the lock table's field accesses and call sites.
func (p *Program) guardFields() *guardFieldInfo {
	if p.guardInfo != nil {
		return p.guardInfo
	}
	tab := p.tab
	// Phase 1: entry-held sets to a fixpoint. entry(fn) is the intersection
	// over every recorded call of (held at the site ∪ the caller's own entry
	// set); functions never called in-program, spawned via go, or taken as
	// values enter lock-free. Sets only ever shrink, so iteration converges;
	// functions still unconstrained afterwards (call cycles unreachable from
	// any root) resolve to lock-free.
	called := map[*types.Func]bool{}
	for _, rec := range tab.calls {
		for _, target := range p.implementations(rec.callee) {
			called[target] = true
		}
	}
	entry := map[*types.Func]map[string]bool{}
	entryOf := func(fn *types.Func) (map[string]bool, bool) {
		if !called[fn] || tab.valueRef[fn] {
			return nil, true // known: lock-free
		}
		set, ok := entry[fn]
		return set, ok // !ok: still unconstrained (⊤)
	}
	// effective is the lock keys held at a site: those taken in its own body
	// plus, in a declaration body, the function's entry set once known.
	// known reports whether the function's entry set is known yet.
	effective := func(site lockSite) (eff map[string]bool, known bool) {
		eff = map[string]bool{}
		for _, h := range site.held {
			eff[h.key] = true
		}
		set, known := entryOf(site.fn)
		if site.entry {
			for k := range set {
				eff[k] = true
			}
		}
		return eff, known
	}
	fixpoint(func() (changed bool) {
		for _, rec := range tab.calls {
			eff := map[string]bool{}
			if !rec.spawn {
				var known bool
				if eff, known = effective(rec.lockSite); !known {
					continue // caller still ⊤: no constraint yet
				}
			}
			for _, target := range p.implementations(rec.callee) {
				cur, ok := entry[target]
				if !ok {
					entry[target] = maps.Clone(eff)
					changed = true
					continue
				}
				for k := range cur {
					if !eff[k] {
						delete(cur, k)
						changed = true
					}
				}
			}
		}
		return changed
	})
	// Phase 2: inference and reporting per field.
	info := &guardFieldInfo{}
	for _, obj := range tab.order {
		st := tab.fields[obj]
		var accesses []guardAccess
		for _, a := range st.accesses {
			if !a.ctor {
				accesses = append(accesses, a)
			}
		}
		total := len(accesses)
		if total < guardMinAccesses {
			continue
		}
		effs := make([]map[string]bool, total)
		counts := map[string]int{}
		for i, a := range accesses {
			effs[i], _ = effective(a.lockSite)
			for key := range effs[i] {
				if guardableKey(key) {
					counts[key]++
				}
			}
		}
		keys := make([]string, 0, len(counts))
		for key := range counts {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		best, bestN := "", 0
		for _, key := range keys {
			if counts[key] > bestN {
				best, bestN = key, counts[key]
			}
		}
		if best == "" || bestN == total || float64(bestN) < guardThreshold*float64(total) {
			continue
		}
		for i, a := range accesses {
			if effs[i][best] {
				continue
			}
			kind := "read"
			if a.write {
				kind = "write"
			}
			info.findings = append(info.findings, progFinding{
				pos: a.pos,
				pkg: a.fn.Pkg(),
				msg: fmt.Sprintf("field %s is guarded by %s at %d/%d accesses; this %s does not hold it — "+
					"lock, or annotate an intentional lock-free access with an ignore directive",
					st.name, best, bestN, total, kind),
			})
		}
	}
	p.guardInfo = info
	return info
}

// guardableKey reports whether a lock key can guard a field across
// functions: struct-field and package-level mutexes qualify, function-local
// mutexes (whose keys carry the scoping "fn:expr" form) do not.
func guardableKey(key string) bool {
	return !strings.Contains(key, ":")
}

// ctorLocals collects the function's constructor-local values: variables
// assigned from a composite literal, &composite, or new(T) in this body.
// Field accesses through them are pre-escape initialization and are
// excluded from guard inference.
func ctorLocals(body *ast.BlockStmt, info *types.Info) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !isCtorExpr(info, n.Rhs[i]) {
					continue
				}
				if obj := info.Defs[id]; obj != nil {
					out[obj] = true
				} else if obj := info.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if i < len(n.Values) && isCtorExpr(info, n.Values[i]) {
					if obj := info.Defs[id]; obj != nil {
						out[obj] = true
					}
				}
			}
		}
		return true
	})
	return out
}

// isCtorExpr reports whether e constructs a fresh value: T{...}, &T{...},
// or new(T).
func isCtorExpr(info *types.Info, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := e.X.(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		return isBuiltinCall(info, e, "new")
	}
	return false
}

// rootIdentObj resolves the leftmost identifier of a selector/index chain
// to its object, or nil.
func rootIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			return info.Uses[x]
		default:
			return nil
		}
	}
}

// guardExemptType reports whether a field type is outside guard inference:
// sync primitives are the guards themselves, and sync/atomic values (bare,
// or as slice/array elements) need no lock.
func guardExemptType(t types.Type) bool {
	if p, _ := namedType(t); p == "sync" || p == "sync/atomic" {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		if p, _ := namedType(u.Elem()); p == "sync/atomic" {
			return true
		}
	case *types.Array:
		if p, _ := namedType(u.Elem()); p == "sync/atomic" {
			return true
		}
	}
	return false
}

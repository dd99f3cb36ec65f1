package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockTable is the program's fact table: every mutex acquisition and call,
// each with the locks held at that point. BuildProgram
// fills it with one flow walk over every declaration (locks are named by
// lockKeyOf, arms join by intersection), and everything else is read off it:
// the call graph's edges and lockorder's inputs.
type lockTable struct {
	acquires []lockAcquire
	calls    []lockCall
}

// heldLock is one held mutex: key names it program-wide, text is its
// receiver's source text for messages.
type heldLock struct {
	key, text string
}

// lockSite is where a record was taken: the enclosing declaration and the
// kind of scope.
type lockSite struct {
	fn  *types.Func
	pos token.Pos
	// spawned: inside a literal that runs on a goroutine of its own.
	spawned bool
	held    []heldLock
}

// lockAcquire is one Lock/RLock call; held is the set before it.
type lockAcquire struct {
	lockSite
	key string
}

// lockCall is one resolvable call site.
type lockCall struct {
	lockSite
	callee *types.Func
	// spawn: the call is a `go` statement, so the callee starts lock-free.
	// A deferred call is recorded with no held locks: it runs at exit under
	// an unknown held set.
	spawn bool
}

// buildTable runs the program's one fact walk.
func (p *Program) buildTable() *lockTable {
	w := &lockWalk{tab: &lockTable{}}
	w.f.hooks = w
	for _, fn := range p.DeclList {
		fd := p.Decls[fn]
		if fd.Body == nil {
			continue
		}
		w.fn, w.info = fn, p.InfoOf[fn]
		w.f.walkFunc(w.info, fd.Body)
	}
	return w.tab
}

// lockWalk is the flow hook set that fills the lock table; its state is the
// held-lock list.
type lockWalk struct {
	f    flow[[]heldLock]
	tab  *lockTable
	fn   *types.Func
	info *types.Info
}

func (w *lockWalk) empty() []heldLock { return nil }

func (w *lockWalk) clone(held []heldLock) []heldLock { return append([]heldLock(nil), held...) }

// join keeps the locks held on every arm, in the first arm's order.
func (w *lockWalk) join(arms [][]heldLock) []heldLock {
	var out []heldLock
	for _, h := range arms[0] {
		inAll := true
		for _, other := range arms[1:] {
			inAll = inAll && holds(other, h.key)
		}
		if inAll {
			out = append(out, h)
		}
	}
	return out
}

func (w *lockWalk) site(pos token.Pos, held []heldLock) lockSite {
	return lockSite{fn: w.fn, pos: pos, spawned: w.f.spawned, held: held}
}

func (w *lockWalk) node(held []heldLock, n ast.Node, stack []ast.Node) ([]heldLock, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return held, true
	}
	parent := stackParent(stack)
	if key, text, acquire, ok := mutexCall(w.info, w.fn, call); ok {
		// Only a Lock or Unlock statement changes the held set; a deferred
		// Unlock leaves the lock held to the function's end.
		if _, isStmt := parent.(*ast.ExprStmt); isStmt {
			if !acquire {
				return release(held, key), false
			}
			w.tab.acquires = append(w.tab.acquires, lockAcquire{lockSite: w.site(call.Pos(), held), key: key})
			return append(w.clone(held), heldLock{key: key, text: text}), false
		}
		return held, false
	}
	_, spawn := parent.(*ast.GoStmt)
	_, deferred := parent.(*ast.DeferStmt)
	if callee := calleeFunc(w.info, call); callee != nil {
		site := w.site(call.Pos(), held)
		if spawn || deferred {
			site.held = nil
		}
		w.tab.calls = append(w.tab.calls, lockCall{lockSite: site, callee: callee, spawn: spawn})
	}
	return held, true
}

// mutexCall classifies a call as a sync.Mutex/RWMutex Lock/RLock (acquire) or
// Unlock/RUnlock, naming the lock by lockKeyOf and by its receiver's source
// text. RLock counts as Lock: a read-lock cycle still deadlocks once a writer
// queues between the readers.
func mutexCall(info *types.Info, fn *types.Func, call *ast.CallExpr) (key, text string, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", "", false, false
	}
	if !isSyncType(receiverType(info, sel), "Mutex", "RWMutex") {
		return "", "", false, false
	}
	return lockKeyOf(info, fn, sel.X), types.ExprString(sel.X), acquire, true
}

// lockKeyOf identifies the mutex behind expr program-wide: by declaring
// struct type and field for field mutexes, by package for package-level
// ones, and scoped to the enclosing function otherwise (locals cannot
// participate in cross-function cycles).
func lockKeyOf(info *types.Info, fn *types.Func, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if tv, ok := info.Types[x.X]; ok && tv.Type != nil {
			if pkgPath, name := namedType(tv.Type); name != "" {
				return shortPkgPath(pkgPath) + "." + name + "." + x.Sel.Name
			}
		}
	case *ast.Ident:
		if obj := info.Uses[x]; obj != nil && obj.Pkg() != nil &&
			obj.Parent() == obj.Pkg().Scope() {
			return shortPkgPath(obj.Pkg().Path()) + "." + x.Name
		}
	}
	return fn.FullName() + ":" + types.ExprString(e)
}

// shortPkgPath renders a package path as its last segment for readable keys.
func shortPkgPath(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// release drops the most recent hold of key.
func release(held []heldLock, key string) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].key == key {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

func holds(held []heldLock, key string) bool {
	for _, h := range held {
		if h.key == key {
			return true
		}
	}
	return false
}

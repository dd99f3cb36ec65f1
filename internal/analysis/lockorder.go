package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder enforces acyclic lock acquisition across the whole program. The
// resident service runs many queries concurrently over ~20 interacting
// mutexes (Server.mu, connState.mu, recMu, the mux and tracker locks); two
// goroutines acquiring the same pair of locks in opposite orders is the
// classic deadlock, and it only shows up dynamically when the interleaving
// loses the race. This analyzer finds the shape statically.
//
// The abstraction: a lock is identified by the struct type and field that
// declare it (comm.TCP.mu, cluster.ledger.mu), or by package/function
// scope for non-field mutexes. Per function, acquisitions are tracked in
// statement order (the locksend approximation: a deferred unlock keeps the
// lock held to function end, function literals run in their own context, a
// `go` statement's body does not hold the spawner's locks). Holding L while
// acquiring M — directly, or anywhere inside a callee reached without a `go`
// statement, propagated to a fixpoint over the call graph like the tier-2
// summaries — adds the edge L → M. A cycle in the resulting graph is a
// potential deadlock, reported once with both acquisition paths cited.
//
// The key is instance-insensitive: two *different* tcpConn values locked in
// sequence collapse onto one node, so a self-edge (L → L) is not reported —
// hand-over-hand locking over siblings would be a false positive, and
// single-instance re-entry deadlocks immediately in any test. Interface
// calls over-approximate to every implementing method, so an edge through an
// interface may name a callee the concrete program never dispatches to; an
// ignore directive with a reason is the documented escape hatch.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Tier: 3,
	Doc: "lock acquisition order must be acyclic across the program: holding " +
		"L while (transitively) acquiring M orders L before M, and a cycle " +
		"is a potential deadlock",
	Run: runLockOrder,
}

func runLockOrder(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	info := pass.Prog.lockGraph()
	for _, f := range info.findings {
		if f.pkg == pass.Pkg {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
}

// lockGraphInfo is the whole-program lock-acquisition graph plus the cycle
// findings derived from it, built once per Run.
type lockGraphInfo struct {
	// edges[from][to] is the first witness for "to acquired while from held".
	edges    map[string]map[string]*lockEdge
	findings []lockFinding
}

// lockEdge is one ordered acquisition: `to` taken while `from` is held.
type lockEdge struct {
	from, to string
	// pos/fn locate the acquisition (or the call that leads to it) for
	// reporting; the finding is attributed to fn's package.
	pos token.Pos
	fn  *types.Func
	// desc is the human-readable acquisition path.
	desc string
}

type lockFinding struct {
	pos token.Pos
	pkg *types.Package
	msg string
}

// lockAcq records how a function comes to acquire a lock key: directly at
// pos, or through the callee via (followed transitively when rendering).
type lockAcq struct {
	pos token.Pos
	via *types.Func
}

// lockGraph builds (once) and returns the program's lock graph and findings.
func (p *Program) lockGraph() *lockGraphInfo {
	if p.lockInfo != nil {
		return p.lockInfo
	}
	b := &lockGraphBuilder{
		prog:   p,
		info:   &lockGraphInfo{edges: map[string]map[string]*lockEdge{}},
		direct: map[*types.Func]map[string]token.Pos{},
	}
	// Phase 1: per-function linear scans — direct acquisitions, direct
	// ordered edges, and calls made while locks are held.
	for _, fn := range p.DeclList {
		fd := p.Decls[fn]
		if fd.Body == nil {
			continue
		}
		s := &lockOrderScanner{b: b, fn: fn, info: p.InfoOf[fn], attribute: true}
		s.scanStmts(fd.Body.List, nil)
		for len(s.queue) > 0 {
			next := s.queue[0]
			s.queue = s.queue[1:]
			s.attribute = next.attribute
			s.scanStmts(next.body.List, nil)
		}
	}
	// Phase 2: transitive acquisition sets to a fixpoint over the non-go
	// call edges (a spawned goroutine acquires on its own stack).
	acq := map[*types.Func]map[string]lockAcq{}
	for fn, keys := range b.direct {
		m := map[string]lockAcq{}
		for key, pos := range keys {
			m[key] = lockAcq{pos: pos}
		}
		acq[fn] = m
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range p.DeclList {
			for _, c := range p.syncCallees[fn] {
				for key := range acq[c] {
					if _, ok := acq[fn][key]; ok {
						continue
					}
					if acq[fn] == nil {
						acq[fn] = map[string]lockAcq{}
					}
					acq[fn][key] = lockAcq{via: c}
					changed = true
				}
			}
		}
	}
	// Phase 3: call-mediated edges — each call made under held locks orders
	// those locks before everything the callee transitively acquires.
	for _, rec := range b.calls {
		for _, target := range p.implementations(rec.callee) {
			keys := make([]string, 0, len(acq[target]))
			for key := range acq[target] {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			for _, key := range keys {
				site, owner := resolveAcq(acq, target, key)
				for _, h := range rec.held {
					if h == key {
						continue
					}
					b.addEdge(h, key, rec.pos, rec.fn, fmt.Sprintf(
						"%s held at call to %s (%s), which acquires %s (in %s at %s)",
						h, target.Name(), p.pos(rec.pos), key, owner.Name(), p.pos(site)))
				}
			}
		}
	}
	// Phase 4: cycle detection. Every edge whose target can reach back to
	// its source closes a cycle; each distinct cycle (as a node set) is
	// reported once, at its lexically-first edge, citing every acquisition
	// path around the loop.
	froms := make([]string, 0, len(b.info.edges))
	for from := range b.info.edges {
		froms = append(froms, from)
	}
	sort.Strings(froms)
	seen := map[string]bool{}
	for _, from := range froms {
		tos := make([]string, 0, len(b.info.edges[from]))
		for to := range b.info.edges[from] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			path := b.findPath(to, from)
			if path == nil {
				continue
			}
			// findPath excludes its start node, so the full loop is
			// from → to → …path, with path ending back at from.
			cycle := append([]string{from, to}, path...)
			id := canonicalCycle(cycle)
			if seen[id] {
				continue
			}
			seen[id] = true
			e := b.info.edges[from][to]
			var parts []string
			for i := 0; i < len(cycle)-1; i++ {
				parts = append(parts, b.info.edges[cycle[i]][cycle[i+1]].desc)
			}
			b.info.findings = append(b.info.findings, lockFinding{
				pos: e.pos,
				pkg: e.fn.Pkg(),
				msg: fmt.Sprintf("potential deadlock: lock-order cycle %s: %s",
					strings.Join(cycle, " → "), strings.Join(parts, "; ")),
			})
		}
	}
	p.lockInfo = b.info
	return b.info
}

// pos renders a token.Pos as file:line using the shared FileSet.
func (p *Program) pos(pos token.Pos) string {
	if p.Fset == nil {
		return "?"
	}
	position := p.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", position.Filename, position.Line)
}

// resolveAcq follows a transitive acquisition back to the function that
// takes the lock directly.
func resolveAcq(acq map[*types.Func]map[string]lockAcq, fn *types.Func, key string) (token.Pos, *types.Func) {
	seen := map[*types.Func]bool{}
	for {
		a := acq[fn][key]
		if a.via == nil || seen[a.via] {
			return a.pos, fn
		}
		seen[fn] = true
		fn = a.via
	}
}

// canonicalCycle names a cycle by its sorted distinct nodes, so the same
// loop discovered from different edges is reported once.
func canonicalCycle(cycle []string) string {
	nodes := map[string]bool{}
	for _, n := range cycle {
		nodes[n] = true
	}
	keys := make([]string, 0, len(nodes))
	for n := range nodes {
		keys = append(keys, n)
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// lockCall is one call made while locks are held.
type lockCall struct {
	fn     *types.Func
	pos    token.Pos
	held   []string
	callee *types.Func
}

type lockGraphBuilder struct {
	prog *Program
	info *lockGraphInfo
	// direct[fn][key] is the first position where fn itself locks key.
	direct map[*types.Func]map[string]token.Pos
	calls  []lockCall
}

func (b *lockGraphBuilder) addEdge(from, to string, pos token.Pos, fn *types.Func, desc string) {
	if from == to {
		return // instance-insensitive keys cannot distinguish re-entry from siblings
	}
	m := b.info.edges[from]
	if m == nil {
		m = map[string]*lockEdge{}
		b.info.edges[from] = m
	}
	if m[to] == nil {
		m[to] = &lockEdge{from: from, to: to, pos: pos, fn: fn, desc: desc}
	}
}

// findPath returns the node path from `from` to `to` over the edge graph
// (excluding `from` itself, ending in `to`), or nil if unreachable.
// Deterministic: BFS with sorted adjacency.
func (b *lockGraphBuilder) findPath(from, to string) []string {
	if from == to {
		return []string{to}
	}
	parent := map[string]string{from: from}
	queue := []string{from}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		next := make([]string, 0, len(b.info.edges[n]))
		for m := range b.info.edges[n] {
			next = append(next, m)
		}
		sort.Strings(next)
		for _, m := range next {
			if _, ok := parent[m]; ok {
				continue
			}
			parent[m] = n
			if m == to {
				var rev []string
				for cur := to; cur != from; cur = parent[cur] {
					rev = append(rev, cur)
				}
				path := make([]string, 0, len(rev))
				for i := len(rev) - 1; i >= 0; i-- {
					path = append(path, rev[i])
				}
				return path
			}
			queue = append(queue, m)
		}
	}
	return nil
}

// lockOrderScanner walks one function body in statement order, maintaining
// the held-lock set. The shape mirrors locksend's scanner; the payload here
// is acquisition edges and under-lock call sites rather than blocking ops.
type lockOrderScanner struct {
	b    *lockGraphBuilder
	fn   *types.Func
	info *types.Info
	// attribute: whether acquisitions in the current body count as fn's own
	// (feeding the transitive sets callers see). True for the declaration
	// body and synchronously-runnable literals (plain and deferred); false
	// inside `go`-spawned literals — a goroutine acquires on its own stack,
	// so a caller holding a lock across a call to fn must not be ordered
	// against what fn's goroutines lock.
	attribute bool
	// queue collects function literals for their own empty-held scan.
	queue []queuedLit
}

type queuedLit struct {
	body      *ast.BlockStmt
	attribute bool
}

func (s *lockOrderScanner) scanStmts(list []ast.Stmt, held []string) []string {
	for _, st := range list {
		held = s.scanStmt(st, held)
	}
	return held
}

func (s *lockOrderScanner) scanStmt(st ast.Stmt, held []string) []string {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if key, op, ok := s.lockOp(st.X); ok {
			switch op {
			case opLock:
				s.acquire(key, st.Pos(), held)
				return append(held, key)
			case opUnlock:
				return removeLockKey(held, key)
			}
		}
		s.checkExpr(st.X, held)
	case *ast.DeferStmt:
		// A deferred unlock keeps the mutex held to function end — modeled
		// by not removing it. Other deferred work runs outside statement
		// order; its literals scan in their own context but still on fn's
		// stack, so their acquisitions stay attributed to fn.
		s.collectLits(st.Call, s.attribute)
	case *ast.GoStmt:
		// The goroutine does not hold the spawner's locks, and its
		// acquisitions happen on its own stack: scan the body separately,
		// unattributed, and record no call under the current held set.
		s.collectLits(st.Call, false)
	case *ast.SendStmt:
		s.checkExpr(st.Chan, held)
		s.checkExpr(st.Value, held)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.checkExpr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.checkExpr(e, held)
		}
	case *ast.DeclStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				s.checkExpr(e, held)
				return false
			}
			return true
		})
	case *ast.BlockStmt:
		held = s.scanStmts(st.List, held)
	case *ast.IfStmt:
		if st.Init != nil {
			held = s.scanStmt(st.Init, held)
		}
		s.checkExpr(st.Cond, held)
		held = s.scanStmts(st.Body.List, held)
		if st.Else != nil {
			held = s.scanStmt(st.Else, held)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			held = s.scanStmt(st.Init, held)
		}
		if st.Cond != nil {
			s.checkExpr(st.Cond, held)
		}
		held = s.scanStmts(st.Body.List, held)
	case *ast.RangeStmt:
		s.checkExpr(st.X, held)
		held = s.scanStmts(st.Body.List, held)
	case *ast.SwitchStmt:
		if st.Init != nil {
			held = s.scanStmt(st.Init, held)
		}
		s.checkExpr(st.Tag, held)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				held = s.scanStmts(cc.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				held = s.scanStmts(cc.Body, held)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				held = s.scanStmts(cc.Body, held)
			}
		}
	case *ast.LabeledStmt:
		held = s.scanStmt(st.Stmt, held)
	}
	return held
}

// acquire records a direct acquisition: the first site per (fn, key) when
// the current body is attributed to fn, and one ordered edge from every
// currently-held lock regardless.
func (s *lockOrderScanner) acquire(key string, pos token.Pos, held []string) {
	if s.attribute {
		d := s.b.direct[s.fn]
		if d == nil {
			d = map[string]token.Pos{}
			s.b.direct[s.fn] = d
		}
		if _, ok := d[key]; !ok {
			d[key] = pos
		}
	}
	for _, h := range held {
		s.b.addEdge(h, key, pos, s.fn, fmt.Sprintf(
			"%s acquired with %s held at %s (in %s)",
			key, h, s.b.prog.pos(pos), s.fn.Name()))
	}
}

// checkExpr records resolvable calls made while locks are held and queues
// function literals for their own scan.
func (s *lockOrderScanner) checkExpr(e ast.Expr, held []string) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			s.queue = append(s.queue, queuedLit{body: n.Body, attribute: s.attribute})
			return false
		case *ast.CallExpr:
			if len(held) == 0 {
				return true
			}
			if _, _, ok := s.lockOp(n); ok {
				return true // Lock/Unlock handled by the statement walk
			}
			if callee := calleeFunc(s.info, n); callee != nil {
				s.b.calls = append(s.b.calls, lockCall{
					fn: s.fn, pos: n.Pos(), held: append([]string(nil), held...), callee: callee,
				})
			}
		}
		return true
	})
}

func (s *lockOrderScanner) collectLits(n ast.Node, attribute bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			s.queue = append(s.queue, queuedLit{body: lit.Body, attribute: attribute})
			return false
		}
		return true
	})
}

// lockOp classifies an expression as a mutex Lock/RLock or Unlock/RUnlock
// call and derives the lock's program-wide key.
func (s *lockOrderScanner) lockOp(e ast.Expr) (key string, op int, ok bool) {
	return lockOpOf(s.info, s.fn, e)
}

// lockOpOf classifies an expression as a mutex Lock/RLock or Unlock/RUnlock
// call and derives the lock's program-wide key. RLock counts as Lock: a
// read-lock cycle still deadlocks once a writer queues between the readers.
// Shared by the lockorder and guardfield held-set scanners.
func lockOpOf(info *types.Info, fn *types.Func, e ast.Expr) (key string, op int, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", 0, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = opLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return "", 0, false
	}
	if !isSyncType(receiverType(info, sel), "Mutex", "RWMutex") {
		return "", 0, false
	}
	return lockKeyOf(info, fn, sel.X), op, true
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

func removeLockKey(held []string, key string) []string {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == key {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder enforces acyclic lock acquisition across the whole program. The
// resident service runs many queries concurrently over ~20 interacting
// mutexes (Server.mu, connState.mu, adoptMu, the fabric and tracker locks); two
// goroutines acquiring the same pair of locks in opposite orders is the
// classic deadlock, and it only shows up dynamically when the interleaving
// loses the race. This analyzer finds the shape statically.
//
// The abstraction: a lock is identified by the struct type and field that
// declare it (comm.TCP.mu, cluster.ledger.mu), or by package/function
// scope for non-field mutexes. Acquisitions and calls, each with the locks
// held there, come from the fact table (locktable.go). Holding L while
// acquiring M — directly, or anywhere inside a callee reached without
// spawning a goroutine, propagated over the synchronous call edges — adds
// the edge L → M. A cycle in the resulting graph is a
// potential deadlock, reported once with both acquisition paths cited.
//
// The key is instance-insensitive: two *different* connState values locked in
// sequence collapse onto one node, so a self-edge (L → L) is not reported —
// hand-over-hand locking over siblings would be a false positive, and
// single-instance re-entry deadlocks immediately in any test. Interface
// calls over-approximate to every implementing method, so an edge through an
// interface may name a callee the concrete program never dispatches to;
// there is no suppression syntax, so such a finding is answered in the code.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "lock acquisition order must be acyclic across the program: holding " +
		"L while (transitively) acquiring M orders L before M, and a cycle " +
		"is a potential deadlock",
	Run: runLockOrder,
}

func runLockOrder(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	for _, f := range pass.Prog.lockGraph().findings {
		if f.pkg == pass.Pkg {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
}

// lockFinding is one cycle, attributed to the package of its reporting edge.
type lockFinding struct {
	pos token.Pos
	pkg *types.Package
	msg string
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
	g := &lockGraphInfo{edges: map[string]map[string]*lockEdge{}}
	// Phase 1: direct acquisitions — ordered edges from every held lock, and
	// each function's first site per key. A spawned literal acquires on its
	// own goroutine's stack, so its acquisitions are not its function's.
	acq := map[*types.Func]map[string]lockAcq{}
	for _, a := range p.tab.acquires {
		for _, h := range a.held {
			g.addEdge(h.key, a.key, a.pos, a.fn, fmt.Sprintf(
				"%s acquired with %s held at %s (in %s)", a.key, h.key, p.pos(a.pos), a.fn.Name()))
		}
		if a.spawned {
			continue
		}
		if acq[a.fn] == nil {
			acq[a.fn] = map[string]lockAcq{}
		}
		if _, ok := acq[a.fn][a.key]; !ok {
			acq[a.fn][a.key] = lockAcq{pos: a.pos}
		}
	}
	// Phase 2: transitive acquisition sets, propagated over the synchronous
	// call edges (a spawned goroutine acquires on its own stack).
	propagate(p, acq, func(_, c *types.Func, _ string, _ lockAcq) (lockAcq, bool) {
		return lockAcq{via: c}, true
	})
	// Phase 3: call-mediated edges — each call made under held locks orders
	// those locks before everything the callee transitively acquires.
	for _, rec := range p.tab.calls {
		if len(rec.held) == 0 {
			continue
		}
		for _, target := range p.implementations(rec.callee) {
			keys := make([]string, 0, len(acq[target]))
			for key := range acq[target] {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			for _, key := range keys {
				site, owner := resolveAcq(acq, target, key)
				for _, h := range rec.held {
					if h.key == key {
						continue
					}
					g.addEdge(h.key, key, rec.pos, rec.fn, fmt.Sprintf(
						"%s held at call to %s (%s), which acquires %s (in %s at %s)",
						h.key, target.Name(), p.pos(rec.pos), key, owner.Name(), p.pos(site)))
				}
			}
		}
	}
	// Phase 4: cycle detection. Every edge whose target can reach back to
	// its source closes a cycle; each distinct cycle (as a node set) is
	// reported once, at its lexically-first edge, citing every acquisition
	// path around the loop.
	froms := make([]string, 0, len(g.edges))
	for from := range g.edges {
		froms = append(froms, from)
	}
	sort.Strings(froms)
	seen := map[string]bool{}
	for _, from := range froms {
		tos := make([]string, 0, len(g.edges[from]))
		for to := range g.edges[from] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			path := g.findPath(to, from)
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
			e := g.edges[from][to]
			var parts []string
			for i := 0; i < len(cycle)-1; i++ {
				parts = append(parts, g.edges[cycle[i]][cycle[i+1]].desc)
			}
			g.findings = append(g.findings, lockFinding{
				pos: e.pos,
				pkg: e.fn.Pkg(),
				msg: fmt.Sprintf("potential deadlock: lock-order cycle %s: %s",
					strings.Join(cycle, " → "), strings.Join(parts, "; ")),
			})
		}
	}
	p.lockInfo = g
	return g
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

func (g *lockGraphInfo) addEdge(from, to string, pos token.Pos, fn *types.Func, desc string) {
	if from == to {
		return // instance-insensitive keys cannot distinguish re-entry from siblings
	}
	m := g.edges[from]
	if m == nil {
		m = map[string]*lockEdge{}
		g.edges[from] = m
	}
	if m[to] == nil {
		m[to] = &lockEdge{from: from, to: to, pos: pos, fn: fn, desc: desc}
	}
}

// findPath returns the node path from `from` to `to` over the edge graph
// (excluding `from` itself, ending in `to`), or nil if unreachable.
// Deterministic: BFS with sorted adjacency.
func (g *lockGraphInfo) findPath(from, to string) []string {
	if from == to {
		return []string{to}
	}
	parent := map[string]string{from: from}
	queue := []string{from}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		next := make([]string, 0, len(g.edges[n]))
		for m := range g.edges[n] {
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

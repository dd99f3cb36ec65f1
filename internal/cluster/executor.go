// The range executor. Everything the driver runs — a main engine over one
// socket's roots, a recovery engine over a survivor's share of the pending
// roots, a speculative copy of a straggler's suffix — is the same thing: an
// engine over a root range on a view of the cluster. A run holds what every
// engine of one RunWith call shares, a task holds what differs, and
// run.engine is the only place the two meet a core.Engine.
package cluster

import (
	"slices"
	"sync"

	"khuzdul/internal/cache"
	"khuzdul/internal/core"
	"khuzdul/internal/graph"
	"khuzdul/internal/metrics"
	"khuzdul/internal/partition"
	"khuzdul/internal/plan"
)

// run is the per-RunWith context shared by every engine the call builds:
// main engines, recovery rounds and speculative copies alike.
type run struct {
	c           *Cluster
	pl          *plan.Plan
	labelOf     plan.LabelFunc
	edgeLabelOf plan.EdgeLabelFunc
	// fo is the run's snapshot of the resident failover topology (nil when
	// every machine is alive), taken once so a concurrent run's recovery
	// adopting a newer topology never changes routing under this one.
	fo *failover
	// threads is the worker budget per socket: Config.ThreadsPerSocket or
	// the run's override. Every engine of the run draws on it, so a query
	// admitted with one thread also recovers and speculates with one.
	threads int
	// cancel is the caller's RunOpts.Cancel (nil = never).
	cancel <-chan struct{}
}

func (c *Cluster) newRun(pl *plan.Plan, opts RunOpts) *run {
	r := &run{c: c, pl: pl, fo: c.fo.Load(), threads: c.cfg.ThreadsPerSocket, cancel: opts.Cancel}
	if opts.ThreadsPerSocket > 0 {
		r.threads = opts.ThreadsPerSocket
	}
	if c.g.Labeled() {
		r.labelOf = c.g.Label
	}
	if c.g.EdgeLabeled() {
		r.edgeLabelOf = plan.EdgeLabelOracle(c.g)
	}
	return r
}

// wholeMachine is the task.socket of an engine that runs on a machine rather
// than on one of its sockets: recovery engines and speculative copies.
const wholeMachine = -1

// task is one engine's share of a run.
type task struct {
	node int
	// socket is the NUMA socket the engine is pinned to, or wholeMachine: such
	// an engine gets every socket's workers, never classifies a vertex as
	// cross-socket, and serves its roots — which it may have inherited from
	// any machine — from the full graph, the stand-in for a reloaded shard.
	socket int
	// fo is the view fetches over the cluster's fabric are routed by:
	// vertices of its dead machines go to their failover owner. Nil is the
	// base assignment.
	fo    *failover
	roots []graph.VertexID
	sink  core.Sink
	cache cache.Cache
	// ledger checkpoints the engine's completed ranges; nil leaves the task
	// untracked, which makes its roots unrecoverable.
	ledger *ledger
	// stop is the engine's Config.Stop: once closed, the engine returns at
	// its next boundary or at once from a wait for a fetch, leaving the fetch
	// to finish in the background. Nil never stops. Whoever decides the
	// engine's work is no longer wanted — the caller, or the speculator when
	// the other copy of the range won — closes it.
	stop <-chan struct{}
}

// engine builds the engine for one task.
func (r *run) engine(t task) *core.Engine {
	c := r.c
	cfg := core.Config{
		ChunkSize: c.cfg.ChunkSize,
		Threads:   r.threads,
		HDS:       !c.cfg.DisableHDS,
		Cache:     t.cache,
		Metrics:   c.met.Nodes[t.node],
		Stop:      t.stop,
	}
	if t.socket == wholeMachine {
		cfg.Threads *= c.cfg.Sockets
	}
	if t.ledger != nil {
		cfg.OnRangeDone = t.ledger.onRangeDone
	}
	ext := core.NewPlanExtender(r.pl, r.labelOf)
	ext.EdgeLabelOf = r.edgeLabelOf
	return core.NewEngine(ext, &rangeSource{c: c, local: c.locals[t.node], task: t}, t.sink, cfg)
}

// rangeSource adapts a task to the engine's DataSource: its roots, its
// machine's partition with NUMA socket classification (§5.4), and the
// cluster's fabric routed by its failover view.
type rangeSource struct {
	c     *Cluster
	local *partition.Local // the task's machine's partition
	task
}

func (s *rangeSource) Classify(v graph.VertexID) (core.Locality, int) {
	asg := s.c.asg
	owner := asg.Owner(v)
	// A vertex whose base owner is dead in the task's view is held by its
	// failover owner — without NUMA affinity, served from the full graph.
	adopted := s.fo != nil && s.fo.dead[owner]
	if adopted {
		owner = s.fo.Owner(v)
	}
	switch {
	case owner != s.node:
		return core.LocalityRemote, owner
	case !adopted && s.socket != wholeMachine && asg.NumSockets() > 1 && asg.Socket(v) != s.socket:
		return core.LocalityCrossSocket, owner
	}
	return core.LocalityLocal, owner
}

func (s *rangeSource) LocalList(v graph.VertexID) []graph.VertexID {
	if s.socket == wholeMachine || s.fo != nil && s.fo.dead[s.c.asg.Owner(v)] {
		return s.c.g.Neighbors(v)
	}
	return s.local.MustNeighbors(v)
}

func (s *rangeSource) CrossSocketList(v graph.VertexID) []graph.VertexID {
	l := s.local.MustNeighbors(v)
	met := s.c.met.Nodes[s.node]
	met.CrossSocketFetches.Add(1)
	met.CrossSocketBytes.Add(4 + 4*uint64(len(l)))
	return l
}

func (s *rangeSource) Fetch(owner int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	return s.c.fabric.Fetch(s.node, owner, ids)
}

func (s *rangeSource) NumNodes() int           { return s.c.asg.NumNodes() }
func (s *rangeSource) LocalNode() int          { return s.node }
func (s *rangeSource) Roots() []graph.VertexID { return s.roots }

// ledger is one engine's checkpoint record. The engine's chunk lifecycle
// (§3.3) completes root ranges strictly in order, and every match descends
// from exactly one root, so the sink count committed at a range boundary is
// exactly the matches of the roots before it: work past the last mark is
// re-derivable and is discarded with it. Boundaries are indices into the
// slot's full root list; an engine that starts mid-list (a speculative copy)
// offsets them by base, so two ledgers over the same list are comparable
// boundary by boundary. Written by the engine goroutine via OnRangeDone;
// sampled mid-run by the speculation monitor, hence the mutex.
type ledger struct {
	sink *core.CountSink
	base int
	// met, on a speculative copy's ledger, counts the ranges it re-executed.
	met *metrics.Node

	mu    sync.Mutex
	marks []mark // one per completed range, ascending by end
}

// mark is the sink count committed once every root before end was explored.
type mark struct {
	end   int
	count uint64
}

func (l *ledger) onRangeDone(_, end int) {
	n := l.sink.Count()
	l.mu.Lock()
	l.marks = append(l.marks, mark{l.base + end, n})
	l.mu.Unlock()
	if l.met != nil {
		l.met.SpeculativeRanges.Add(1)
	}
}

// snapshot returns the latest boundary and the count committed there.
func (l *ledger) snapshot() (int, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.marks); n > 0 {
		return l.marks[n-1].end, l.marks[n-1].count
	}
	return l.base, 0
}

// at returns the count committed at boundary p, if the engine crossed it.
func (l *ledger) at(p int) (uint64, bool) {
	if p == l.base {
		return 0, true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, m := range l.marks {
		if m.end == p {
			return m.count, true
		}
	}
	return 0, false
}

// allTracked reports whether every engine slot has a ledger, the precondition
// for exact-count recovery and speculation.
func allTracked(ls []*ledger) bool {
	return ls != nil && !slices.Contains(ls, nil)
}

// stopper is a stop signal that several parties may decide to raise.
type stopper struct {
	ch   chan struct{}
	once sync.Once
}

func newStopper() *stopper { return &stopper{ch: make(chan struct{})} }

func (s *stopper) stop() { s.once.Do(func() { close(s.ch) }) }

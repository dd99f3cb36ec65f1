// Task-level failure recovery. The engine's chunk lifecycle (§3.3) makes all
// in-flight work re-derivable from source vertices: every match descends from
// exactly one root, and an engine explores its roots in contiguous ranges
// that complete strictly in order. The driver therefore checkpoints, per
// engine slot, just a ledger (executor.go) — the completed-root prefix and
// the match count committed there. On a fetch failure caused by a dead peer the
// driver re-partitions the dead machines' shards across survivors (served
// from the full in-process graph, standing in for shard reload on a real
// cluster) and re-executes only the unfinished roots. Counts stay exact
// because partial work past a checkpoint is discarded with the snapshot and
// every pending root is re-executed on exactly one survivor.
package cluster

import (
	"errors"
	"fmt"
	"sync"

	"khuzdul/internal/comm"
	"khuzdul/internal/core"
	"khuzdul/internal/fault"
	"khuzdul/internal/graph"
	"khuzdul/internal/partition"
)

// maxRecoveryRounds bounds cascading failovers (each round can itself lose
// nodes); exceeding it means the cluster is too degraded to finish.
const maxRecoveryRounds = 8

// ErrRecoveryStalled marks a recovery that did not converge within
// maxRecoveryRounds — every round kept losing nodes or re-deriving pending
// roots.
var ErrRecoveryStalled = errors.New("cluster: recovery did not converge")

// ErrNoSurvivors marks a recovery round that found every node dead; there is
// nowhere left to re-execute pending roots.
var ErrNoSurvivors = errors.New("cluster: no surviving nodes to recover onto")

// recoverableError reports whether a fetch failure can be repaired by
// re-executing unfinished roots: the peer was declared dead, retries ran out
// (a transient-error storm), or fault injection crashed a node.
func recoverableError(err error) bool {
	return errors.Is(err, comm.ErrPeerDead) ||
		errors.Is(err, comm.ErrRetriesExhausted) ||
		errors.Is(err, fault.ErrNodeCrashed)
}

// baseRootsOf splits the vertex set into one ascending root list per engine
// slot under the base assignment, in one pass — the lists
// partition.Local.OwnedVertices / SocketVertices would return slot by slot.
func baseRootsOf(g *graph.Graph, asg partition.Assignment) [][]graph.VertexID {
	sockets := asg.NumSockets()
	roots := make([][]graph.VertexID, asg.NumNodes()*sockets)
	for v := 0; v < g.NumVertices(); v++ {
		id := graph.VertexID(v)
		slot := asg.Owner(id) * sockets
		if sockets > 1 {
			slot += asg.Socket(id)
		}
		roots[slot] = append(roots[slot], id)
	}
	return roots
}

// rootsOf returns the root list of one engine slot under a failover snapshot
// (nil = base assignment): the slot's base-owned vertices, memoized at
// construction and shared by every run (callers only read it), plus any it
// adopted from dead machines. RunWith hands this to each main task and
// recovery re-derives it here, so the two always agree — checkpoint prefixes
// index into identical lists.
func (c *Cluster) rootsOf(fo *failover, node, socket int) []graph.VertexID {
	if fo != nil && fo.dead[node] {
		// A machine dead at run start contributes no roots: its shard was
		// re-partitioned to survivors when the topology was adopted.
		return nil
	}
	roots := c.baseRoots[node*c.asg.NumSockets()+socket]
	if fo == nil {
		return roots
	}
	adopted := fo.adoptedFor(node, socket)
	if len(adopted) == 0 {
		return roots
	}
	out := make([]graph.VertexID, 0, len(roots)+len(adopted))
	out = append(out, roots...)
	return append(out, adopted...)
}

// isDead reports whether node is dead: declared so by the breaker, or
// crashed by fault injection.
func (c *Cluster) isDead(node int) bool {
	return c.resilient != nil && c.resilient.Dead(node) || c.injector != nil && c.injector.Crashed(node)
}

// deadNodes returns every machine isDead reports, ascending.
func (c *Cluster) deadNodes() []int {
	var out []int
	for n := 0; n < c.cfg.NumNodes; n++ {
		if c.isDead(n) {
			out = append(out, n)
		}
	}
	return out
}

// failover routes vertices like the base assignment but re-partitions the
// shards of dead machines across survivors with an independent hash.
type failover struct {
	asg   partition.Assignment
	alive []int
	dead  []bool
	// adopted, when the failover is adopted as the cluster's resident
	// topology, lists per engine slot the vertices re-partitioned onto it
	// from dead machines (nil for recovery-round failovers, which assign
	// explicit root lists instead).
	adopted [][]graph.VertexID
}

func newFailover(asg partition.Assignment, deadNodes []int) *failover {
	f := &failover{asg: asg, dead: make([]bool, asg.NumNodes())}
	for _, n := range deadNodes {
		f.dead[n] = true
	}
	for n := 0; n < asg.NumNodes(); n++ {
		if !f.dead[n] {
			f.alive = append(f.alive, n)
		}
	}
	return f
}

// covers reports whether every machine dead in o is dead in f too.
func (f *failover) covers(o *failover) bool {
	for n, d := range o.dead {
		if d && !f.dead[n] {
			return false
		}
	}
	return true
}

// adoptedFor returns the vertices slot (node, socket) inherited from dead
// machines under this adopted topology.
func (f *failover) adoptedFor(node, socket int) []graph.VertexID {
	if f.adopted == nil {
		return nil
	}
	return f.adopted[node*f.asg.NumSockets()+socket]
}

// adopt installs fo as the cluster's resident topology: every vertex owned
// by a dead machine is assigned to its failover owner's slot list, so
// subsequent runs mine dead shards on survivors from the start instead of
// paying a recovery round per run. Serialized by adoptMu; a no-op when the
// resident topology's dead set already covers fo's: concurrent queries that
// tripped over the same crash share one re-partition, and since dead sets
// only grow, a smaller one is a concurrent recovery's older verdict.
func (c *Cluster) adopt(fo *failover) {
	c.adoptMu.Lock()
	defer c.adoptMu.Unlock()
	if cur := c.fo.Load(); cur != nil && cur.covers(fo) {
		return
	}
	sockets := c.asg.NumSockets()
	fo.adopted = make([][]graph.VertexID, c.cfg.NumNodes*sockets)
	for v := 0; v < c.g.NumVertices(); v++ {
		id := graph.VertexID(v)
		if !fo.dead[c.asg.Owner(id)] {
			continue
		}
		node := fo.Owner(id)
		socket := 0
		if sockets > 1 {
			socket = c.asg.Socket(id)
		}
		slot := node*sockets + socket
		fo.adopted[slot] = append(fo.adopted[slot], id)
	}
	c.fo.Store(fo)
	c.repart.Add(1)
}

func (f *failover) Owner(v graph.VertexID) int {
	if o := f.asg.Owner(v); !f.dead[o] {
		return o
	}
	h := uint64(v)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return f.alive[h%uint64(len(f.alive))]
}

// recovery is the outcome of the recovery protocol: committed counts from
// the failed run plus all recovery rounds, the round count, and the final
// dead set.
type recovery struct {
	count  uint64
	rounds int
	dead   []int
}

// recover commits every slot's checkpoint, then re-executes unfinished roots
// on survivors until none remain. Partial counts past a checkpoint are
// deliberately discarded (they are not in the committed snapshots), which is
// what keeps re-execution exact. The caller's cancel aborts recovery too — a
// query deadline or a drain hard-cancel must bound recovery rounds, not just
// the main run.
func (r *run) recover(ledgers []*ledger, errs []error) (recovery, error) {
	c := r.c
	var rec recovery
	var pending []graph.VertexID
	for slot, l := range ledgers {
		prefix, committed := l.snapshot()
		rec.count += committed
		if errs[slot] == nil {
			continue
		}
		// The failed run's roots were computed under its failover snapshot.
		roots := c.rootsOf(r.fo, slot/c.cfg.Sockets, slot%c.cfg.Sockets)
		pending = append(pending, roots[prefix:]...)
	}
	for len(pending) > 0 {
		if chanClosed(r.cancel) {
			return rec, fmt.Errorf("cluster: recovery aborted: %w", ErrRunCanceled)
		}
		rec.rounds++
		if rec.rounds > maxRecoveryRounds {
			return rec, fmt.Errorf("%w after %d rounds (%d roots pending)",
				ErrRecoveryStalled, maxRecoveryRounds, len(pending))
		}
		var err error
		pending, err = r.recoveryRound(&rec, pending)
		if err != nil {
			return rec, err
		}
	}
	rec.dead = c.deadNodes()
	if len(rec.dead) > 0 {
		// Recovery converged: make the failover topology resident so
		// subsequent runs route around the dead machines from the start.
		c.adopt(newFailover(c.asg, rec.dead))
	}
	return rec, nil
}

// recoveryRound runs one failover round: re-partition dead shards, spread
// pending roots over survivors, run one whole-machine engine per survivor on
// the cluster's fabric routed by the round's failover view, and return the
// roots still unfinished after this round. The view never routes a vertex to
// a dead machine, and a survivor's server already serves vertices it does
// not own from the full graph (the adopted-topology path), so no
// round-specific servers or fabric are needed.
func (r *run) recoveryRound(rec *recovery, pending []graph.VertexID) ([]graph.VertexID, error) {
	c := r.c
	dead := c.deadNodes()
	fo := newFailover(c.asg, dead)
	if len(fo.alive) == 0 {
		return nil, ErrNoSurvivors
	}
	// Carry crash-injected deaths into the breaker so stray fetches from
	// concurrent runs fail fast instead of timing out.
	for _, n := range dead {
		c.resilient.MarkDead(n)
	}

	assigned := make([][]graph.VertexID, len(fo.alive))
	for i, v := range pending {
		assigned[i%len(fo.alive)] = append(assigned[i%len(fo.alive)], v)
	}

	ledgers := make([]*ledger, len(fo.alive))
	errs := make([]error, len(fo.alive))
	var wg sync.WaitGroup
	for i, node := range fo.alive {
		if len(assigned[i]) == 0 {
			continue
		}
		l := &ledger{sink: &core.CountSink{}}
		ledgers[i] = l
		eng := r.engine(task{
			node: node, socket: wholeMachine, fo: fo, roots: assigned[i],
			sink: l.sink, ledger: l, stop: r.cancel,
		})
		if c.cfg.SequentialNodes {
			errs[i] = eng.Run()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = eng.Run()
		}()
	}
	wg.Wait()

	if chanClosed(r.cancel) {
		return nil, fmt.Errorf("cluster: recovery aborted: %w", ErrRunCanceled)
	}
	var next []graph.VertexID
	for i, node := range fo.alive {
		if ledgers[i] == nil {
			continue
		}
		prefix, committed := ledgers[i].snapshot()
		rec.count += committed
		c.met.Nodes[node].RecoveredRoots.Add(uint64(prefix))
		if errs[i] == nil {
			continue
		}
		if !recoverableError(errs[i]) {
			return nil, fmt.Errorf("cluster: recovery on node %d: %w", node, errs[i])
		}
		next = append(next, assigned[i][prefix:]...)
	}
	return next, nil
}

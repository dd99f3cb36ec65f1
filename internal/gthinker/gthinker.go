// Package gthinker reimplements the G-thinker baseline the paper compares
// against (§2.3, Table 2, Figure 15): a distributed GPM system with
// partitioned graph and "moving data to computation", where each coarse
// task explores one whole embedding tree after fetching the k-hop subgraph
// it needs, and remote edge lists are managed by a general software cache
// that maintains a task↔data dependency map.
//
// The design decisions — coarse tasks, up-front k-hop fetch, per-access map
// bookkeeping under a lock, periodic reference-count garbage collection —
// are implemented as described; the resulting scheduler and cache overheads
// the paper measures emerge from the design rather than from any artificial
// slowdown.
package gthinker

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"khuzdul/internal/comm"
	"khuzdul/internal/graph"
	"khuzdul/internal/metrics"
	"khuzdul/internal/partition"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// Name identifies the baseline in experiment output.
const Name = "G-thinker"

// Config describes the simulated G-thinker deployment.
type Config struct {
	// NumNodes is the machine count.
	NumNodes int
	// ThreadsPerNode bounds the concurrently executing coarse tasks per
	// machine — the paper observes only a few hundred trees in flight.
	ThreadsPerNode int
	// CacheBytes is the per-machine software cache capacity.
	CacheBytes uint64
	// Induced selects induced (motif) matching semantics.
	Induced bool
}

// Result reports one run.
type Result struct {
	Count   uint64
	Elapsed time.Duration
	// ModeledElapsed is the modeled cluster makespan: the slowest machine's
	// total busy time (compute + scheduler + cache bookkeeping + blocking
	// network waits) divided by its task threads. G-thinker's network time
	// stays on the critical path because each coarse task blocks on its
	// k-hop fetch before computing.
	ModeledElapsed time.Duration
	Summary        metrics.Summary
}

// Count counts pat's embeddings with the G-thinker execution model.
func Count(g *graph.Graph, pat *pattern.Pattern, cfg Config) (Result, error) {
	if cfg.NumNodes <= 0 {
		cfg.NumNodes = 1
	}
	if cfg.ThreadsPerNode <= 0 {
		cfg.ThreadsPerNode = 1
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	pl, err := plan.Compile(pat, plan.Options{
		Style: plan.StyleAutomine, Induced: cfg.Induced, Stats: plan.StatsOf(g),
	})
	if err != nil {
		return Result{}, err
	}

	asg := partition.NewAssignment(cfg.NumNodes, 1)
	met := metrics.NewCluster(cfg.NumNodes)
	locals := make([]*partition.Local, cfg.NumNodes)
	servers := make([]comm.Server, cfg.NumNodes)
	for node := 0; node < cfg.NumNodes; node++ {
		locals[node] = partition.NewLocal(g, asg, node)
		l := locals[node]
		servers[node] = comm.ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
			out := make([][]graph.VertexID, len(ids))
			for i, id := range ids {
				out[i] = l.MustNeighbors(id)
			}
			return out
		})
	}
	fabric := comm.NewLocal(servers, met)
	defer fabric.Close()

	// The simulated machines run one after another, so per-machine busy
	// times (and hence ModeledElapsed) stay accurate on hosts with fewer
	// cores than simulated workers. Edge-list serving is passive, so the
	// count is the same as under concurrent machines.
	start := time.Now()
	var total uint64
	for node := 0; node < cfg.NumNodes; node++ {
		total += newNode(locals[node], fabric, met.Nodes[node], cfg, pl).run()
	}
	var modeled time.Duration
	for _, n := range met.Nodes {
		b := n.Breakdown()
		if m := b.Total() / time.Duration(cfg.ThreadsPerNode); m > modeled {
			modeled = m
		}
	}
	return Result{
		Count:          total,
		Elapsed:        time.Since(start),
		ModeledElapsed: modeled,
		Summary:        met.Summarize(),
	}, nil
}

// node is one G-thinker machine: a task queue over its owned roots, a
// worker pool, and the shared software cache.
type node struct {
	local  *partition.Local
	fabric comm.Fabric
	met    *metrics.Node
	cfg    Config
	pl     *plan.Plan
	cache  *swCache
	taskID atomic.Int64
}

func newNode(local *partition.Local, fabric comm.Fabric, met *metrics.Node, cfg Config, pl *plan.Plan) *node {
	return &node{
		local:  local,
		fabric: fabric,
		met:    met,
		cfg:    cfg,
		pl:     pl,
		cache:  newSWCache(cfg.CacheBytes),
	}
}

func (n *node) run() uint64 {
	roots := n.local.OwnedVertices()
	var cursor atomic.Int64
	var total atomic.Uint64
	var wg sync.WaitGroup
	for t := 0; t < n.cfg.ThreadsPerNode; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local uint64
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(roots) {
					break
				}
				local += n.runTask(roots[i])
			}
			total.Add(local)
		}()
	}
	wg.Wait()
	return total.Load()
}

// runTask is one coarse task: fetch the (K-2)-hop subgraph rooted at root,
// then explore the entire embedding tree locally (paper Figure 2).
func (n *node) runTask(root graph.VertexID) uint64 {
	id := n.taskID.Add(1)
	hops := n.pl.K - 1 // positions 0..K-2 need edge lists

	// Phase 1: gather the k-hop subgraph. Each hop discovers the next
	// frontier, so fetching proceeds hop by hop: local lookups are direct,
	// remote lists go through the software cache with task-dependency
	// bookkeeping, missing ones are fetched in per-owner batches.
	lists := map[graph.VertexID][]graph.VertexID{}
	frontier := []graph.VertexID{root}
	for hop := 0; hop < hops; hop++ {
		tSched := time.Now()
		var missing []graph.VertexID
		for _, v := range frontier {
			if _, ok := lists[v]; ok {
				continue
			}
			if adj, ok := n.local.Neighbors(v); ok {
				lists[v] = adj
				continue
			}
			missing = append(missing, v)
		}
		n.met.AddScheduler(time.Since(tSched))

		if len(missing) > 0 {
			n.fetchRemote(id, missing, lists)
		}
		if hop+1 == hops {
			break
		}
		tSched = time.Now()
		next := frontier[:0:0]
		seen := map[graph.VertexID]bool{}
		for _, v := range frontier {
			for _, u := range lists[v] {
				if _, have := lists[u]; !have && !seen[u] {
					seen[u] = true
					next = append(next, u)
				}
			}
		}
		frontier = next
		n.met.AddScheduler(time.Since(tSched))
	}

	// Phase 2: explore the whole embedding tree over the assembled
	// subgraph — one coarse unit of compute.
	tComp := time.Now()
	var labelOf plan.LabelFunc
	if n.local.NumVertices() > 0 {
		labelOf = n.local.Label
	}
	ex := plan.NewExecutor(n.pl, func(v graph.VertexID) []graph.VertexID {
		return lists[v]
	}, labelOf)
	count := ex.CountRoot(root)
	n.met.AddCompute(time.Since(tComp))
	n.met.Matches.Add(count)

	// Phase 3: release the task's cache references (the bookkeeping the
	// cache must do so entries become garbage-collectable).
	n.cache.releaseTask(id, n.met)
	return count
}

// fetchRemote resolves remote edge lists through the software cache,
// fetching cache misses in per-owner batches over the fabric.
func (n *node) fetchRemote(task int64, missing []graph.VertexID, lists map[graph.VertexID][]graph.VertexID) {
	byOwner := map[int][]graph.VertexID{}
	for _, v := range missing {
		n.met.Fetches.Add(1)
		if l, ok := n.cache.acquire(task, v, n.met); ok {
			lists[v] = l
			n.met.CacheHits.Add(1)
			continue
		}
		n.met.CacheMisses.Add(1)
		owner := n.local.Assignment().Owner(v)
		byOwner[owner] = append(byOwner[owner], v)
	}
	// Fetch in ascending owner order: map iteration order would put the
	// same misses on the wire in a different order every run, and the wire
	// request sequence must be reproducible (the determinism recovery and
	// speculation reconciliation rely on, and what request tracing assumes).
	owners := make([]int, 0, len(byOwner))
	for owner := range byOwner {
		owners = append(owners, owner)
	}
	sort.Ints(owners)
	for _, owner := range owners {
		vs := byOwner[owner]
		tNet := time.Now()
		fetched, err := n.fabric.Fetch(n.local.Node(), owner, vs)
		n.met.AddNetwork(time.Since(tNet))
		if err != nil {
			// The in-process fabric cannot fail for valid nodes; surface
			// loudly if it ever does.
			panic(err)
		}
		n.met.RemoteFetches.Add(uint64(len(vs)))
		for i, v := range vs {
			lists[v] = fetched[i]
			n.cache.insert(task, v, fetched[i], n.met)
		}
	}
}

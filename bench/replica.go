package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"khuzdul/internal/cache"
	"khuzdul/internal/cluster"
	"khuzdul/internal/comm"
	"khuzdul/internal/core"
	"khuzdul/internal/graph"
	"khuzdul/internal/metrics"
	"khuzdul/internal/partition"
	"khuzdul/internal/plan"
)

// The replica rebuilds a cluster run from the layers' public constructors —
// partition.NewLocal per node, a DataSource over it, a fabric over
// comm.ServerFunc, cache.New, core.NewPlanExtender, core.NewEngine — so each
// interface between layers can be wrapped in a timing decorator without
// touching a line outside bench/. One engine per node, one thread per engine:
// every decorator that sits on an engine's own thread needs no locking.

// callStat counts calls made from one goroutine.
type callStat struct {
	n uint64
	d time.Duration
}

// sharedStat counts calls made from many goroutines.
type sharedStat struct {
	n  atomic.Uint64
	ns atomic.Int64
}

func (s *sharedStat) add(d time.Duration) {
	s.n.Add(1)
	s.ns.Add(int64(d))
}

func (s *sharedStat) total() time.Duration { return time.Duration(s.ns.Load()) }

// engineTrace is the per-engine half of the trace: the spans opened on the
// engine's thread (extend, local list, cache get) and by its fetch
// goroutines (fetch, cache put).
type engineTrace struct {
	extend    []callStat // by plan level
	localList callStat
	cacheGet  callStat
	fetch     sharedStat
	cachePut  sharedStat
	run       time.Duration
}

// fabricTrace is the shared half: the fabric and the servers behind it.
type fabricTrace struct {
	fetch sharedStat
	serve sharedStat
	bytes atomic.Uint64
	mu    sync.Mutex
	each  []time.Duration // every fetch's duration, for the median
}

type tracedExtender struct {
	core.Extender
	t *engineTrace
}

func (e *tracedExtender) Extend(s *plan.Scratch, level int, emb []graph.VertexID, getList func(int) []graph.VertexID, parentRaw []graph.VertexID) (cands, raw []graph.VertexID) {
	t0 := time.Now()
	cands, raw = e.Extender.Extend(s, level, emb, getList, parentRaw)
	st := &e.t.extend[level]
	st.n++
	st.d += time.Since(t0)
	return cands, raw
}

// nodeSource is the replica's core.DataSource: one machine's partition plus
// the fabric, single socket, no failover — what cluster's own source does on
// a healthy run.
type nodeSource struct {
	local  *partition.Local
	fabric comm.Fabric
}

func (s *nodeSource) Classify(v graph.VertexID) (core.Locality, int) {
	owner := s.local.Assignment().Owner(v)
	if owner != s.local.Node() {
		return core.LocalityRemote, owner
	}
	return core.LocalityLocal, owner
}

func (s *nodeSource) LocalList(v graph.VertexID) []graph.VertexID { return s.local.MustNeighbors(v) }

func (s *nodeSource) CrossSocketList(v graph.VertexID) []graph.VertexID {
	return s.local.MustNeighbors(v)
}

func (s *nodeSource) Fetch(owner int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	return s.fabric.Fetch(s.local.Node(), owner, ids)
}

func (s *nodeSource) NumNodes() int                      { return s.local.Assignment().NumNodes() }
func (s *nodeSource) LocalNode() int                     { return s.local.Node() }
func (s *nodeSource) Roots() []graph.VertexID            { return s.local.OwnedVertices() }
func (s *nodeSource) Label(v graph.VertexID) graph.Label { return s.local.Label(v) }

type tracedSource struct {
	*nodeSource
	t *engineTrace
}

func (s *tracedSource) LocalList(v graph.VertexID) []graph.VertexID {
	t0 := time.Now()
	l := s.nodeSource.LocalList(v)
	s.t.localList.n++
	s.t.localList.d += time.Since(t0)
	return l
}

func (s *tracedSource) Fetch(owner int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	t0 := time.Now()
	lists, err := s.nodeSource.Fetch(owner, ids)
	s.t.fetch.add(time.Since(t0))
	return lists, err
}

type tracedFabric struct {
	comm.Fabric
	t *fabricTrace
}

func (f *tracedFabric) Fetch(from, to int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	t0 := time.Now()
	lists, err := f.Fabric.Fetch(from, to, ids)
	d := time.Since(t0)
	f.t.fetch.add(d)
	f.t.bytes.Add(comm.RequestBytes(len(ids)) + comm.ResponseBytes(lists))
	f.t.mu.Lock()
	f.t.each = append(f.t.each, d)
	f.t.mu.Unlock()
	return lists, err
}

type tracedServer struct {
	comm.Server
	t *fabricTrace
}

func (s *tracedServer) ServeEdgeLists(ids []graph.VertexID) [][]graph.VertexID {
	t0 := time.Now()
	lists := s.Server.ServeEdgeLists(ids)
	s.t.serve.add(time.Since(t0))
	return lists
}

type tracedCache struct {
	cache.Cache
	t *engineTrace
}

func (c *tracedCache) Get(v graph.VertexID) ([]graph.VertexID, bool) {
	t0 := time.Now()
	l, ok := c.Cache.Get(v)
	c.t.cacheGet.n++
	c.t.cacheGet.d += time.Since(t0)
	return l, ok
}

func (c *tracedCache) MaybePut(v graph.VertexID, list []graph.VertexID) bool {
	t0 := time.Now()
	ok := c.Cache.MaybePut(v, list)
	c.t.cachePut.add(time.Since(t0))
	return ok
}

// replica is a cluster's worth of engines over one graph, ready to run plans
// traced or untraced.
type replica struct {
	g      *graph.Graph
	cfg    cluster.Config
	locals []*partition.Local
	// buildS is what partition.NewLocal took over all nodes.
	buildS float64
}

func newReplica(g *graph.Graph, cfg cluster.Config) *replica {
	r := &replica{g: g, cfg: cfg}
	asg := partition.NewAssignment(cfg.NumNodes, 1)
	t0 := time.Now()
	for node := 0; node < cfg.NumNodes; node++ {
		r.locals = append(r.locals, partition.NewLocal(g, asg, node))
	}
	r.buildS = time.Since(t0).Seconds()
	return r
}

// replicaRun is the outcome of one pass of the plans over the replica.
type replicaRun struct {
	wall time.Duration
	// summary is the engines' own counters; summary.Matches is the count
	// under either kind of sink.
	summary   metrics.Summary
	cacheSize uint64
	// Set on traced runs only.
	engines []*engineTrace
	fabric  *fabricTrace
}

// run executes the plans one after another, as CountAll does, with one engine
// per node running concurrently. traced wraps every layer boundary;
// materialize swaps the counting sink for one that takes every embedding.
func (r *replica) run(plans []*plan.Plan, traced, materialize bool) (replicaRun, error) {
	out := replicaRun{}
	n := r.cfg.NumNodes
	if traced {
		out.fabric = &fabricTrace{}
	}
	servers := make([]comm.Server, n)
	for node, l := range r.locals {
		l := l
		var s comm.Server = comm.ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
			lists := make([][]graph.VertexID, len(ids))
			for i, id := range ids {
				lists[i] = l.MustNeighbors(id)
			}
			return lists
		})
		if traced {
			s = &tracedServer{Server: s, t: out.fabric}
		}
		servers[node] = s
	}
	met := metrics.NewCluster(n)
	var fabric comm.Fabric
	if r.cfg.Transport == cluster.TransportTCP {
		t, err := comm.NewTCP(servers, met)
		if err != nil {
			return out, fmt.Errorf("replica fabric: %w", err)
		}
		fabric = t
	} else {
		fabric = comm.NewLocal(servers, met)
	}
	defer fabric.Close()
	if traced {
		fabric = &tracedFabric{Fabric: fabric, t: out.fabric}
	}
	cacheBytes := uint64(float64(r.g.SizeBytes()) * r.cfg.CacheFraction)

	t0 := time.Now()
	for _, pl := range plans {
		errs := make([]error, n)
		traces := make([]*engineTrace, n)
		caches := make([]cache.Cache, n)
		var wg sync.WaitGroup
		for node := 0; node < n; node++ {
			tr := &engineTrace{extend: make([]callStat, pl.K)}
			traces[node] = tr
			var ext core.Extender = core.NewPlanExtender(pl, r.g.Label)
			var src core.DataSource = &nodeSource{local: r.locals[node], fabric: fabric}
			var ca cache.Cache
			if cacheBytes > 0 {
				ca = cache.New(r.cfg.CachePolicy, cacheBytes, r.cfg.CacheDegreeThreshold)
				caches[node] = ca
			}
			if traced {
				ext = &tracedExtender{Extender: ext, t: tr}
				src = &tracedSource{nodeSource: src.(*nodeSource), t: tr}
				if ca != nil {
					ca = &tracedCache{Cache: ca, t: tr}
				}
			}
			var sink core.Sink = &core.CountSink{}
			if materialize {
				sink = noopSink()
			}
			eng := core.NewEngine(ext, src, sink, core.Config{
				Threads: 1, HDS: true, Cache: ca, Metrics: met.Nodes[node],
			})
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				r0 := time.Now()
				errs[node] = eng.Run()
				tr.run = time.Since(r0)
			}(node)
		}
		wg.Wait()
		for node := 0; node < n; node++ {
			if errs[node] != nil {
				return out, fmt.Errorf("replica node %d: %w", node, errs[node])
			}
			if caches[node] != nil {
				out.cacheSize += caches[node].SizeBytes()
			}
		}
		if traced {
			out.engines = append(out.engines, traces...)
		}
	}
	out.wall = time.Since(t0)
	out.summary = met.Summarize()
	return out, nil
}

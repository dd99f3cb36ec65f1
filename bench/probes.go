package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"khuzdul/internal/comm"
	"khuzdul/internal/fault"
	"khuzdul/internal/graph"
	"khuzdul/internal/partition"
	"khuzdul/internal/setops"
)

// listPair is two adjacency lists of the workload's own graph. For a
// lopsided pair b is hub number hub's list.
type listPair struct {
	a, b []graph.VertexID
	hub  int
}

// probeLists draws the kernel probes' inputs from the graph: balanced pairs
// (edge endpoints of similar degree), lopsided pairs (a hub and a neighbour
// at least 32x shorter, or the most lopsided there are) and the hubs'
// lists themselves.
type probeLists struct {
	balanced, lopsided []listPair
	triples            [][][]graph.VertexID
	hubs               [][]graph.VertexID
}

func drawProbeLists(g *graph.Graph, seed int64) probeLists {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	byDegree := make([]graph.VertexID, n)
	for v := range byDegree {
		byDegree[v] = graph.VertexID(v)
	}
	sort.Slice(byDegree, func(i, j int) bool {
		di, dj := g.Degree(byDegree[i]), g.Degree(byDegree[j])
		if di != dj {
			return di > dj
		}
		return byDegree[i] < byDegree[j]
	})
	hubs := byDegree[:min(16, n)]

	var pl probeLists
	for tries := 0; len(pl.balanced) < 256 && tries < 64*256; tries++ {
		u := graph.VertexID(rng.Intn(n))
		nu := g.Neighbors(u)
		if len(nu) < 4 {
			continue
		}
		v := nu[rng.Intn(len(nu))]
		nv := g.Neighbors(v)
		if len(nv) < 4 || len(nv) > 2*len(nu) || len(nu) > 2*len(nv) {
			continue
		}
		pl.balanced = append(pl.balanced, listPair{a: nu, b: nv})
	}
	for hub, h := range hubs {
		nh := g.Neighbors(h)
		pl.hubs = append(pl.hubs, nh)
		// The hub's shortest neighbours give the most lopsided pairs.
		short := append([]graph.VertexID(nil), nh...)
		sort.Slice(short, func(i, j int) bool {
			di, dj := g.Degree(short[i]), g.Degree(short[j])
			if di != dj {
				return di < dj
			}
			return short[i] < short[j]
		})
		for _, v := range short[:min(16, len(short))] {
			pl.lopsided = append(pl.lopsided, listPair{a: g.Neighbors(v), b: nh, hub: hub})
		}
		for i := 0; i+1 < len(nh) && len(pl.triples) < 256; i += 2 {
			pl.triples = append(pl.triples, [][]graph.VertexID{nh, g.Neighbors(nh[i]), g.Neighbors(nh[i+1])})
		}
	}
	return pl
}

// perElem returns what pass, one sweep over elems input elements, costs per
// element in ns. A round is 20 sweeps, long enough to time; the fastest of 5
// rounds counts: kernels are deterministic, so anything slower than the best
// round is interference.
func perElem(elems int, pass func()) float64 {
	if elems == 0 {
		return 0
	}
	const sweeps = 20
	best := time.Duration(1<<63 - 1)
	for round := 0; round < 5; round++ {
		t0 := time.Now()
		for i := 0; i < sweeps; i++ {
			pass()
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(sweeps*elems)
}

// probeSetops calls each kernel directly on the drawn lists. An element is
// one input element the kernel must look at: both lists for merge, subtract
// and count; the short (probing) list for gallop and bitmap; the shortest of
// the three for pivot.
func probeSetops(g *graph.Graph, seed int64, lm layerMetrics) {
	pl := drawProbeLists(g, seed)
	var dst []graph.VertexID
	var sink int

	both := func(pairs []listPair) (n int) {
		for _, p := range pairs {
			n += len(p.a) + len(p.b)
		}
		return n
	}
	short := func(pairs []listPair) (n int) {
		for _, p := range pairs {
			n += min(len(p.a), len(p.b))
		}
		return n
	}
	lm["setops.merge_ns_per_elem"] = perElem(both(pl.balanced), func() {
		for _, p := range pl.balanced {
			dst = setops.IntersectMerge(dst[:0], p.a, p.b)
		}
	})
	lm["setops.subtract_ns_per_elem"] = perElem(both(pl.balanced), func() {
		for _, p := range pl.balanced {
			dst = setops.Subtract(dst[:0], p.a, p.b)
		}
	})
	lm["setops.count_ns_per_elem"] = perElem(both(pl.balanced), func() {
		for _, p := range pl.balanced {
			sink += setops.CountIntersect(p.a, p.b)
		}
	})
	lm["setops.gallop_ns_per_elem"] = perElem(short(pl.lopsided), func() {
		for _, p := range pl.lopsided {
			dst = setops.IntersectGallop(dst[:0], p.a, p.b)
		}
	})
	// One bitmap per hub, built outside the timing: the dispatcher builds it
	// once and probes it from every embedding that meets the hub again.
	bitmaps := make([]setops.Bitmap, len(pl.hubs))
	for i, l := range pl.hubs {
		bitmaps[i].Build(l)
	}
	lm["setops.bitmap_probe_ns_per_elem"] = perElem(short(pl.lopsided), func() {
		for _, p := range pl.lopsided {
			dst = setops.IntersectBitmap(dst[:0], p.a, &bitmaps[p.hub])
		}
	})
	shortest := 0
	for _, t := range pl.triples {
		shortest += min(len(t[0]), len(t[1]), len(t[2]))
	}
	lm["setops.pivot3_ns_per_elem"] = perElem(shortest, func() {
		for _, t := range pl.triples {
			dst = setops.IntersectPivot(dst[:0], t)
		}
	})
	_ = sink
}

// fetchBatches draws the ID batches the comm stack probe pushes through every
// fabric: vertices node 1 owns, requested by node 0, 32 to a batch like a
// small circulant group.
func fetchBatches(g *graph.Graph, asg partition.Assignment, seed int64) ([][]graph.VertexID, error) {
	rng := rand.New(rand.NewSource(seed))
	owned := partition.NewLocal(g, asg, 1).OwnedVertices()
	if len(owned) == 0 {
		return nil, fmt.Errorf("node 1 owns no vertex of a %d-vertex graph", g.NumVertices())
	}
	batches := make([][]graph.VertexID, 64)
	for i := range batches {
		batches[i] = make([]graph.VertexID, 32)
		for j := range batches[i] {
			batches[i][j] = owned[rng.Intn(len(owned))]
		}
	}
	return batches, nil
}

// fetchRound pushes every batch through the fabric once and appends each
// fetch's duration.
func fetchRound(f comm.Fabric, batches [][]graph.VertexID, each []time.Duration) ([]time.Duration, error) {
	for _, ids := range batches {
		t0 := time.Now()
		if _, err := f.Fetch(0, 1, ids); err != nil {
			return each, err
		}
		each = append(each, time.Since(t0))
	}
	return each, nil
}

// probeCommStack prices each fabric layer by pushing the same batches through
// the in-process fabric, TCP, and TCP under each wrapper the cluster can
// stack on it: the fault injector (a profile that injects nothing), the
// retry/breaker layer, and that layer with a heartbeat detector running.
// The layers take turns round by round so drift in the box's load lands on
// all of them alike.
func probeCommStack(g *graph.Graph, nodes int, seed int64, lm layerMetrics) error {
	if nodes < 2 {
		nodes = 2
	}
	asg := partition.NewAssignment(nodes, 1)
	servers := make([]comm.Server, nodes)
	for i := range servers {
		servers[i] = comm.ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
			lists := make([][]graph.VertexID, len(ids))
			for i, id := range ids {
				lists[i] = g.Neighbors(id)
			}
			return lists
		})
	}
	batches, err := fetchBatches(g, asg, seed)
	if err != nil {
		return err
	}
	const rounds = 16

	tcp, err := comm.NewTCP(servers, nil)
	if err != nil {
		return fmt.Errorf("tcp fabric: %w", err)
	}
	faulty := fault.NewInjector(fault.Profile{Seed: seed}, nodes, nil).Wrap(tcp)
	// The cluster's own resilience defaults.
	resilient := comm.NewResilient(faulty, nodes, comm.RetryConfig{
		Timeout: 250 * time.Millisecond, Retries: 5, BreakerThreshold: 3,
	}, nil)
	// Closing the outermost wrapper closes the fabrics under it.
	defer resilient.Close()
	det := comm.NewDetector(resilient, nodes, comm.DetectorConfig{}, nil, nil)
	resilient.SetSuspector(det.Suspected)

	stack := []struct {
		metric string
		fabric comm.Fabric
		each   []time.Duration
	}{
		{metric: "comm.stack_local_us", fabric: comm.NewLocal(servers, nil)},
		{metric: "comm.stack_tcp_us", fabric: tcp},
		{metric: "comm.stack_fault_us", fabric: faulty},
		{metric: "comm.stack_resilient_us", fabric: resilient},
	}
	for r := 0; r < rounds; r++ {
		for i := range stack {
			if stack[i].each, err = fetchRound(stack[i].fabric, batches, stack[i].each); err != nil {
				return fmt.Errorf("%s: %w", stack[i].metric, err)
			}
		}
	}
	for _, layer := range stack {
		lm[layer.metric] = medianDuration(layer.each) * 1e6
	}

	det.Start()
	var beating []time.Duration
	for r := 0; r < rounds && err == nil; r++ {
		beating, err = fetchRound(resilient, batches, beating)
	}
	det.Stop()
	if err != nil {
		return fmt.Errorf("comm.stack_heartbeat_us: %w", err)
	}
	lm["comm.stack_heartbeat_us"] = medianDuration(beating) * 1e6

	// Two concurrent fetchers on one connection pair: the pipelined rate.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	t0 := time.Now()
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds && errs[c] == nil; r++ {
				_, errs[c] = fetchRound(tcp, batches, nil)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("concurrent tcp fetch: %w", err)
		}
	}
	lm["comm.tcp_fetches_per_s_c2"] = float64(2*rounds*len(batches)) / time.Since(t0).Seconds()
	return nil
}

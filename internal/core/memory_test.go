package core_test

import (
	"testing"

	"khuzdul/internal/comm"
	"khuzdul/internal/core"
	"khuzdul/internal/graph"
	"khuzdul/internal/metrics"
	"khuzdul/internal/partition"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
	"khuzdul/internal/setops"
)

// TestBoundedMemoryClaim verifies the paper's §4.2 argument: with the
// BFS-DFS hybrid, live extendable embeddings stay bounded by roughly
// K × chunk size (plus the bounded worker overshoot), no matter how many
// embeddings the workload generates — while a BFS-ish configuration (one
// huge chunk) holds the whole level in memory.
func TestBoundedMemoryClaim(t *testing.T) {
	g := graph.RMATDefault(300, 2500, 997)
	pl := plan.MustCompile(pattern.Clique(4), plan.Options{Style: plan.StyleGraphPi})

	const chunkSize = 128
	threads := 2
	cfg := core.WithMiniBatch(core.Config{ChunkSize: chunkSize, Threads: threads}, 16)
	_, metSmall := runCluster(t, g, pl, 1, cfg)
	peakSmall := metSmall.Summarize().PeakEmbeddings
	if peakSmall == 0 {
		t.Fatal("no peak recorded")
	}
	// Bound: K live chunks of chunkSize plus per-round overshoot (claimed
	// mini-batches each emitting up to maxdeg children).
	bound := uint64(pl.K)*chunkSize + uint64(threads*16)*uint64(g.MaxDegree())
	if peakSmall > bound {
		t.Fatalf("peak %d exceeds hybrid bound %d", peakSmall, bound)
	}

	_, metHuge := runCluster(t, g, pl, 1, core.Config{ChunkSize: 1 << 22, Threads: threads})
	peakHuge := metHuge.Summarize().PeakEmbeddings
	if peakHuge <= peakSmall {
		t.Fatalf("BFS-style peak %d not above hybrid peak %d", peakHuge, peakSmall)
	}
}

// TestDenseRowsBounded is the bounded-memory claim on the dense suffix: a K5
// on a hub-heavy R-MAT at ChunkSize 8 keeps its live embeddings within the
// BFS-DFS bound — no level past 1 is ever built — and the rows one level-1
// chunk holds within that chunk's embeddings × ⌈max|S|/64⌉ words, the chunk
// being the soft capacity plus one round's overshoot (one mini-batch of roots
// per thread, each emitting up to maxdeg children). A BFS-style run's single
// level-1 chunk holds every row at once.
func TestDenseRowsBounded(t *testing.T) {
	g := graph.RMAT(2000, 16000, 0.65, 0.12, 0.12, 20230325)
	pl := plan.MustCompile(pattern.Clique(5), plan.Options{Style: plan.StyleGraphPi, Stats: plan.StatsOf(g)})
	if !pl.Dense() {
		t.Fatalf("K5 not dense: %v", pl)
	}
	want := plan.CountGraph(pl, g)
	fabric := comm.NewLocal([]comm.Server{comm.ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
		panic("single node should not fetch")
	})}, nil)
	defer fabric.Close()
	src := &testSource{local: partition.NewLocal(g, partition.NewAssignment(1, 1), 0), fabric: fabric}
	run := func(cfg core.Config) (peak uint64, rows int) {
		sink, met := &core.CountSink{}, &metrics.Node{}
		cfg.Metrics = met
		eng := core.NewEngine(core.NewPlanExtender(pl, nil), src, sink, cfg)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if sink.Count() != want || met.KernelBitmap.Load() == 0 {
			t.Fatalf("%+v: %d K5s with %d bitmap kernels, want %d from the dense pass", cfg, sink.Count(), met.KernelBitmap.Load(), want)
		}
		return met.PeakEmbeddings.Load(), core.DenseRowPeak(eng)
	}

	const chunkSize, threads, mini = 8, 2, 4
	maxdeg := int(g.MaxDegree())
	peak, rows := run(core.WithMiniBatch(core.Config{ChunkSize: chunkSize, Threads: threads}, mini))
	if bound := uint64(pl.K*chunkSize + threads*mini*maxdeg); peak > bound {
		t.Errorf("peak %d embeddings exceeds the BFS-DFS bound %d", peak, bound)
	}
	chunkLen := chunkSize + threads*mini*maxdeg
	if bound := chunkLen * plan.DenseRowWords(maxdeg); rows == 0 || rows > bound {
		t.Errorf("one level-1 chunk held %d row words, want 1..%d", rows, bound)
	}
	_, rowsBFS := run(core.Config{ChunkSize: 1 << 22, Threads: threads})
	if rowsBFS <= rows {
		t.Errorf("BFS-style run held %d row words, not above the chunked run's %d", rowsBFS, rows)
	}
	t.Logf("maxdeg %d: peak %d embeddings, %d row words per level-1 chunk (BFS: %d)", maxdeg, peak, rows, rowsBFS)
}

// TestMarkSetBounded is the bounded-memory claim on the mark set a probed
// level counts against (plan.Level.Probe): a worker's mark words never exceed
// the cap Mark holds them to. The graph is twoHubRMAT with half its IDs moved
// past that cap, so some root's R1 of two or more vertices spans a wider
// window. One worker extends every run whole, so that run's second child asks
// Mark for the window and is refused: the run falls back to the sorted kernels
// and the count stays exact, while the runs inside one half still probe.
func TestMarkSetBounded(t *testing.T) {
	small := twoHubRMAT()
	g := spreadIDs(small)
	pl := plan.MustCompile(pattern.Triangle(), plan.Options{Style: plan.StyleAutomine, Stats: plan.StatsOf(g)})
	if !pl.Level(2).Probe() || !pl.Level(1).ClipStore() {
		t.Fatalf("triangle's last level does not probe a clipped R1: %v", pl)
	}
	limit := markWordCap()
	wide := false
	for v := 0; v < g.NumVertices(); v++ {
		r1 := setops.Clip(g.Neighbors(graph.VertexID(v)), graph.VertexID(v)+1, setops.NoVertex)
		if pl.Descending() {
			r1 = setops.Clip(g.Neighbors(graph.VertexID(v)), 0, graph.VertexID(v))
		}
		wide = wide || len(r1) > 1 && int(r1[len(r1)-1]>>6)-int(r1[0]>>6) >= limit
	}
	if !wide {
		t.Fatalf("no R1 spans more than %d words: the fallback is not exercised", limit)
	}
	want := plan.BruteForceCount(small, pattern.Triangle(), false)
	fabric := comm.NewLocal([]comm.Server{comm.ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
		panic("single node should not fetch")
	})}, nil)
	defer fabric.Close()
	src := &testSource{local: partition.NewLocal(g, partition.NewAssignment(1, 1), 0), fabric: fabric}
	sink, met := &core.CountSink{}, &metrics.Node{}
	var eng *core.Engine
	peak := 0
	cfg := core.Config{Threads: 1, Metrics: met, OnRangeDone: func(int, int) {
		for _, w := range core.MarkWords(eng) {
			peak = max(peak, w)
		}
	}}
	eng = core.NewEngine(core.NewPlanExtender(pl, nil), src, sink, cfg)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sink.Count() != want || met.KernelProbe.Load() == 0 {
		t.Fatalf("%d triangles with %d probe kernels, want %d and some", sink.Count(), met.KernelProbe.Load(), want)
	}
	if peak == 0 || peak > limit {
		t.Errorf("a worker's mark set held %d words, want 1..%d", peak, limit)
	}
	t.Logf("mark set peak %d words of %d", peak, limit)
}

// markWordCap is the mark set's word cap, read off Mark's contract: the
// widest ID window, in words, it accepts.
func markWordCap() int {
	var b setops.Bitmap
	lo, hi := 1, 1<<20
	for lo < hi {
		m := (lo + hi + 1) / 2
		if b.Mark([]graph.VertexID{0, graph.VertexID(64*m - 1)}) {
			lo = m
		} else {
			hi = m - 1
		}
	}
	return lo
}

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
)

// BenchmarkExtendEngine drives the whole per-embedding hot path — extendOne,
// PlanExtender.Extend, the setops kernels, and the VCS intermediate-copy
// machinery (the diamond stores R1 and R2) — on a single node so no network
// noise enters the numbers. CI runs it once per change (bench-smoke); its
// allocs/op and B/op are the zero-alloc hot path's evidence. The diamond is
// no clique, so every level runs the sorted path.
func BenchmarkExtendEngine(b *testing.B) {
	benchExtendEngine(b, graph.RMATDefault(400, 3200, 7), plan.MustCompile(pattern.Diamond(), plan.Options{Style: plan.StyleGraphPi}),
		func(sink *core.CountSink, met *metrics.Node, roots int) {
			if sink.Count() == 0 || met.KernelBitmap.Load() != 0 {
				b.Fatalf("%d matches, %d bitmap kernels: want matches from the sorted path", sink.Count(), met.KernelBitmap.Load())
			}
		})
}

// BenchmarkExtendEngineTriangle is the probed count-only level
// (plan.Level.Probe): a triangle under a CountSink on an lj-shaped R-MAT,
// whose last level marks each root's R1 once and probes every later child's
// list against it. It fails unless the probe kernel ran.
func BenchmarkExtendEngineTriangle(b *testing.B) {
	benchExtendEngine(b, graph.RMAT(3000, 24000, 0.57, 0.143, 0.143, 20230325), plan.MustCompile(pattern.Triangle(), plan.Options{Style: plan.StyleGraphPi}),
		func(sink *core.CountSink, met *metrics.Node, roots int) {
			if sink.Count() == 0 || met.KernelProbe.Load() == 0 {
				b.Fatalf("%d matches, %d probe kernels: the last level was not probed", sink.Count(), met.KernelProbe.Load())
			}
		})
}

// BenchmarkExtendEngineDenseClique is the dense suffix (plan.Plan.Dense): a
// 4-clique under a CountSink on an lj-shaped R-MAT, whose level-1 embeddings
// build rows over their root's neighborhood and whose levels 2 and 3 are word
// ANDs. It fails unless the dense pass ran.
func BenchmarkExtendEngineDenseClique(b *testing.B) {
	benchExtendEngine(b, graph.RMAT(3000, 24000, 0.57, 0.143, 0.143, 20230325), plan.MustCompile(pattern.Clique(4), plan.Options{Style: plan.StyleGraphPi}),
		func(sink *core.CountSink, met *metrics.Node, roots int) {
			if sink.Count() == 0 || met.KernelBitmap.Load() == 0 {
				b.Fatalf("%d matches, %d bitmap kernels: the dense pass did not run", sink.Count(), met.KernelBitmap.Load())
			}
		})
}

// BenchmarkExtendEngineStarFold is the folded path of the same engine: a
// 3-star under a CountSink folds at level 1 into one binomial per root, so
// the run must take exactly one extension per root.
func BenchmarkExtendEngineStarFold(b *testing.B) {
	benchExtendEngine(b, graph.RMATDefault(400, 3200, 7), plan.MustCompile(pattern.StarP(4), plan.Options{Style: plan.StyleAutomine}),
		func(sink *core.CountSink, met *metrics.Node, roots int) {
			if n := met.Extensions.Load(); sink.Count() == 0 || n != uint64(roots) {
				b.Fatalf("%d matches in %d extensions over %d roots: the star did not fold", sink.Count(), n, roots)
			}
		})
}

// BenchmarkExtendEngineLabeledStar is the labeled level filtered once per
// parent run (plan.Level.FilterOnce): a 3-star with center label 0 and leaf
// label 1 on a 4-label graph, compiled as frequent subgraph mining compiles
// it — no symmetry breaking — under a materializing sink. Levels 2 and 3 read
// the parent's stored raw, so each filters it by label once per run. The
// executor filters per child; the benchmark fails unless the engine's run
// tested fewer labels than the executor's walk of the same plan.
func BenchmarkExtendEngineLabeledStar(b *testing.B) {
	g0 := graph.RMAT(1600, 9600, 0.40, 0.20, 0.20, 20230325)
	g, err := g0.WithLabels(graph.RandomLabels(g0.NumVertices(), 4, 20230326))
	if err != nil {
		b.Fatal(err)
	}
	pl := plan.MustCompile(pattern.StarP(4).WithLabels([]graph.Label{0, 1, 1, 1}),
		plan.Options{Style: plan.StyleAutomine, DisableSymmetryBreak: true, Stats: plan.StatsOf(g)})
	if !pl.Levels[2].FilterOnce || !pl.Levels[3].FilterOnce {
		b.Fatalf("3-star leaves not filtered once per run: %v", pl)
	}
	var tests, matches uint64
	labelOf := func(v graph.VertexID) graph.Label {
		tests++
		return g.Label(v)
	}
	roots := make([]graph.VertexID, g.NumVertices())
	for v := range roots {
		roots[v] = graph.VertexID(v)
	}
	want := plan.Count(pl, g.Neighbors, labelOf, roots)
	perChild := tests
	newSink := func() core.Sink {
		tests, matches = 0, 0
		return &core.FuncSink{F: func([]graph.VertexID) { matches++ }}
	}
	benchEngine(b, g, core.NewPlanExtender(pl, labelOf), newSink, func(_ core.Sink, _ *metrics.Node, _ int) {
		if matches != want || tests >= perChild {
			b.Fatalf("%d matches in %d label tests, executor %d in %d: the leaf sets were not filtered once per run", matches, tests, want, perChild)
		}
	})
}

// benchExtendEngine runs pl on one node of g under a fresh CountSink per
// iteration and hands check each run's outcome.
func benchExtendEngine(b *testing.B, g *graph.Graph, pl *plan.Plan, check func(sink *core.CountSink, met *metrics.Node, roots int)) {
	benchEngine(b, g, core.NewPlanExtender(pl, nil), func() core.Sink { return &core.CountSink{} },
		func(sink core.Sink, met *metrics.Node, roots int) { check(sink.(*core.CountSink), met, roots) })
}

// benchEngine runs ext on one node of g, with one worker, under a fresh sink
// from newSink per iteration and hands check each run's outcome.
func benchEngine(b *testing.B, g *graph.Graph, ext core.Extender, newSink func() core.Sink, check func(sink core.Sink, met *metrics.Node, roots int)) {
	asg := partition.NewAssignment(1, 1)
	local := partition.NewLocal(g, asg, 0)
	fabric := comm.NewLocal([]comm.Server{comm.ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
		panic("single node should not fetch")
	})}, nil)
	defer fabric.Close()
	src := &testSource{local: local, fabric: fabric}
	roots := len(src.Roots())

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink, met := newSink(), &metrics.Node{}
		eng := core.NewEngine(ext, src, sink, core.Config{Threads: 1, Metrics: met})
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		check(sink, met, roots)
	}
}

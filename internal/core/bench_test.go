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

// benchExtendEngine runs pl on one node of g under a fresh CountSink per
// iteration and hands check each run's outcome.
func benchExtendEngine(b *testing.B, g *graph.Graph, pl *plan.Plan, check func(sink *core.CountSink, met *metrics.Node, roots int)) {
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
		sink, met := &core.CountSink{}, &metrics.Node{}
		eng := core.NewEngine(core.NewPlanExtender(pl, nil), src, sink, core.Config{Threads: 1, Metrics: met})
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		check(sink, met, roots)
	}
}

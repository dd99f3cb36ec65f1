package core_test

import (
	"fmt"
	"testing"

	"khuzdul/internal/comm"
	"khuzdul/internal/core"
	"khuzdul/internal/graph"
	"khuzdul/internal/metrics"
	"khuzdul/internal/partition"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// An engineCase is one single-node engine the ExtendEngine benchmarks and
// the allocation budgets build: ext over g, with one worker, under a fresh
// sink from newSink per run; check fails the run whose outcome shows the
// engine did not take the path the case exists for.
type engineCase struct {
	g       *graph.Graph
	ext     core.Extender
	newSink func() core.Sink
	check   func(tb testing.TB, sink core.Sink, met *metrics.Node, roots int)
}

// engineCases names the five engines. Each builder's scale multiplies its
// graph's vertices and edges; the benchmarks run scale 1.
var engineCases = []struct {
	name  string
	build func(tb testing.TB, scale int) engineCase
}{
	{"Diamond", diamondCase},
	{"Triangle", triangleCase},
	{"DenseClique", denseCliqueCase},
	{"StarFold", starFoldCase},
	{"LabeledStar", labeledStarCase},
}

// ljShaped is the lj-shaped R-MAT the probed and the dense case run on.
func ljShaped(scale int) *graph.Graph {
	return graph.RMAT(3000*scale, 24000*uint64(scale), 0.57, 0.143, 0.143, 20230325)
}

// diamondCase walks a diamond to its last level on the sorted path:
// extendOne, PlanExtender.Extend, the setops kernels and the VCS
// intermediate-copy machinery (the diamond stores R1 and R2). The diamond is
// no clique, so no level runs the dense pass.
func diamondCase(tb testing.TB, scale int) engineCase {
	return countCase(graph.RMATDefault(400*scale, 3200*uint64(scale), 7), plan.MustCompile(pattern.Diamond(), plan.Options{Style: plan.StyleGraphPi}),
		func(tb testing.TB, sink *core.CountSink, met *metrics.Node, roots int) {
			if sink.Count() == 0 || met.KernelBitmap.Load() != 0 {
				tb.Fatalf("%d matches, %d bitmap kernels: want matches from the sorted path", sink.Count(), met.KernelBitmap.Load())
			}
		})
}

// triangleCase is the probed count-only level (plan.Level.Probe): a triangle
// under a CountSink on an lj-shaped R-MAT, whose last level marks each root's
// R1 once and probes every later child's list against it.
func triangleCase(tb testing.TB, scale int) engineCase {
	return countCase(ljShaped(scale), plan.MustCompile(pattern.Triangle(), plan.Options{Style: plan.StyleGraphPi}),
		func(tb testing.TB, sink *core.CountSink, met *metrics.Node, roots int) {
			if sink.Count() == 0 || met.KernelProbe.Load() == 0 {
				tb.Fatalf("%d matches, %d probe kernels: the last level was not probed", sink.Count(), met.KernelProbe.Load())
			}
		})
}

// denseCliqueCase is the dense suffix (plan.Plan.Dense): a 4-clique under a
// CountSink on an lj-shaped R-MAT, whose level-1 embeddings build rows over
// their root's neighborhood and whose levels 2 and 3 are word ANDs.
func denseCliqueCase(tb testing.TB, scale int) engineCase {
	return countCase(ljShaped(scale), plan.MustCompile(pattern.Clique(4), plan.Options{Style: plan.StyleGraphPi}),
		func(tb testing.TB, sink *core.CountSink, met *metrics.Node, roots int) {
			if sink.Count() == 0 || met.KernelBitmap.Load() == 0 {
				tb.Fatalf("%d matches, %d bitmap kernels: the dense pass did not run", sink.Count(), met.KernelBitmap.Load())
			}
		})
}

// starFoldCase is the folded path: a 3-star under a CountSink folds at level
// 1 into one binomial per root, so the run must take exactly one extension
// per root.
func starFoldCase(tb testing.TB, scale int) engineCase {
	return countCase(graph.RMATDefault(400*scale, 3200*uint64(scale), 7), plan.MustCompile(pattern.StarP(4), plan.Options{Style: plan.StyleAutomine}),
		func(tb testing.TB, sink *core.CountSink, met *metrics.Node, roots int) {
			if n := met.Extensions.Load(); sink.Count() == 0 || n != uint64(roots) {
				tb.Fatalf("%d matches in %d extensions over %d roots: the star did not fold", sink.Count(), n, roots)
			}
		})
}

// labeledStarCase is the labeled level filtered once per parent run
// (plan.Level.FilterOnce): a 3-star with center label 0 and leaf label 1 on a
// 4-label graph, compiled as frequent subgraph mining compiles it — no
// symmetry breaking — under a materializing sink. Levels 2 and 3 read the
// parent's stored raw, so each filters it by label once per run. The executor
// filters per child; a run fails unless it tested fewer labels than the
// executor's walk of the same plan.
func labeledStarCase(tb testing.TB, scale int) engineCase {
	g0 := graph.RMAT(1600*scale, 9600*uint64(scale), 0.40, 0.20, 0.20, 20230325)
	g, err := g0.WithLabels(graph.RandomLabels(g0.NumVertices(), 4, 20230326))
	if err != nil {
		tb.Fatal(err)
	}
	pl := plan.MustCompile(pattern.StarP(4).WithLabels([]graph.Label{0, 1, 1, 1}),
		plan.Options{Style: plan.StyleAutomine, DisableSymmetryBreak: true, Stats: plan.StatsOf(g)})
	if !pl.Level(2).FilterOnce() || !pl.Level(3).FilterOnce() {
		tb.Fatalf("3-star leaves not filtered once per run: %v", pl)
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
	// The sink's function is made once here, so a run allocates no closure
	// of its own.
	count := func([]graph.VertexID) { matches++ }
	return engineCase{
		g:   g,
		ext: core.NewPlanExtender(pl, labelOf),
		newSink: func() core.Sink {
			tests, matches = 0, 0
			return &core.FuncSink{F: count}
		},
		check: func(tb testing.TB, _ core.Sink, _ *metrics.Node, _ int) {
			if matches != want || tests >= perChild {
				tb.Fatalf("%d matches in %d label tests, executor %d in %d: the leaf sets were not filtered once per run", matches, tests, want, perChild)
			}
		},
	}
}

// countCase runs pl over g under a fresh CountSink per run.
func countCase(g *graph.Graph, pl *plan.Plan, check func(tb testing.TB, sink *core.CountSink, met *metrics.Node, roots int)) engineCase {
	return engineCase{
		g:       g,
		ext:     core.NewPlanExtender(pl, nil),
		newSink: func() core.Sink { return &core.CountSink{} },
		check: func(tb testing.TB, sink core.Sink, met *metrics.Node, roots int) {
			check(tb, sink.(*core.CountSink), met, roots)
		},
	}
}

// runner places c's graph on one node and returns one checked run of its
// engine; the fabric it builds is closed when tb ends.
func (c engineCase) runner(tb testing.TB) func() {
	asg := partition.NewAssignment(1, 1)
	local := partition.NewLocal(c.g, asg, 0)
	fabric := comm.NewLocal([]comm.Server{comm.ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
		panic("single node should not fetch")
	})}, nil)
	tb.Cleanup(func() { fabric.Close() })
	src := &testSource{local: local, fabric: fabric}
	roots := len(src.Roots())
	return func() {
		sink, met := c.newSink(), &metrics.Node{}
		eng := core.NewEngine(c.ext, src, sink, core.Config{Threads: 1, Metrics: met})
		if err := eng.Run(); err != nil {
			tb.Fatal(err)
		}
		c.check(tb, sink, met, roots)
	}
}

// benchEngine runs the named case at scale 1. CI runs every ExtendEngine
// benchmark once per change (bench-smoke); allocs/op and B/op put the
// per-embedding path, the probed level, the dense pass, the folded path and
// the filtered levels on record.
func benchEngine(b *testing.B, name string) {
	for _, ec := range engineCases {
		if ec.name != name {
			continue
		}
		run := ec.build(b, 1).runner(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
		return
	}
	b.Fatalf("no engine case %q", name)
}

// BenchmarkExtendEngine drives the whole per-embedding hot path on the
// sorted path: a diamond walked to its last level (diamondCase).
func BenchmarkExtendEngine(b *testing.B) { benchEngine(b, "Diamond") }

// BenchmarkExtendEngineTriangle is the probed count-only level
// (triangleCase). It fails unless the probe kernel ran.
func BenchmarkExtendEngineTriangle(b *testing.B) { benchEngine(b, "Triangle") }

// BenchmarkExtendEngineDenseClique is the dense suffix (denseCliqueCase). It
// fails unless the dense pass ran.
func BenchmarkExtendEngineDenseClique(b *testing.B) { benchEngine(b, "DenseClique") }

// BenchmarkExtendEngineStarFold is the folded path (starFoldCase). It fails
// unless the run took one extension per root.
func BenchmarkExtendEngineStarFold(b *testing.B) { benchEngine(b, "StarFold") }

// BenchmarkExtendEngineLabeledStar is the labeled level filtered once per
// parent run (labeledStarCase). It fails unless the engine's run tested fewer
// labels than the executor's walk of the same plan.
func BenchmarkExtendEngineLabeledStar(b *testing.B) { benchEngine(b, "LabeledStar") }

// engineAllocBudget bounds the heap allocations of one warm run of any
// engineCase, at scale 1 and 4: what a run pays for its engine, workers,
// chunks and sink, never what it pays per extension. The five cases read
// 28–53 allocations per run at scale 1; one allocation per embedding, or per
// kernel call, reads in the thousands.
const engineAllocBudget = 200

// TestExtendEngineAllocBudget holds the per-embedding path allocation-free:
// every warm run of the five engines stays under one constant budget, on the
// benchmarks' graphs and on graphs four times larger.
func TestExtendEngineAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, scale := range []int{1, 4} {
		for _, ec := range engineCases {
			t.Run(fmt.Sprintf("%s/x%d", ec.name, scale), func(t *testing.T) {
				run := ec.build(t, scale).runner(t)
				allocs := testing.AllocsPerRun(3, run)
				t.Logf("%.0f allocs per warm run", allocs)
				if allocs > engineAllocBudget {
					t.Fatalf("a warm run allocated %.0f times, budget %d", allocs, engineAllocBudget)
				}
			})
		}
	}
}

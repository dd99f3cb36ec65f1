package core_test

import (
	"testing"

	"khuzdul/internal/comm"
	"khuzdul/internal/core"
	"khuzdul/internal/graph"
	"khuzdul/internal/partition"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// BenchmarkExtendEngine drives the whole per-embedding hot path — extendOne,
// PlanExtender.Extend, the setops kernels, and the VCS intermediate-copy
// machinery (clique plans store raw intersections) — on a single node so no
// network noise enters the numbers. CI runs it once per change (bench-smoke);
// its allocs/op and B/op are the zero-alloc hot path's evidence.
func BenchmarkExtendEngine(b *testing.B) {
	g := graph.RMATDefault(400, 3200, 7)
	pl := plan.MustCompile(pattern.Clique(4), plan.Options{Style: plan.StyleGraphPi})
	asg := partition.NewAssignment(1, 1)
	local := partition.NewLocal(g, asg, 0)
	fabric := comm.NewLocal([]comm.Server{comm.ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
		panic("single node should not fetch")
	})}, nil)
	defer fabric.Close()
	src := &testSource{local: local, fabric: fabric}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := &core.CountSink{}
		eng := core.NewEngine(core.NewPlanExtender(pl, nil), src, sink, core.Config{Threads: 1})
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		if sink.Count() == 0 {
			b.Fatal("no matches")
		}
	}
}

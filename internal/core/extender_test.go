package core_test

import (
	"testing"

	"khuzdul/internal/comm"
	"khuzdul/internal/core"
	"khuzdul/internal/graph"
	"khuzdul/internal/partition"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
	"khuzdul/internal/setops"
)

// handTriangle is a hand-written EXTEND function for triangle counting,
// written the way the paper's Figure 5 shows a GPM system developer would:
// branch on the embedding's current size, extend via edge-list access and
// intersection, mark which vertices stay active. It bypasses the plan
// compiler entirely, demonstrating that the engine is client-agnostic and
// the Extender interface is the sole integration point.
type handTriangle struct{}

func (handTriangle) K() int { return 3 }

// Position 0 and 1 are active (their lists feed the final intersection);
// position 2 is the last vertex and needs nothing.
func (handTriangle) NeedsList(level int) bool { return level <= 1 }

func (handTriangle) StoreInter(level int) bool { return false }

func (handTriangle) Extend(s *plan.Scratch, level int, emb []graph.VertexID,
	getList func(int) []graph.VertexID, parentRaw []graph.VertexID) (cands, raw []graph.VertexID) {
	switch level {
	case 1:
		// e' contains one vertex: every neighbor with a larger ID extends it
		// (v0 < v1 breaks the first symmetry).
		n0 := getList(0)
		out := make([]graph.VertexID, 0, len(n0))
		for _, v := range n0 {
			if v > emb[0] {
				out = append(out, v)
			}
		}
		return out, out
	case 2:
		// e' contains two vertices: candidates are N(v0) ∩ N(v1) above v1.
		out := setops.Intersect(nil, setops.Clip(getList(0), emb[1]+1, setops.NoVertex), getList(1))
		return out, out
	default:
		panic("handTriangle: bad level")
	}
}

func (handTriangle) Dense() *plan.Plan { return nil }

func (handTriangle) RootOK(v graph.VertexID) bool { return true }

func (handTriangle) NewScratch() *plan.Scratch {
	return plan.NewScratch(plan.MustCompile(pattern.Triangle(), plan.Options{}))
}

func TestHandWrittenExtendFunction(t *testing.T) {
	g := graph.RMATDefault(150, 800, 27)
	want := plan.BruteForceCount(g, pattern.Triangle(), false)

	numNodes := 3
	asg := partition.NewAssignment(numNodes, 1)
	servers := make([]comm.Server, numNodes)
	locals := make([]*partition.Local, numNodes)
	for node := 0; node < numNodes; node++ {
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
	fabric := comm.NewLocal(servers, nil)
	defer fabric.Close()

	var total uint64
	for node := 0; node < numNodes; node++ {
		src := &testSource{local: locals[node], fabric: fabric}
		sink := &core.CountSink{}
		eng := core.NewEngine(handTriangle{}, src, sink, core.Config{Threads: 2})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		total += sink.Count()
	}
	if total != want {
		t.Fatalf("hand-written EXTEND counted %d triangles, want %d", total, want)
	}
}

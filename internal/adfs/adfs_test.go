package adfs

import (
	"testing"

	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

func TestCountMatchesBruteForce(t *testing.T) {
	g := graph.RMATDefault(90, 450, 79)
	for _, pat := range []*pattern.Pattern{
		pattern.Triangle(), pattern.Clique(4), pattern.CycleP(4), pattern.PathP(4),
	} {
		want := plan.BruteForceCount(g, pat, false)
		for _, nodes := range []int{1, 4} {
			res, err := Count(g, pat, Config{NumNodes: nodes, ThreadsPerNode: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Errorf("%v on %d nodes: %d, want %d", pat, nodes, res.Count, want)
			}
		}
	}
}

func TestLabeledCount(t *testing.T) {
	g0 := graph.RMATDefault(80, 400, 83)
	g, err := g0.WithLabels(graph.RandomLabels(80, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	pat := pattern.Triangle().WithLabels([]graph.Label{0, 1, 2})
	want := plan.BruteForceCount(g, pat, false)
	res, err := Count(g, pat, Config{NumNodes: 3, ThreadsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("labeled triangle: %d, want %d", res.Count, want)
	}
}

func TestTrafficDominatedByCarriedLists(t *testing.T) {
	// The defining property of moving-computation-to-data: traffic includes
	// whole edge lists travelling with embeddings. On two nodes, vertices 0,
	// 1 and 3 live on node 0 and 2 and 4 on node 1. The graph has edges 01
	// 02 03 12 23 24 34 (degrees 3 2 4 3 2) and three triangles. The
	// triangle plan extends v0 by v1 < v0 in N(v0), ships (v0, v1) to v1's
	// owner, and there intersects N(v0) ∩ N(v1), so a shipped task carries
	// N(v0) whenever v0 lives elsewhere. A task costs 4 bytes per vertex
	// plus a 4-byte count (12), and a carried list 4 bytes per neighbor plus
	// its own 4-byte count. The four cross-node tasks:
	//   (2,0) node 1→0: 12 + 4 + 4·|N(2)|=16 → 32
	//   (2,1) node 1→0: 12 + 4 + 16         → 32
	//   (3,2) node 0→1: 12 + 4 + 4·|N(3)|=12 → 28
	//   (4,3) node 1→0: 12 + 4 + 4·|N(4)|=8  → 24
	// 116 bytes in all, 68 of them carried lists against 48 of embeddings.
	// (1,0), (3,0) and (4,2) stay on their node and cost nothing.
	g := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 2, V: 4}, {U: 3, V: 4}})
	res, err := Count(g, pattern.Triangle(), Config{NumNodes: 2, ThreadsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 || res.Summary.BytesSent != 116 {
		t.Fatalf("%d triangles over %d bytes, want 3 over 116", res.Count, res.Summary.BytesSent)
	}
}

func TestSingleNodeNoTraffic(t *testing.T) {
	g := graph.RMATDefault(100, 500, 97)
	res, err := Count(g, pattern.Triangle(), Config{NumNodes: 1, ThreadsPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.BytesSent != 0 {
		t.Fatalf("single node sent %d bytes", res.Summary.BytesSent)
	}
}

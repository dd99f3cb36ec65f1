package plan

import (
	"math/rand"
	"testing"
	"testing/quick"

	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
)

// edgeLabeledGraph builds a random graph with symmetric random edge labels.
func edgeLabeledGraph(n int, m uint64, numLabels int, seed int64) *graph.Graph {
	return graph.RMATDefault(n, m, seed).WithRandomEdgeLabels(numLabels, seed+1)
}

func TestEdgeLabeledTriangleMatchesBruteForce(t *testing.T) {
	g := edgeLabeledGraph(60, 300, 2, 301)
	for la := graph.Label(0); la < 2; la++ {
		for lb := graph.Label(0); lb < 2; lb++ {
			for lc := graph.Label(0); lc < 2; lc++ {
				pat := pattern.Triangle()
				pat.SetEdgeLabel(0, 1, la)
				pat.SetEdgeLabel(1, 2, lb)
				pat.SetEdgeLabel(0, 2, lc)
				want := BruteForceCount(g, pat, false)
				for _, style := range []Style{StyleAutomine, StyleGraphPi} {
					pl := MustCompile(pat, Options{Style: style})
					if !pl.edgeLabeled {
						t.Fatal("plan lost edge labels")
					}
					if got := CountGraph(pl, g); got != want {
						t.Errorf("labels (%d,%d,%d) %v: got %d, want %d",
							la, lb, lc, style, got, want)
					}
				}
			}
		}
	}
}

func TestEdgeLabelSumOverLabels(t *testing.T) {
	// Summing the edge-labeled wedge counts over all label combinations must
	// equal the unlabeled wedge count.
	g := edgeLabeledGraph(80, 400, 3, 307)
	unlabeled := MustCompile(pattern.PathP(3), Options{Style: StyleGraphPi})
	want := CountGraph(unlabeled, g)
	// Iterate distinct patterns only: (la,lb) and (lb,la) are isomorphic
	// wedges, so take la ≤ lb.
	var sum uint64
	for la := graph.Label(0); la < 3; la++ {
		for lb := la; lb < 3; lb++ {
			pat := pattern.PathP(3)
			pat.SetEdgeLabel(0, 1, la)
			pat.SetEdgeLabel(1, 2, lb)
			pl := MustCompile(pat, Options{Style: StyleGraphPi})
			sum += CountGraph(pl, g)
		}
	}
	if sum != want {
		t.Fatalf("edge-labeled wedge sum %d != unlabeled %d", sum, want)
	}
}

func TestEdgeLabelsShrinkAutomorphisms(t *testing.T) {
	// A triangle with distinct edge labels keeps only the automorphisms
	// preserving the labeling (identity + the flip fixing the odd edge...
	// with all three labels distinct only identity survives? A triangle
	// automorphism permutes edges; distinct labels force every edge fixed,
	// so only the identity and nothing else — |Aut| = 1... the flip (0 1)
	// maps edge {0,2}→{1,2}, different labels, rejected).
	pat := pattern.Triangle()
	pat.SetEdgeLabel(0, 1, 1)
	pat.SetEdgeLabel(1, 2, 2)
	pat.SetEdgeLabel(0, 2, 3)
	if got := len(pattern.Automorphisms(pat)); got != 1 {
		t.Fatalf("|Aut| = %d, want 1", got)
	}
	// Two equal + one distinct: the swap across the distinct edge survives.
	pat2 := pattern.Triangle()
	pat2.SetEdgeLabel(0, 1, 1)
	pat2.SetEdgeLabel(1, 2, 1)
	pat2.SetEdgeLabel(0, 2, 2)
	if got := len(pattern.Automorphisms(pat2)); got != 2 {
		t.Fatalf("|Aut| = %d, want 2", got)
	}
}

func TestEdgeLabeledIsomorphism(t *testing.T) {
	a := pattern.PathP(3)
	a.SetEdgeLabel(0, 1, 5)
	a.SetEdgeLabel(1, 2, 7)
	b := pattern.PathP(3)
	b.SetEdgeLabel(0, 1, 7)
	b.SetEdgeLabel(1, 2, 5)
	if !pattern.Isomorphic(a, b) {
		t.Fatal("mirrored edge-labeled paths should be isomorphic")
	}
	c := pattern.PathP(3)
	c.SetEdgeLabel(0, 1, 5)
	c.SetEdgeLabel(1, 2, 5)
	if pattern.Isomorphic(a, c) {
		t.Fatal("differently edge-labeled paths reported isomorphic")
	}
	if pattern.CanonicalCode(a) != pattern.CanonicalCode(b) {
		t.Fatal("canonical codes of isomorphic edge-labeled patterns differ")
	}
	if pattern.CanonicalCode(a) == pattern.CanonicalCode(c) {
		t.Fatal("canonical codes of non-isomorphic edge-labeled patterns collide")
	}
}

func TestPropertyEdgeLabeledCounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(25)
		g := graph.Uniform(n, uint64(rng.Intn(4*n)), rng.Int63()).
			WithRandomEdgeLabels(2, rng.Int63())
		pat := pattern.Triangle()
		pat.SetEdgeLabel(0, 1, graph.Label(rng.Intn(2)))
		pat.SetEdgeLabel(1, 2, graph.Label(rng.Intn(2)))
		pat.SetEdgeLabel(0, 2, graph.Label(rng.Intn(2)))
		pl := MustCompile(pat, Options{Style: StyleGraphPi})
		return CountGraph(pl, g) == BruteForceCount(g, pat, false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

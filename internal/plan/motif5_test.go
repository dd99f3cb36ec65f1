package plan

import (
	"fmt"
	"testing"

	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
)

// TestAllFiveVertexMotifs sweeps every connected 5-vertex pattern (21
// shapes) through both plan styles and both matching semantics against the
// brute-force oracle — the widest structural coverage of the compiler.
func TestAllFiveVertexMotifs(t *testing.T) {
	if testing.Short() {
		t.Skip("wide sweep")
	}
	g := graph.RMATDefault(35, 150, 431)
	for i, pat := range pattern.ConnectedPatterns(5) {
		for _, induced := range []bool{false, true} {
			want := BruteForceCount(g, pat, induced)
			for _, style := range []Style{StyleAutomine, StyleGraphPi} {
				pl := MustCompile(pat, Options{Style: style, Induced: induced})
				if got := CountGraph(pl, g); got != want {
					t.Errorf("pattern %d (%v) induced=%v %v: got %d, want %d",
						i, pat, induced, style, got, want)
				}
			}
		}
	}
}

// patternAsGraph turns a pattern into a data graph on the same vertices.
func patternAsGraph(p *pattern.Pattern) *graph.Graph {
	b := graph.NewBuilder(p.NumVertices())
	for u := 0; u < p.NumVertices(); u++ {
		for _, v := range p.Neighbors(u) {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	return b.Build()
}

// TestMotifConversionMatrix checks the matrix k-MC converts by against its
// definition — entry (i, j) is the non-induced count of pattern i in pattern
// j taken as a graph, by the brute-force oracle — against its shape (unit
// upper triangular in edge-count order, which back-substitution relies on),
// and against the textbook entries.
func TestMotifConversionMatrix(t *testing.T) {
	for k := 2; k <= 5; k++ {
		pats := pattern.ConnectedPatterns(k)
		conv := pattern.MotifConversion(k)
		if len(conv) != len(pats) {
			t.Fatalf("k=%d: %d rows for %d patterns", k, len(conv), len(pats))
		}
		for i, row := range conv {
			for j, got := range row {
				if want := BruteForceCount(patternAsGraph(pats[j]), pats[i], false); got != want {
					t.Errorf("k=%d: A[%d][%d] = %d, brute force finds %d copies of %v in %v", k, i, j, got, want, pats[i], pats[j])
				}
				if i == j && got != 1 || i > j && got != 0 {
					t.Errorf("k=%d: A[%d][%d] = %d, not unit upper triangular", k, i, j, got)
				}
			}
		}
	}
	if got := fmt.Sprint(pattern.MotifConversion(3)); got != "[[1 3] [0 1]]" {
		t.Errorf("k=3 matrix = %s", got)
	}
	// The 4-clique column, by pattern.
	pats, conv := pattern.ConnectedPatterns(4), pattern.MotifConversion(4)
	for _, c := range []struct {
		pat  *pattern.Pattern
		want uint64
	}{
		{pattern.StarP(4), 4}, {pattern.PathP(4), 12}, {pattern.TailedTriangle(), 12},
		{pattern.CycleP(4), 3}, {pattern.Diamond(), 6}, {pattern.Clique(4), 1},
	} {
		for i, pat := range pats {
			if pattern.Isomorphic(pat, c.pat) && conv[i][len(pats)-1] != c.want {
				t.Errorf("copies of %v in the 4-clique = %d, want %d", c.pat, conv[i][len(pats)-1], c.want)
			}
		}
	}
}

// TestInducedCounts converts non-induced executor counts and holds every
// induced count to brute force, for both plan styles.
func TestInducedCounts(t *testing.T) {
	g := graph.RMATDefault(30, 120, 457)
	for k := 2; k <= 5; k++ {
		pats := pattern.ConnectedPatterns(k)
		for _, style := range []Style{StyleAutomine, StyleGraphPi} {
			counts := make([]uint64, len(pats))
			for i, pat := range pats {
				counts[i] = CountGraph(MustCompile(pat, Options{Style: style, Stats: StatsOf(g)}), g)
			}
			induced, _, err := pattern.InducedCounts(k, counts)
			if err != nil {
				t.Fatal(err)
			}
			for i, pat := range pats {
				if want := BruteForceCount(g, pat, true); induced[i] != want {
					t.Errorf("k=%d %v: induced %v = %d, brute force %d", k, style, pat, induced[i], want)
				}
			}
		}
	}
}

// TestInducedMotifPartition checks that the induced counts of all size-k
// patterns partition the connected-subgraph count (ESU identity) — here
// derived purely inside the plan package using non-induced/induced algebra
// for k=3: wedges_ni = wedges_ind + 3·triangles.
func TestInducedMotifPartitionK3(t *testing.T) {
	g := graph.Uniform(120, 700, 433)
	wedgeNI := CountGraph(MustCompile(pattern.PathP(3), Options{}), g)
	wedgeI := CountGraph(MustCompile(pattern.PathP(3), Options{Induced: true}), g)
	tri := CountGraph(MustCompile(pattern.Triangle(), Options{}), g)
	if wedgeI+3*tri != wedgeNI {
		t.Fatalf("identity violated: %d + 3·%d != %d", wedgeI, tri, wedgeNI)
	}
}

// TestDiamondCliqueIdentity: each 4-clique contains 6 non-induced diamonds;
// non-induced diamonds = induced diamonds + 6·(4-cliques).
func TestDiamondCliqueIdentity(t *testing.T) {
	g := graph.RMATDefault(80, 500, 439)
	dNI := CountGraph(MustCompile(pattern.Diamond(), Options{}), g)
	dI := CountGraph(MustCompile(pattern.Diamond(), Options{Induced: true}), g)
	k4 := CountGraph(MustCompile(pattern.Clique(4), Options{}), g)
	if dI+6*k4 != dNI {
		t.Fatalf("identity violated: %d + 6·%d != %d", dI, k4, dNI)
	}
}

// TestEdgeCountViaPlan: the 2-vertex pattern counts edges exactly.
func TestEdgeCountViaPlan(t *testing.T) {
	g := graph.RMATDefault(300, 2000, 443)
	pl := MustCompile(pattern.PathP(2), Options{Style: StyleAutomine})
	if got := CountGraph(pl, g); got != g.NumEdges() {
		t.Fatalf("edge count via plan = %d, want %d", got, g.NumEdges())
	}
}

// TestStarCounts: k-stars counted via binomial identity Σ C(deg(v), k-1).
func TestStarCounts(t *testing.T) {
	g := graph.RMATDefault(100, 600, 449)
	binom := func(n uint32, k int) uint64 {
		if int(n) < k {
			return 0
		}
		r := uint64(1)
		for i := 0; i < k; i++ {
			r = r * uint64(int(n)-i) / uint64(i+1)
		}
		return r
	}
	for _, k := range []int{3, 4, 5} {
		var want uint64
		for v := 0; v < g.NumVertices(); v++ {
			want += binom(g.Degree(graph.VertexID(v)), k-1)
		}
		pl := MustCompile(pattern.StarP(k), Options{Style: StyleGraphPi})
		if got := CountGraph(pl, g); got != want {
			t.Errorf("%d-stars = %d, want %d", k, got, want)
		}
	}
}

package apps

import (
	"errors"
	"testing"

	"khuzdul/internal/cluster"
	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

func newCluster(t *testing.T, g *graph.Graph, nodes int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(g, cluster.Config{NumNodes: nodes, ThreadsPerSocket: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestTriangleCountBothSystems(t *testing.T) {
	g := graph.RMATDefault(120, 700, 173)
	want := plan.BruteForceCount(g, pattern.Triangle(), false)
	c := newCluster(t, g, 4)
	for _, sys := range []System{KAutomine, KGraphPi} {
		res, err := TriangleCount(c, sys)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Errorf("%v TC = %d, want %d", sys, res.Count, want)
		}
	}
}

func TestCliqueCount(t *testing.T) {
	g := graph.RMATDefault(100, 600, 179)
	c := newCluster(t, g, 3)
	for _, k := range []int{4, 5} {
		want := plan.BruteForceCount(g, pattern.Clique(k), false)
		res, err := CliqueCount(c, k, KGraphPi)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Errorf("%d-CC = %d, want %d", k, res.Count, want)
		}
	}
}

// TestMotifCount holds k-MC by decomposition — non-induced plans, folded star
// tails, matrix conversion — to induced brute force, pattern by pattern, for
// every motif size with more than one pattern that brute force can reach.
func TestMotifCount(t *testing.T) {
	g := graph.RMATDefault(40, 170, 181)
	c := newCluster(t, g, 3)
	for _, k := range []int{3, 4, 5} {
		pats := pattern.ConnectedPatterns(k)
		want := make([]uint64, len(pats))
		for i, pat := range pats {
			want[i] = plan.BruteForceCount(g, pat, true)
		}
		for _, sys := range []System{KAutomine, KGraphPi} {
			per, combined, err := MotifCount(c, k, sys)
			if err != nil {
				t.Fatal(err)
			}
			if len(per) != len(pats) {
				t.Fatalf("%d-MC returned %d results, want %d", k, len(per), len(pats))
			}
			var total uint64
			for i, pat := range pats {
				if per[i].Count != want[i] {
					t.Errorf("%v %d-MC pattern %v = %d, want %d", sys, k, pat, per[i].Count, want[i])
				}
				total += want[i]
			}
			if combined.Count != total {
				t.Errorf("%v %d-MC total = %d, want %d", sys, k, combined.Count, total)
			}
		}
	}
}

// TestMotifCountSizeRange: a motif size the pattern enumerator does not
// support is a classified error, not the panic it used to be.
func TestMotifCountSizeRange(t *testing.T) {
	c := newCluster(t, graph.RMATDefault(20, 60, 3), 1)
	for _, k := range []int{1, 7} {
		if _, _, err := MotifCount(c, k, KAutomine); !errors.Is(err, pattern.ErrMotifSize) {
			t.Errorf("MotifCount(k=%d) = %v, want ErrMotifSize", k, err)
		}
	}
}

// TestMotifShipsOnePlan is the bytes evidence for 3-MC by decomposition, kept
// in-tree because the benchmark's traced pass compiles induced plans of its
// own: with no cache, what a run ships depends only on the lists its levels
// read. The folded non-induced wedge reads N(v0) alone, which is local, so
// MotifCount(3) ships exactly the triangle plan's bytes — well under half of
// what the two induced plans it replaced ship.
func TestMotifShipsOnePlan(t *testing.T) {
	// A graph without ID skew, so that the half of the level-1 embeddings the
	// triangle's restriction keeps asks for half the bytes, and small chunks,
	// so that sharing a fetched list within a chunk does not hide how many
	// embeddings asked for one.
	g := graph.Uniform(600, 4000, 211)
	c, err := cluster.New(g, cluster.Config{NumNodes: 8, ThreadsPerSocket: 1, ChunkSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, motifs, err := MotifCount(c, 3, KAutomine)
	if err != nil {
		t.Fatal(err)
	}
	triangle, err := TriangleCount(c, KAutomine)
	if err != nil {
		t.Fatal(err)
	}
	var induced uint64
	for _, pat := range pattern.ConnectedPatterns(3) {
		res, err := PatternCount(c, pat, KAutomine, true)
		if err != nil {
			t.Fatal(err)
		}
		induced += res.Summary.BytesSent
	}
	got := motifs.Summary.BytesSent
	if got == 0 || got != triangle.Summary.BytesSent {
		t.Errorf("3-MC shipped %d bytes, the triangle plan alone %d", got, triangle.Summary.BytesSent)
	}
	if float64(got) > 0.4*float64(induced) {
		t.Errorf("3-MC shipped %d bytes, more than 0.4 × the %d of the two induced plans", got, induced)
	}
}

func TestMotifTotalsIdentity(t *testing.T) {
	// Induced size-3 counts satisfy: #wedge_induced + 3·#triangle =
	// #wedge_non_induced. Cross-check the apps layer against that identity.
	g := graph.RMATDefault(90, 500, 191)
	c := newCluster(t, g, 2)
	per, _, err := MotifCount(c, 3, KGraphPi)
	if err != nil {
		t.Fatal(err)
	}
	pats := pattern.ConnectedPatterns(3)
	var wedgeInduced, triangles uint64
	for i, pat := range pats {
		if pat.NumEdges() == 2 {
			wedgeInduced = per[i].Count
		} else {
			triangles = per[i].Count
		}
	}
	wedgeNonInduced := plan.BruteForceCount(g, pattern.PathP(3), false)
	if wedgeInduced+3*triangles != wedgeNonInduced {
		t.Fatalf("identity violated: %d + 3×%d != %d", wedgeInduced, triangles, wedgeNonInduced)
	}
}

func TestOrientedCliqueCount(t *testing.T) {
	g := graph.RMATDefault(150, 900, 193)
	dag := graph.Orient(g)
	c := newCluster(t, dag, 3)
	for _, k := range []int{3, 4, 5} {
		want := plan.BruteForceCount(g, pattern.Clique(k), false)
		res, err := OrientedCliqueCount(c, k, KAutomine)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Errorf("oriented %d-CC = %d, want %d", k, res.Count, want)
		}
	}
}

func TestPatternCountInduced(t *testing.T) {
	g := graph.RMATDefault(80, 400, 197)
	c := newCluster(t, g, 2)
	want := plan.BruteForceCount(g, pattern.Diamond(), true)
	res, err := PatternCount(c, pattern.Diamond(), KGraphPi, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("induced diamond = %d, want %d", res.Count, want)
	}
}

// compileExact compiles pat with sys and checks the plan's style and that it
// counts exactly.
func compileExact(t *testing.T, sys System, style plan.Style, pat *pattern.Pattern, g *graph.Graph) {
	t.Helper()
	if sys.Style() != style {
		t.Fatalf("%v.Style() = %v, want %v", sys, sys.Style(), style)
	}
	pl, err := Compile(sys, pat, g, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Style != style {
		t.Fatalf("%v compiled %v in style %v", sys, pat, pl.Style)
	}
	if got, want := plan.CountGraph(pl, g), plan.BruteForceCount(g, pat, false); got != want {
		t.Fatalf("%v %v: count = %d, want %d", sys, pat, got, want)
	}
}

func TestCompileProducesAutomineStyle(t *testing.T) {
	compileExact(t, KAutomine, plan.StyleAutomine, pattern.Clique(4), graph.RMATDefault(100, 500, 811))
}

func TestCompileProducesGraphPiStyle(t *testing.T) {
	compileExact(t, KGraphPi, plan.StyleGraphPi, pattern.House(), graph.RMATDefault(100, 500, 821))
}

func TestCompileOptionsForwarded(t *testing.T) {
	for _, sys := range []System{KAutomine, KGraphPi} {
		pl, err := Compile(sys, pattern.Clique(4), nil, CompileOptions{DisableVCS: true, DisableSymmetryBreak: true})
		if err != nil {
			t.Fatal(err)
		}
		bounds := 0
		for i := 0; i < pl.K; i++ {
			bounds += len(pl.Level(i).Bounds())
		}
		if pl.VCS() || bounds != 0 {
			t.Fatalf("%v: options not forwarded: VCS %v, %d restrictions", sys, pl.VCS(), bounds)
		}
	}
}

func TestCompileRejectsDisconnected(t *testing.T) {
	disc := pattern.New(4)
	disc.AddEdge(0, 1)
	disc.AddEdge(2, 3)
	for _, sys := range []System{KAutomine, KGraphPi} {
		if _, err := Compile(sys, disc, nil, CompileOptions{}); err == nil {
			t.Fatalf("%v: want error for disconnected pattern", sys)
		}
	}
}

// TestCompileMotifs: induced plans for every connected 3-pattern, compiled
// by either system, sum to the brute-force induced 3-motif total.
func TestCompileMotifs(t *testing.T) {
	g := graph.RMATDefault(60, 300, 827)
	var want uint64
	for _, pat := range pattern.ConnectedPatterns(3) {
		want += plan.BruteForceCount(g, pat, true)
	}
	for _, sys := range []System{KAutomine, KGraphPi} {
		var total uint64
		for _, pat := range pattern.ConnectedPatterns(3) {
			pl, err := Compile(sys, pat, g, CompileOptions{Induced: true})
			if err != nil {
				t.Fatal(err)
			}
			if !pl.Induced() {
				t.Fatalf("%v: motif plan not induced", sys)
			}
			total += plan.CountGraph(pl, g)
		}
		if total != want {
			t.Fatalf("%v: 3-motif total = %d, want %d", sys, total, want)
		}
	}
}

func TestCompileUnknownSystem(t *testing.T) {
	if _, err := Compile(System(9), pattern.Triangle(), nil, CompileOptions{}); err == nil {
		t.Fatal("want error for unknown system")
	}
	if System(9).String() == "" || KAutomine.String() == "" {
		t.Fatal("empty system name")
	}
}

// benchmarkMotifCount times k-MC end to end — compile, run every non-induced
// plan on an 8-node in-process cluster, convert.
func benchmarkMotifCount(b *testing.B, k int) {
	g := graph.RMATDefault(2000, 12000, 223)
	c, err := cluster.New(g, cluster.Config{NumNodes: 8, ThreadsPerSocket: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, total, err := MotifCount(c, k, KAutomine)
		if err != nil {
			b.Fatal(err)
		}
		benchCount = total.Count
	}
}

var benchCount uint64

func BenchmarkMotifCount3(b *testing.B) { benchmarkMotifCount(b, 3) }
func BenchmarkMotifCount4(b *testing.B) { benchmarkMotifCount(b, 4) }

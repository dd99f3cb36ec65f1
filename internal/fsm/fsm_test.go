package fsm

import (
	"testing"

	"khuzdul/internal/cluster"
	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// refSupport computes MNI support by brute-force enumeration of all
// injective label- and edge-respecting maps.
func refSupport(g *graph.Graph, pat *pattern.Pattern) uint64 {
	k := pat.NumVertices()
	doms := make([]map[graph.VertexID]bool, k)
	for i := range doms {
		doms[i] = map[graph.VertexID]bool{}
	}
	emb := make([]graph.VertexID, k)
	var rec func(pos int)
	rec = func(pos int) {
		if pos == k {
			for i, v := range emb {
				doms[i][v] = true
			}
			return
		}
	next:
		for v := 0; v < g.NumVertices(); v++ {
			cand := graph.VertexID(v)
			if g.Label(cand) != pat.Label(pos) {
				continue
			}
			for j := 0; j < pos; j++ {
				if emb[j] == cand {
					continue next
				}
				if pat.HasEdge(j, pos) && !g.HasEdge(emb[j], cand) {
					continue next
				}
			}
			emb[pos] = cand
			rec(pos + 1)
		}
	}
	rec(0)
	min := uint64(1<<63 - 1)
	for _, d := range doms {
		if uint64(len(d)) < min {
			min = uint64(len(d))
		}
	}
	return min
}

func labeledGraph(n int, m uint64, numLabels int, seed int64) *graph.Graph {
	g0 := graph.RMATDefault(n, m, seed)
	g, err := g0.WithLabels(graph.RandomLabels(n, numLabels, seed+1))
	if err != nil {
		panic(err)
	}
	return g
}

// TestSupportMatchesReference holds both support paths — the single-machine
// executor and the cluster — to brute force on every labeled pattern of up to
// three edges that candidate generation reaches on a 2-label graph. Both
// paths filter candidates through plan.Candidates, so only brute force can
// catch a bug there; the stars and wedges with same-label leaves are the
// ones whose distinctness test excludes matched vertices.
func TestSupportMatchesReference(t *testing.T) {
	g := labeledGraph(40, 160, 2, 151)
	c, err := cluster.New(g, cluster.Config{NumNodes: 3, ThreadsPerSocket: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	labels := distinctLabels(g)
	seen := map[string]bool{}
	var pats []*pattern.Pattern
	add := func(pat *pattern.Pattern) {
		if code := pattern.CanonicalCode(pat); !seen[code] {
			seen[code] = true
			pats = append(pats, pat)
		}
	}
	for i, la := range labels {
		for _, lb := range labels[i:] {
			add(pattern.PathP(2).WithLabels([]graph.Label{la, lb}))
		}
	}
	for edges := 2; edges <= 3; edges++ {
		for _, pat := range pats {
			if pat.NumEdges() == edges-1 {
				for _, cand := range extendByOneEdge(pat, labels) {
					add(cand)
				}
			}
		}
	}
	sameLeaves := false
	for _, pat := range pats {
		want := refSupport(g, pat)
		local, err := localSupport(g, pat, plan.StyleAutomine, 3)
		if err != nil {
			t.Fatal(err)
		}
		dist, _, err := clusterSupport(c, pat, plan.StyleAutomine)
		if err != nil {
			t.Fatal(err)
		}
		if local != want || dist != want {
			t.Errorf("%v: localSupport %d, clusterSupport %d, brute force %d", pat, local, dist, want)
		}
		for u := 0; u < pat.NumVertices(); u++ {
			if l := pat.Neighbors(u); len(l) == 3 && pat.Label(l[0]) == pat.Label(l[1]) && pat.Label(l[1]) == pat.Label(l[2]) {
				sameLeaves = true
			}
		}
	}
	if len(pats) < 30 || !sameLeaves {
		t.Fatalf("generated %d patterns, a 3-star with same-label leaves among them: %v", len(pats), sameLeaves)
	}
}

func TestClusterSupportMatchesLocal(t *testing.T) {
	g := labeledGraph(60, 240, 3, 157)
	c, err := cluster.New(g, cluster.Config{NumNodes: 3, ThreadsPerSocket: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pats := []*pattern.Pattern{
		pattern.PathP(2).WithLabels([]graph.Label{0, 1}),
		pattern.PathP(3).WithLabels([]graph.Label{1, 2, 1}),
		pattern.Triangle().WithLabels([]graph.Label{0, 1, 2}),
	}
	for _, pat := range pats {
		want, err := localSupport(g, pat, plan.StyleAutomine, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := clusterSupport(c, pat, plan.StyleAutomine)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("clusterSupport(%v) = %d, want %d", pat, got, want)
		}
	}
}

func TestMineSingleFindsFrequentPatterns(t *testing.T) {
	// A graph made of many disjoint labeled triangles (0-1-2): every labeled
	// sub-pattern of the triangle is frequent, anything else has support 0.
	b := graph.NewBuilder(0)
	labels := []graph.Label{}
	const copies = 20
	for i := 0; i < copies; i++ {
		base := graph.VertexID(3 * i)
		b.AddEdge(base, base+1)
		b.AddEdge(base+1, base+2)
		b.AddEdge(base+2, base)
		labels = append(labels, 0, 1, 2)
	}
	b.SetLabels(labels)
	g := b.Build()

	res, err := MineSingle(g, Config{MinSupport: copies, MaxEdges: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Frequent: 3 labeled edges (0-1, 1-2, 0-2), 3 labeled wedges, 1 labeled
	// triangle = 7 patterns, all with support exactly `copies`.
	if len(res.Frequent) != 7 {
		for _, fp := range res.Frequent {
			t.Logf("frequent: %v support=%d", fp.Pattern, fp.Support)
		}
		t.Fatalf("found %d frequent patterns, want 7", len(res.Frequent))
	}
	for _, fp := range res.Frequent {
		if fp.Support != copies {
			t.Errorf("%v support = %d, want %d", fp.Pattern, fp.Support, copies)
		}
	}
	// The triangle itself must be among them.
	foundTriangle := false
	for _, fp := range res.Frequent {
		if fp.Pattern.NumEdges() == 3 && fp.Pattern.NumVertices() == 3 {
			foundTriangle = true
		}
	}
	if !foundTriangle {
		t.Fatal("labeled triangle not found frequent")
	}
}

func TestMineThresholdFilters(t *testing.T) {
	g := labeledGraph(80, 320, 2, 163)
	lo, err := MineSingle(g, Config{MinSupport: 2, MaxEdges: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := MineSingle(g, Config{MinSupport: 1 << 40, MaxEdges: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hi.Frequent) != 0 {
		t.Fatalf("impossible threshold found %d patterns", len(hi.Frequent))
	}
	if len(lo.Frequent) == 0 {
		t.Fatal("low threshold found nothing")
	}
	// Anti-monotone sanity: every reported support meets the threshold.
	for _, fp := range lo.Frequent {
		if fp.Support < 2 {
			t.Errorf("%v support %d below threshold", fp.Pattern, fp.Support)
		}
	}
}

func TestMineClusterMatchesSingle(t *testing.T) {
	g := labeledGraph(50, 200, 2, 167)
	single, err := MineSingle(g, Config{MinSupport: 3, MaxEdges: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(g, cluster.Config{NumNodes: 3, ThreadsPerSocket: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dist, err := Mine(c, Config{MinSupport: 3, MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Frequent) != len(dist.Frequent) {
		t.Fatalf("single found %d, cluster %d", len(single.Frequent), len(dist.Frequent))
	}
	for i := range single.Frequent {
		a, b := single.Frequent[i], dist.Frequent[i]
		if a.Support != b.Support || !pattern.Isomorphic(a.Pattern, b.Pattern) {
			t.Fatalf("mismatch at %d: %v/%d vs %v/%d",
				i, a.Pattern, a.Support, b.Pattern, b.Support)
		}
	}
}

// benchGraph is the benchmark's fsm-mc-8n input for a seed (bench/workloads.go:
// workload index 3, so generator seed+6 and label seed+7).
func benchGraph(tb testing.TB, seed int64) *graph.Graph {
	tb.Helper()
	g0 := graph.RMAT(1600, 9600, 0.40, 0.20, 0.20, seed+6)
	g, err := g0.WithLabels(graph.RandomLabels(g0.NumVertices(), 4, seed+7))
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestMineMatchesSingleOnBenchSeeds mines the benchmark's FSM input on its 8
// simulated nodes — 286 back-to-back cluster runs through recycled engine
// memory into the per-extension domain sink — and holds the frequent set and
// every support equal to the single-machine miner, which visits embeddings
// one at a time through plan.Executor.
func TestMineMatchesSingleOnBenchSeeds(t *testing.T) {
	seeds := []int64{20230325, 19800101}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		g := benchGraph(t, seed)
		cfg := Config{MinSupport: 160, MaxEdges: 3}
		single, err := MineSingle(g, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cluster.New(g, cluster.Config{NumNodes: 8, ThreadsPerSocket: 1})
		if err != nil {
			t.Fatal(err)
		}
		dist, err := Mine(c, cfg)
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if dist.Examined != single.Examined || len(dist.Frequent) != len(single.Frequent) {
			t.Fatalf("seed %d: cluster examined %d / frequent %d, single %d / %d",
				seed, dist.Examined, len(dist.Frequent), single.Examined, len(single.Frequent))
		}
		if len(single.Frequent) == 0 {
			t.Fatalf("seed %d: nothing frequent, the comparison is empty", seed)
		}
		for i := range single.Frequent {
			a, b := single.Frequent[i], dist.Frequent[i]
			if a.Support != b.Support || pattern.CanonicalCode(a.Pattern) != pattern.CanonicalCode(b.Pattern) {
				t.Fatalf("seed %d: mismatch at %d: %v/%d vs %v/%d",
					seed, i, a.Pattern, a.Support, b.Pattern, b.Support)
			}
		}
	}
}

// TestDomainSinkBatchEqualsPerMatch feeds the same matches to one sink an
// extension at a time and to another a match at a time.
func TestDomainSinkBatchEqualsPerMatch(t *testing.T) {
	pl := plan.MustCompile(pattern.PathP(3).WithLabels([]graph.Label{0, 1, 0}),
		plan.Options{DisableSymmetryBreak: true})
	batch, single := newDomainSink(pl, 200), newDomainSink(pl, 200)
	exts := []struct {
		prefix, last []graph.VertexID
	}{
		{[]graph.VertexID{3, 70}, []graph.VertexID{5, 64, 199}},
		{[]graph.VertexID{128, 1}, []graph.VertexID{0}},
		{[]graph.VertexID{9, 70}, []graph.VertexID{63, 65, 127, 130}},
	}
	for _, e := range exts {
		batch.OnMatches(e.prefix, e.last)
		for i := range e.last {
			single.OnMatches(e.prefix, e.last[i:i+1])
		}
	}
	for i := range batch.doms {
		if batch.doms[i].count() != single.doms[i].count() {
			t.Fatalf("position %d: %d vertices by extension, %d by match", i, batch.doms[i].count(), single.doms[i].count())
		}
		for w := range batch.doms[i] {
			if batch.doms[i][w] != single.doms[i][w] {
				t.Fatalf("position %d word %d differs", i, w)
			}
		}
	}
	if batch.support() != 2 {
		t.Fatalf("support %d, want 2", batch.support())
	}
}

// BenchmarkFSMMine is one whole mine of the benchmark's FSM input on 8 nodes:
// per-pattern compile, cluster run and domain reduction, 286 times over.
func BenchmarkFSMMine(b *testing.B) {
	g := benchGraph(b, 20230325)
	c, err := cluster.New(g, cluster.Config{NumNodes: 8, ThreadsPerSocket: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Mine(c, Config{MinSupport: 160, MaxEdges: 3})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Frequent) == 0 {
			b.Fatal("nothing frequent")
		}
	}
}

func TestMineRejectsUnlabeled(t *testing.T) {
	g := graph.Path(5)
	if _, err := MineSingle(g, Config{MinSupport: 1}, 1); err == nil {
		t.Fatal("want error for unlabeled graph")
	}
}

func TestBitset(t *testing.T) {
	b := newBitset(130)
	b.set(0)
	b.set(64)
	b.set(129)
	if b.count() != 3 {
		t.Fatalf("count = %d", b.count())
	}
	o := newBitset(130)
	o.set(64)
	o.set(65)
	b.or(o)
	if b.count() != 4 {
		t.Fatalf("count after or = %d", b.count())
	}
}

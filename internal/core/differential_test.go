package core_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"khuzdul/internal/cluster"
	"khuzdul/internal/comm"
	"khuzdul/internal/core"
	"khuzdul/internal/graph"
	"khuzdul/internal/metrics"
	"khuzdul/internal/partition"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// TestDifferentialCountPaths holds the four ways this repository counts a
// pattern to one another: the engine under a count-only sink (bounded count
// kernels at the last level), the engine under a materializing sink (bounded
// materialize everywhere), the reference executor (materialize and len) and
// brute force (no plan at all). It sweeps what the count path branches on —
// pattern shape, induced or not, vertex or edge labels, restriction direction
// and vertical computation sharing — on one and on three worker threads; the
// merge and gallop kernels must both fire under the count-only sink. Without
// vertical computation sharing the K4 and K5 levels intersect three or more
// lists pairwise. Counting instead of building must change nothing but the
// depth of the walk, and that only where the plan ends in a star tail.
func TestDifferentialCountPaths(t *testing.T) {
	type input struct {
		name string
		g    *graph.Graph
	}
	dress := func(g *graph.Graph, seed int64) *graph.Graph {
		lg, err := g.WithLabels(graph.RandomLabels(g.NumVertices(), 2, seed))
		if err != nil {
			t.Fatal(err)
		}
		return lg.WithRandomEdgeLabels(2, seed+1)
	}
	inputs := []input{
		{"rmat", dress(hubbedRMAT(), 7)},
		{"er", dress(graph.Uniform(26, 110, 19800101), 11)},
	}
	var pats []*pattern.Pattern
	for k := 2; k <= 4; k++ {
		pats = append(pats, pattern.ConnectedPatterns(k)...)
	}
	pats = append(pats, pattern.Clique(5), pattern.House(), pattern.CycleP(5))

	// kinds dresses a pattern: bare, vertex-labeled, edge-labeled. Labels
	// follow vertex parity so that some symmetry — and with it some
	// restrictions — survives.
	kinds := []struct {
		name  string
		dress func(*pattern.Pattern) *pattern.Pattern
	}{
		{"unlabeled", func(p *pattern.Pattern) *pattern.Pattern { return p }},
		{"labeled", func(p *pattern.Pattern) *pattern.Pattern {
			labels := make([]graph.Label, p.NumVertices())
			for v := range labels {
				labels[v] = graph.Label(v % 2)
			}
			return p.WithLabels(labels)
		}},
		{"edge-labeled", func(p *pattern.Pattern) *pattern.Pattern {
			q := p.Clone()
			for u := 0; u < q.NumVertices(); u++ {
				for _, v := range q.Neighbors(u) {
					if u < v {
						q.SetEdgeLabel(u, v, graph.Label((u+v)%2))
					}
				}
			}
			return q
		}},
	}
	var counting [2]uint64 // kernel ledger summed over the count-only runs
	for _, in := range inputs {
		for _, base := range pats {
			for _, kind := range kinds {
				pat := kind.dress(base)
				for _, induced := range []bool{false, true} {
					want := plan.BruteForceCount(in.g, pat, induced)
					for variant := 0; variant < 4; variant++ {
						descending, vcs := variant&1 != 0, variant&2 == 0
						name := fmt.Sprintf("%s/%v/%s/induced=%v/descending=%v/vcs=%v", in.name, base, kind.name, induced, descending, vcs)
						stats := plan.StatsOf(in.g)
						stats.UpSq, stats.DownSq = 0, 1
						if descending {
							stats.UpSq, stats.DownSq = 1, 0
						}
						pl := plan.MustCompile(pat, plan.Options{Style: plan.StyleGraphPi, Induced: induced, DisableVCS: !vcs, Stats: stats})
						restricted := false
						for _, lv := range pl.Levels {
							restricted = restricted || len(lv.Bounds) > 0
						}
						if pl.Descending != (descending && restricted) {
							t.Fatalf("%s: plan.Descending = %v", name, pl.Descending)
						}
						ex := plan.NewExecutor(pl, in.g.Neighbors, in.g.Label)
						ex.SetEdgeLabelOf(plan.EdgeLabelOracle(in.g))
						var ref uint64
						for v := 0; v < in.g.NumVertices(); v++ {
							ref += ex.CountRoot(graph.VertexID(v))
						}
						if ref != want {
							t.Errorf("%s: executor %d, brute force %d", name, ref, want)
						}
						for _, threads := range []int{1, 3} {
							cfg := core.Config{Threads: threads, ChunkSize: 64, HDS: true}
							counted, cm := runClusterSink(t, in.g, pl, 2, cfg, sinkCount)
							built, bm := runClusterSink(t, in.g, pl, 2, cfg, sinkBuild)
							if counted != want || built != want {
								t.Errorf("%s threads=%d: count-only %d, materializing %d, brute force %d", name, threads, counted, built, want)
							}
							// Counting instead of building changes no embedding
							// the engine creates on the way to the last level —
							// unless a star tail folds, which ends the walk at the
							// fold level with fewer extensions.
							cs, bs := cm.Summarize(), bm.Summarize()
							if cs.Matches != bs.Matches || (cs.Extensions == bs.Extensions) != (pl.Fold == 0) || cs.Extensions > bs.Extensions ||
								pl.Fold == 0 && (cs.VerticalHits != bs.VerticalHits || threads == 1 && cs.PeakEmbeddings != bs.PeakEmbeddings) {
								t.Errorf("%s threads=%d fold=%d: count-only run %d/%d/%d/%d matches/extensions/vertical/peak, materializing %d/%d/%d/%d",
									name, threads, pl.Fold, cs.Matches, cs.Extensions, cs.VerticalHits, cs.PeakEmbeddings,
									bs.Matches, bs.Extensions, bs.VerticalHits, bs.PeakEmbeddings)
							}
							counting[0] += cs.KernelMerge
							counting[1] += cs.KernelGallop
						}
					}
				}
			}
		}
	}
	for i, n := range counting {
		if n == 0 {
			t.Errorf("kernel %d (merge, gallop) never ran under a count-only sink: %v", i, sinkCount)
		}
	}
}

// hubbedRMAT is a small R-MAT draw given a mid-ID hub adjacent to three
// vertices in four: a list long enough (≥ 32× a one-element clip) for the
// gallop kernel, and on the wrong side of whichever direction a plan points.
func hubbedRMAT() *graph.Graph {
	rmat := graph.RMAT(56, 300, 0.7, 0.1, 0.1, 20230325)
	hubbed := graph.NewBuilder(rmat.NumVertices())
	for u := 0; u < rmat.NumVertices(); u++ {
		for _, v := range rmat.Neighbors(graph.VertexID(u)) {
			hubbed.AddEdge(graph.VertexID(u), v)
		}
		if u%4 != 0 {
			hubbed.AddEdge(graph.VertexID(rmat.NumVertices()/2), graph.VertexID(u))
		}
	}
	return hubbed.Build()
}

// TestDifferentialFoldedPlans holds the folded count to the other three on
// every shape that ends in a star tail: stars (the whole plan below the root
// folds), and a triangle and a path carrying a pendant pair (the fold level
// must subtract the earlier matched vertices it finds in the anchor's list).
// The chunk sizes put the fold level's parents in one chunk and in many. A
// fold that did not fire shows as an extension count no lower than the
// materializing run's; the hand-built last case — a bound from outside the
// tail — must not fire. The folding engines are bare ones, a CountSink under
// core.NewPlanExtender and nothing else, and must take exactly the
// extensions cluster.Count takes.
func TestDifferentialFoldedPlans(t *testing.T) {
	g := hubbedRMAT()
	cl, err := cluster.New(g, cluster.Config{NumNodes: 2, ThreadsPerSocket: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	shapes := []struct {
		name string
		pat  *pattern.Pattern
		fold int
	}{
		{"wedge", pattern.PathP(3), 2},
		{"3-star", pattern.StarP(4), 3},
		{"4-star", pattern.StarP(5), 4},
		{"triangle-with-two-pendants", pattern.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}, {0, 4}}), 2},
		{"path-with-pendant-pair", pattern.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {2, 4}}), 2},
	}
	check := func(name string, pl *plan.Plan, want uint64, fold int) {
		t.Helper()
		if pl.Fold != fold {
			t.Fatalf("%s: %v, want fold=%d", name, pl, fold)
		}
		if ref := plan.CountGraph(pl, g); ref != want {
			t.Errorf("%s: executor %d, want %d", name, ref, want)
		}
		res, err := cl.Count(pl)
		if err != nil || res.Count != want {
			t.Fatalf("%s: cluster.Count = %d, %v; want %d", name, res.Count, err, want)
		}
		for _, threads := range []int{1, 3} {
			for _, chunk := range []int{8, 0} {
				cfg := core.Config{Threads: threads, ChunkSize: chunk, HDS: true}
				folded, fm := runClusterSink(t, g, pl, 2, cfg, sinkCount)
				built, bm := runClusterSink(t, g, pl, 2, cfg, sinkBuild)
				if folded != want || built != want {
					t.Errorf("%s threads=%d chunk=%d: count-only %d, materializing %d, want %d", name, threads, chunk, folded, built, want)
				}
				fs, bs := fm.Summarize(), bm.Summarize()
				if fs.Matches != bs.Matches || (fs.Extensions < bs.Extensions) != (fold > 0) || fs.Extensions > bs.Extensions {
					t.Errorf("%s threads=%d chunk=%d fold=%d: count-only run %d matches in %d extensions, materializing %d in %d",
						name, threads, chunk, fold, fs.Matches, fs.Extensions, bs.Matches, bs.Extensions)
				}
				if fs.Extensions != res.Summary.Extensions {
					t.Errorf("%s threads=%d chunk=%d fold=%d: bare engine took %d extensions, cluster.Count %d",
						name, threads, chunk, fold, fs.Extensions, res.Summary.Extensions)
				}
			}
		}
	}
	for _, sh := range shapes {
		want := plan.BruteForceCount(g, sh.pat, false)
		for _, descending := range []bool{false, true} {
			stats := plan.StatsOf(g)
			stats.UpSq, stats.DownSq = 0, 1
			if descending {
				stats.UpSq, stats.DownSq = 1, 0
			}
			pl := plan.MustCompile(sh.pat, plan.Options{Style: plan.StyleAutomine, Stats: stats})
			if pl.Descending != descending {
				t.Fatalf("%s: plan.Descending = %v", sh.name, pl.Descending)
			}
			check(fmt.Sprintf("%s/descending=%v", sh.name, descending), pl, want, sh.fold)
		}
	}

	// A 3-star whose last level is also bounded by the root: v3 against v0 is
	// a bound from outside the tail that level 1 does not carry, so the tail's
	// candidate sets are no longer nested in level 1's and nothing may fold.
	pl := plan.MustCompile(pattern.StarP(4), plan.Options{Style: plan.StyleAutomine, Stats: plan.StatsOf(g)})
	pl.Levels[3].Bounds = append([]int{0}, pl.Levels[3].Bounds...)
	for _, r := range []int{2, 3} {
		pl.Fold = r
		if err := pl.Validate(); err == nil {
			t.Errorf("Validate accepted %v", pl)
		}
	}
	pl.Fold = 0
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	check("3-star with an outside bound", pl, plan.CountGraph(pl, g), 0)
}

// TestBareEngineFoldExactOrLoud is cluster's TestFoldedCountExactOrLoud on a
// bare engine: a CountSink alone makes it fold, so C(20000, 4) 4-stars on a
// star graph come exact in one extension per root, and C(20000, 5) 5-stars,
// which overflow a uint64, fail the run with ErrCountOverflow before the
// range holding the hub is committed.
func TestBareEngineFoldExactOrLoud(t *testing.T) {
	g := graph.Star(20001)
	fabric := comm.NewLocal([]comm.Server{comm.ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
		panic("single node should not fetch")
	})}, nil)
	defer fabric.Close()
	src := &testSource{local: partition.NewLocal(g, partition.NewAssignment(1, 1), 0), fabric: fabric}
	run := func(pat *pattern.Pattern) (*core.CountSink, *metrics.Node, int, error) {
		pl := plan.MustCompile(pat, plan.Options{Style: plan.StyleAutomine, Stats: plan.StatsOf(g)})
		if pl.FoldLevel() != 1 {
			t.Fatalf("%v: want the whole tail below the root folded", pl)
		}
		sink, met := &core.CountSink{}, &metrics.Node{}
		committed := 0
		eng := core.NewEngine(core.NewPlanExtender(pl, nil), src, sink, core.Config{
			Threads: 2, ChunkSize: 1000, Metrics: met,
			OnRangeDone: func(_, end int) { committed = end },
		})
		err := eng.Run()
		return sink, met, committed, err
	}
	const want = 20000 * 19999 * 19998 * 19997 / 24
	sink, met, _, err := run(pattern.StarP(5))
	if err != nil || sink.Count() != want {
		t.Fatalf("4-stars = %d, %v; want %d", sink.Count(), err, uint64(want))
	}
	if n := met.Extensions.Load(); n != uint64(g.NumVertices()) {
		t.Errorf("%d extensions, want one per root", n)
	}
	if _, _, committed, err := run(pattern.StarP(6)); !errors.Is(err, core.ErrCountOverflow) || committed != 0 {
		t.Fatalf("5-stars: %v with %d roots committed; want ErrCountOverflow and none", err, committed)
	}
}

// TestDifferentialDensePlans holds the dense suffix (plan.Plan.Dense) to brute
// force and to the executor, which runs the sorted schedule whatever Dense
// says: cliques k = 3–6, and every other connected k ≤ 5 pattern the compiler
// marks dense in some style. Each plan runs in both restriction directions ×
// threads {1, 2} × ChunkSize {8, default} × {CountSink, materializing sink};
// on one materializing run per plan every embedding is checked against the
// graph. The graph's two hubs
// give neighborhoods past 64 and 128 vertices, so rows span several words and
// bound masks cut inside one. Every run asserts the dense pass ran — bitmap
// kernels entered — exactly when the plan is dense, so a dense row cannot
// pass on the sorted path, and that no list past level 1 was fetched.
func TestDifferentialDensePlans(t *testing.T) {
	g := twoHubRMAT()
	pats := []*pattern.Pattern{pattern.Clique(3), pattern.Clique(4), pattern.Clique(5), pattern.Clique(6)}
	styles := []plan.Style{plan.StyleAutomine, plan.StyleGraphPi}
	nonCliques := 0
	for k := 4; k <= 5; k++ {
		for _, pat := range pattern.ConnectedPatterns(k) {
			if pat.NumEdges() == k*(k-1)/2 {
				continue
			}
			for _, st := range styles {
				if plan.MustCompile(pat, plan.Options{Style: st, Stats: plan.StatsOf(g)}).Dense {
					pats = append(pats, pat)
					nonCliques++
					break
				}
			}
		}
	}
	if nonCliques == 0 {
		t.Fatal("no dense non-clique among the connected k ≤ 5 patterns")
	}
	for _, pat := range pats {
		want := plan.BruteForceCount(g, pat, false)
		for _, st := range styles {
			for _, descending := range []bool{false, true} {
				stats := plan.StatsOf(g)
				stats.UpSq, stats.DownSq = 0, 1
				if descending {
					stats.UpSq, stats.DownSq = 1, 0
				}
				pl := plan.MustCompile(pat, plan.Options{Style: st, Stats: stats})
				clique := pat.NumEdges() == pl.K*(pl.K-1)/2
				if !clique && !pl.Dense {
					continue // a non-clique the compiler marks dense only elsewhere
				}
				name := fmt.Sprintf("%v/%v/descending=%v", pat, st, descending)
				if clique && pl.Dense != (pl.K >= 4) {
					t.Fatalf("%s: Dense = %v: %v", name, pl.Dense, pl)
				}
				if ref := plan.CountGraph(pl, g); ref != want {
					t.Errorf("%s: executor %d, brute force %d", name, ref, want)
				}
				for _, threads := range []int{1, 2} {
					for _, chunk := range []int{8, 0} {
						for _, mode := range []sinkMode{sinkCount, sinkBuild} {
							if mode == sinkBuild && threads == 2 && chunk == 8 {
								mode = sinkVerify // one run per plan checks every embedding
							}
							cfg := core.Config{Threads: threads, ChunkSize: chunk, HDS: true}
							got, met := runClusterSink(t, g, pl, 2, cfg, mode)
							s := met.Summarize()
							if got != want || s.Matches != want {
								t.Errorf("%s threads=%d chunk=%d sink=%d: %d matches (%d counted), brute force %d",
									name, threads, chunk, mode, got, s.Matches, want)
							}
							if (s.KernelBitmap > 0) != pl.Dense {
								t.Errorf("%s threads=%d chunk=%d sink=%d: %d bitmap kernels on a plan with Dense = %v",
									name, threads, chunk, mode, s.KernelBitmap, pl.Dense)
							}
							if pl.Dense && s.Extensions > uint64(g.NumVertices())+2*uint64(g.NumEdges()) {
								t.Errorf("%s threads=%d chunk=%d sink=%d: %d extensions, past one per root and per level-1 embedding",
									name, threads, chunk, mode, s.Extensions)
							}
						}
					}
				}
			}
		}
	}
}

// twoHubRMAT is a small R-MAT draw given two hubs, adjacent to one vertex in
// two and one in five, so a neighborhood reaches past 64 vertices, and a
// planted 7-clique spread over the IDs, so K6 has matches.
func twoHubRMAT() *graph.Graph {
	rmat := graph.RMAT(140, 600, 0.6, 0.13, 0.13, 19800101)
	b := graph.NewBuilder(rmat.NumVertices())
	for u := 0; u < rmat.NumVertices(); u++ {
		for _, v := range rmat.Neighbors(graph.VertexID(u)) {
			b.AddEdge(graph.VertexID(u), v)
		}
		if u%2 == 1 {
			b.AddEdge(graph.VertexID(rmat.NumVertices()/3), graph.VertexID(u))
		}
		if u%5 == 2 {
			b.AddEdge(graph.VertexID(rmat.NumVertices()-7), graph.VertexID(u))
		}
	}
	planted := []graph.VertexID{3, 22, 41, 64, 87, 110, 129}
	for i, u := range planted {
		for _, v := range planted[i+1:] {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// TestDifferentialProbeLevels holds the probed count-only level
// (plan.Level.Probe) to the materializing run, the executor and brute force
// in each of its forms — the triangle's R1 ∩ N(v1) with vertical computation
// sharing and its N(v0) ∩ N(v1) without, and the induced wedge's R1 \ N(v1)
// — in both restriction directions, and across what splits one parent's
// children into several runs: ChunkSize 8, MiniBatch 1, three workers, and
// four nodes, whose circulant batches group children by owner. The induced
// wedge without VCS probes nothing and is the control. The materializing run
// never probes, a count-only run probes only on a probed level, and each
// probed plan probes somewhere in its sweep; on the triangle the count-only
// ledger total is the materializing one. The plans with VCS then run on the
// graph with half its IDs moved past the mark set's cap (spreadIDs): the
// shared sets that straddle both halves are too wide to mark, fall back to the
// sorted kernels, and must stay exact.
func TestDifferentialProbeLevels(t *testing.T) {
	small := twoHubRMAT()
	// A variant is a direction (bit 0 set: descending) and VCS (bit 1 set:
	// off). The spread graph's 300,000 roots make each run dear, so it takes
	// the VCS forms on one configuration per node count.
	type grid struct{ variants, nodes, threads, chunks, minis []int }
	for _, in := range []struct {
		name string
		g    *graph.Graph
		grid grid
	}{
		{"two-hub", small, grid{[]int{0, 1, 2, 3}, []int{1, 4}, []int{1, 3}, []int{8, 0}, []int{1, 0}}},
		{"spread", spreadIDs(small), grid{[]int{0, 1}, []int{1, 4}, []int{2}, []int{0}, []int{0}}},
	} {
		for _, c := range []struct {
			pat     *pattern.Pattern
			induced bool
		}{{pattern.Triangle(), false}, {pattern.PathP(3), true}} {
			want := plan.BruteForceCount(small, c.pat, c.induced)
			for _, variant := range in.grid.variants {
				descending, vcs := variant&1 != 0, variant&2 == 0
				stats := plan.StatsOf(in.g)
				stats.UpSq, stats.DownSq = 0, 1
				if descending {
					stats.UpSq, stats.DownSq = 1, 0
				}
				pl := plan.MustCompile(c.pat, plan.Options{Style: plan.StyleAutomine, Induced: c.induced, DisableVCS: !vcs, Stats: stats})
				name := fmt.Sprintf("%s/%v/induced=%v/descending=%v/vcs=%v", in.name, c.pat, c.induced, descending, vcs)
				probed := pl.Levels[pl.K-1].Probe
				if probed != (vcs || !c.induced) {
					t.Fatalf("%s: last level Probe = %v: %v", name, probed, pl)
				}
				if ref := plan.CountGraph(pl, in.g); ref != want {
					t.Errorf("%s: executor %d, brute force %d", name, ref, want)
				}
				var probes uint64
				for _, nodes := range in.grid.nodes {
					for _, threads := range in.grid.threads {
						for _, chunk := range in.grid.chunks {
							for _, mini := range in.grid.minis {
								cfg := core.Config{Threads: threads, ChunkSize: chunk, MiniBatch: mini, HDS: true}
								counted, cm := runClusterSink(t, in.g, pl, nodes, cfg, sinkCount)
								built, bm := runClusterSink(t, in.g, pl, nodes, cfg, sinkBuild)
								run := fmt.Sprintf("%s nodes=%d threads=%d chunk=%d mini=%d", name, nodes, threads, chunk, mini)
								if counted != want || built != want {
									t.Errorf("%s: count-only %d, materializing %d, brute force %d", run, counted, built, want)
								}
								cs, bs := cm.Summarize(), bm.Summarize()
								if bs.KernelProbe != 0 || !probed && cs.KernelProbe != 0 {
									t.Errorf("%s: probe kernels count-only %d, materializing %d on a level with Probe = %v", run, cs.KernelProbe, bs.KernelProbe, probed)
								}
								if !c.induced && cs.KernelMerge+cs.KernelGallop+cs.KernelProbe != bs.KernelMerge+bs.KernelGallop {
									t.Errorf("%s: count-only merge/gallop/probe %d/%d/%d, materializing merge/gallop %d/%d",
										run, cs.KernelMerge, cs.KernelGallop, cs.KernelProbe, bs.KernelMerge, bs.KernelGallop)
								}
								probes += cs.KernelProbe
							}
						}
					}
				}
				if probed && probes == 0 {
					t.Errorf("%s: a probed level never probed", name)
				}
			}
		}
	}
}

// spreadIDs returns g with every vertex from the middle ID on moved up by
// 300,000, past the mark set's 262,144-ID window, and the IDs between left
// isolated: the same pattern counts as g, over a neighborhood that can
// straddle the gap.
func spreadIDs(g *graph.Graph) *graph.Graph {
	const gap = 300000
	n := g.NumVertices()
	id := func(v graph.VertexID) graph.VertexID {
		if int(v) >= n/2 {
			return v + gap
		}
		return v
	}
	b := graph.NewBuilder(n + gap)
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(graph.VertexID(u)) {
			if graph.VertexID(u) < v {
				b.AddEdge(id(graph.VertexID(u)), id(v))
			}
		}
	}
	return b.Build()
}

// TestDifferentialFilterOnce holds the labeled levels that filter their
// siblings' shared set once per parent run (plan.Level.FilterOnce) to the
// executor, which filters per child, and to brute force: every connected
// pattern of at most four vertices, the 5-vertex star and P5, with vertex
// labels by parity and with every vertex but the first labeled 1, on a graph
// labeled from the same two values, so an excluded sibling often carries the
// level's label and must be dropped from the shared set. Each plan runs with
// symmetry breaking on and off, with vertical computation sharing on and off,
// in both styles, and across what splits one parent's children into several
// runs — ChunkSize 8, MiniBatch 1, three workers, four nodes — under a
// count-only and a materializing sink. The engines' label oracle counts its
// calls: a plan with a filtered level must call it fewer times than the same
// plan with its flags cleared, which tests each child's candidates, on the
// same run.
func TestDifferentialFilterOnce(t *testing.T) {
	g0 := hubbedRMAT()
	g, err := g0.WithLabels(graph.RandomLabels(g0.NumVertices(), 2, 20230326))
	if err != nil {
		t.Fatal(err)
	}
	var pats []*pattern.Pattern
	for k := 2; k <= 4; k++ {
		pats = append(pats, pattern.ConnectedPatterns(k)...)
	}
	pats = append(pats, pattern.StarP(5), pattern.PathP(5))
	labelings := []func(v int) graph.Label{
		func(v int) graph.Label { return graph.Label(v % 2) },
		func(v int) graph.Label { return graph.Label(min(v, 1)) },
	}
	var calls atomic.Uint64
	counting := func(v graph.VertexID) graph.Label {
		calls.Add(1)
		return g.Label(v)
	}
	filtered := map[bool]int{} // flagged plans, by symmetry breaking
	for _, base := range pats {
		for li, labeling := range labelings {
			labels := make([]graph.Label, base.NumVertices())
			for v := range labels {
				labels[v] = labeling(v)
			}
			pat := base.WithLabels(labels)
			want := plan.BruteForceCount(g, pat, false)
			for _, st := range []plan.Style{plan.StyleAutomine, plan.StyleGraphPi} {
				for variant := 0; variant < 4; variant++ {
					symmetry, vcs := variant&1 == 0, variant&2 == 0
					pl := plan.MustCompile(pat, plan.Options{Style: st, DisableSymmetryBreak: !symmetry, DisableVCS: !vcs, Stats: plan.StatsOf(g)})
					name := fmt.Sprintf("%v/labels=%d/%v/symmetry=%v/vcs=%v", base, li, st, symmetry, vcs)
					per := uint64(1)
					if !symmetry {
						per = uint64(pl.AutSize)
					}
					if ref := plan.CountGraph(pl, g); ref != want*per {
						t.Errorf("%s: executor %d, brute force %d × %d", name, ref, want, per)
					}
					cleared := *pl
					cleared.Levels = append([]plan.Level(nil), pl.Levels...)
					flagged := false
					for i := range cleared.Levels {
						flagged = flagged || cleared.Levels[i].FilterOnce
						cleared.Levels[i].FilterOnce = false
					}
					if !flagged {
						continue
					}
					filtered[symmetry]++
					for _, nodes := range []int{1, 4} {
						for _, threads := range []int{1, 3} {
							for _, chunk := range []int{8, 0} {
								for _, mini := range []int{1, 0} {
									for _, mode := range []sinkMode{sinkCount, sinkBuild} {
										cfg := core.Config{Threads: threads, ChunkSize: chunk, MiniBatch: mini, HDS: true}
										run := fmt.Sprintf("%s nodes=%d threads=%d chunk=%d mini=%d sink=%d", name, nodes, threads, chunk, mini, mode)
										calls.Store(0)
										got, _ := runClusterLabels(t, g, pl, counting, nodes, cfg, mode)
										once := calls.Swap(0)
										ref, _ := runClusterLabels(t, g, &cleared, counting, nodes, cfg, mode)
										each := calls.Load()
										if got != want*per || ref != want*per {
											t.Errorf("%s: filtered once %d, per child %d, brute force %d × %d", run, got, ref, want, per)
										}
										if once >= each {
											t.Errorf("%s: %d label tests filtering once per run, %d per child", run, once, each)
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if filtered[false] == 0 || filtered[true] == 0 {
		t.Fatalf("%d plans without symmetry breaking and %d with it filtered a level once per run", filtered[false], filtered[true])
	}
}

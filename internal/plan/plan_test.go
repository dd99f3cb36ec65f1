package plan

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
)

func compile(t *testing.T, p *pattern.Pattern, opts Options) *Plan {
	t.Helper()
	pl, err := Compile(p, opts)
	if err != nil {
		t.Fatalf("Compile(%v): %v", p, err)
	}
	return pl
}

func TestCompileRejectsBadPatterns(t *testing.T) {
	disc := pattern.New(4)
	disc.AddEdge(0, 1)
	disc.AddEdge(2, 3)
	if _, err := Compile(disc, Options{}); err == nil {
		t.Fatal("want error for disconnected pattern")
	}
	if _, err := Compile(pattern.New(1), Options{}); err == nil {
		t.Fatal("want error for single-vertex pattern")
	}
}

func TestScheduleSearchUsesCostModel(t *testing.T) {
	// GraphPi's search must never pick a schedule worse than Automine's
	// canonical one under the same cost model.
	g := graph.RMATDefault(100, 500, 823)
	for _, pat := range []*pattern.Pattern{
		pattern.House(), pattern.TailedTriangle(), pattern.CycleP(5), pattern.Diamond(),
	} {
		gp := compile(t, pat, Options{Style: StyleGraphPi, Stats: StatsOf(g)})
		am := compile(t, pat, Options{Style: StyleAutomine, Stats: StatsOf(g)})
		if gp.EstCost > am.EstCost {
			t.Errorf("%v: GraphPi schedule cost %.1f worse than Automine's %.1f",
				pat, gp.EstCost, am.EstCost)
		}
	}
}

func TestTriangleCountKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want uint64
	}{
		{"K4", graph.Complete(4), 4},
		{"K5", graph.Complete(5), 10},
		{"C5", graph.Cycle(5), 0},
		{"star", graph.Star(10), 0},
		{"grid", graph.Grid(3, 3), 0},
	}
	for _, style := range []Style{StyleAutomine, StyleGraphPi} {
		pl := MustCompile(pattern.Triangle(), Options{Style: style})
		for _, c := range cases {
			if got := CountGraph(pl, c.g); got != c.want {
				t.Errorf("%v/%s: triangles = %d, want %d", style, c.name, got, c.want)
			}
		}
	}
}

func TestCliqueCountsComplete(t *testing.T) {
	// #k-cliques of K_n = C(n,k).
	binom := func(n, k int) uint64 {
		r := uint64(1)
		for i := 0; i < k; i++ {
			r = r * uint64(n-i) / uint64(i+1)
		}
		return r
	}
	g := graph.Complete(8)
	for k := 2; k <= 5; k++ {
		pl := MustCompile(pattern.Clique(k), Options{Style: StyleGraphPi})
		if got, want := CountGraph(pl, g), binom(8, k); got != want {
			t.Errorf("%d-cliques of K8 = %d, want %d", k, got, want)
		}
	}
}

func TestCycleAndPathCounts(t *testing.T) {
	// C_n contains exactly one n-cycle and n paths of each length < n.
	g := graph.Cycle(7)
	pl := MustCompile(pattern.CycleP(7), Options{Style: StyleGraphPi})
	if got := CountGraph(pl, g); got != 1 {
		t.Errorf("7-cycles in C7 = %d, want 1", got)
	}
	pl = MustCompile(pattern.PathP(4), Options{Style: StyleAutomine})
	if got := CountGraph(pl, g); got != 7 {
		t.Errorf("P4s in C7 = %d, want 7", got)
	}
}

func TestInducedVsNonInduced(t *testing.T) {
	// K4 contains 3 non-induced 4-cycles but 0 induced ones.
	g := graph.Complete(4)
	ni := MustCompile(pattern.CycleP(4), Options{Style: StyleGraphPi})
	if got := CountGraph(ni, g); got != 3 {
		t.Errorf("non-induced C4 in K4 = %d, want 3", got)
	}
	in := MustCompile(pattern.CycleP(4), Options{Style: StyleGraphPi, Induced: true})
	if got := CountGraph(in, g); got != 0 {
		t.Errorf("induced C4 in K4 = %d, want 0", got)
	}
	// C4 contains exactly one induced 4-cycle.
	if got := CountGraph(in, graph.Cycle(4)); got != 1 {
		t.Errorf("induced C4 in C4 = %d, want 1", got)
	}
}

func TestLabeledMatching(t *testing.T) {
	// Path a-b-a in a labeled triangle: labels (1,2,1).
	g0 := graph.Complete(3)
	g, err := g0.WithLabels([]graph.Label{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	pat := pattern.PathP(3).WithLabels([]graph.Label{1, 2, 1})
	pl := MustCompile(pat, Options{Style: StyleGraphPi})
	if got := CountGraph(pl, g); got != 1 {
		t.Errorf("labeled wedge count = %d, want 1", got)
	}
	want := BruteForceCount(g, pat, false)
	if got := CountGraph(pl, g); got != want {
		t.Errorf("labeled count %d != brute force %d", got, want)
	}
}

func TestAllStylesMatchBruteForce(t *testing.T) {
	pats := map[string]*pattern.Pattern{
		"triangle":        pattern.Triangle(),
		"4-clique":        pattern.Clique(4),
		"4-cycle":         pattern.CycleP(4),
		"4-path":          pattern.PathP(4),
		"4-star":          pattern.StarP(4),
		"tailed-triangle": pattern.TailedTriangle(),
		"diamond":         pattern.Diamond(),
		"house":           pattern.House(),
		"5-clique":        pattern.Clique(5),
	}
	graphs := map[string]*graph.Graph{
		"rmat":    graph.RMATDefault(60, 240, 3),
		"uniform": graph.Uniform(50, 180, 4),
		"grid":    graph.Grid(5, 5),
		"k7":      graph.Complete(7),
	}
	for pname, pat := range pats {
		for gname, g := range graphs {
			for _, induced := range []bool{false, true} {
				want := BruteForceCount(g, pat, induced)
				for _, style := range []Style{StyleAutomine, StyleGraphPi} {
					pl := MustCompile(pat, Options{Style: style, Induced: induced, Stats: StatsOf(g)})
					if got := CountGraph(pl, g); got != want {
						t.Errorf("%s on %s (induced=%v, %v): got %d, want %d\nplan: %v",
							pname, gname, induced, style, got, want, pl)
					}
				}
			}
		}
	}
}

func TestSymmetryBreakMatchesAutDivision(t *testing.T) {
	// Counting with restrictions must equal unrestricted count / |Aut|.
	g := graph.RMATDefault(50, 200, 9)
	for _, pat := range []*pattern.Pattern{
		pattern.Triangle(), pattern.CycleP(4), pattern.PathP(4),
		pattern.StarP(4), pattern.Diamond(),
	} {
		restricted := MustCompile(pat, Options{Style: StyleGraphPi})
		unrestricted := MustCompile(pat, Options{Style: StyleGraphPi, DisableSymmetryBreak: true})
		r := CountGraph(restricted, g)
		u := CountGraph(unrestricted, g)
		if u != r*uint64(restricted.AutSize) {
			t.Errorf("%v: restricted %d × aut %d != unrestricted %d",
				pat, r, restricted.AutSize, u)
		}
	}
}

func TestVCSDoesNotChangeCounts(t *testing.T) {
	g := graph.RMATDefault(70, 350, 21)
	for _, pat := range []*pattern.Pattern{
		pattern.Clique(4), pattern.Clique(5), pattern.House(), pattern.CycleP(5),
	} {
		on := MustCompile(pat, Options{Style: StyleGraphPi})
		off := MustCompile(pat, Options{Style: StyleGraphPi, DisableVCS: true})
		if a, b := CountGraph(on, g), CountGraph(off, g); a != b {
			t.Errorf("%v: VCS on %d != off %d", pat, a, b)
		}
	}
}

func TestVCSAnnotationsOnCliques(t *testing.T) {
	// Clique levels intersect all prior positions, so every level ≥2 must be
	// annotated ReuseExtend (the paper's Figure 9 example).
	pl := MustCompile(pattern.Clique(5), Options{Style: StyleGraphPi})
	for i := 2; i < pl.K; i++ {
		if pl.levels[i].reuse != reuseExtend {
			t.Errorf("clique level %d not ReuseExtend: %v", i, pl)
		}
		if !pl.levels[i-1].storeInter {
			t.Errorf("clique level %d should StoreInter", i-1)
		}
	}
}

// TestClipStoreFlag pins where a stored intersection is clipped before the
// store. Every level below a clique's stores carries the bounds above it, so
// K4 clips at levels 1 and 2 and the triangle at level 1, in either
// direction. The parity-labeled K5 of the differential sweep keeps R1 and R2
// whole: level 3 derives from R2, which derives from R1, and carries no
// bounds, so derive never sets the flag there.
func TestClipStoreFlag(t *testing.T) {
	down := GraphStats{NumVertices: 56, AvgDegree: 10, UpSq: 1}
	for _, c := range []struct {
		name string
		pl   *Plan
		clip []bool
	}{
		{"K4", MustCompile(pattern.Clique(4), Options{Style: StyleGraphPi}), []bool{false, true, true, false}},
		{"K4/descending", MustCompile(pattern.Clique(4), Options{Style: StyleGraphPi, Stats: down}), []bool{false, true, true, false}},
		{"triangle", MustCompile(pattern.Triangle(), Options{Style: StyleAutomine}), []bool{false, true, false}},
		{"triangle/descending", MustCompile(pattern.Triangle(), Options{Style: StyleAutomine, Stats: down}), []bool{false, true, false}},
		{"K4/no-vcs", MustCompile(pattern.Clique(4), Options{Style: StyleGraphPi, DisableVCS: true}), []bool{false, false, false, false}},
	} {
		for i, want := range c.clip {
			if got := c.pl.levels[i].clipStore; got != want {
				t.Errorf("%s: level %d ClipStore = %v, want %v: %v", c.name, i, got, want, c.pl)
			}
		}
	}

	parity := pattern.Clique(5).WithLabels([]graph.Label{0, 1, 0, 1, 0})
	pl := MustCompile(parity, Options{Style: StyleGraphPi, Stats: down})
	if !pl.descending || !pl.levels[1].storeInter || len(pl.levels[1].bounds) == 0 || len(pl.levels[3].bounds) != 0 {
		t.Fatalf("parity-labeled K5 no longer has the shape this test pins: %v", pl)
	}
	for i, lv := range pl.levels {
		if lv.clipStore {
			t.Errorf("parity-labeled K5: level %d clips its store: %v", i, pl)
		}
	}
	if s := pl.Explain(); !strings.Contains(s, "v1 < v0, clip after store ub=[0], store R1") {
		t.Errorf("Explain of the parity-labeled K5 does not clip R1 after the store:\n%s", s)
	}

	// Distinctness reads exclude alone, so it names every position the level
	// does not intersect (TestReuseFollowsIntersect checks it on every plan).
	star := MustCompile(pattern.StarP(4), Options{Style: StyleAutomine})
	if got := star.levels[3].exclude; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("3-star leaf level excludes %v, want [1 2]", got)
	}
}

// TestNeedsListMarksReadPositions: a position's edge list is carried exactly
// when a deeper level reads it — intersects it, or in induced mode subtracts
// it, or, in a dense plan, reads the rows built from level 1's lists — so the
// last level never carries one.
func TestNeedsListMarksReadPositions(t *testing.T) {
	for _, pat := range []*pattern.Pattern{
		pattern.Clique(5), pattern.House(), pattern.CycleP(5), pattern.StarP(5),
	} {
		for _, induced := range []bool{false, true} {
			pl := MustCompile(pat, Options{Style: StyleAutomine, Induced: induced})
			for i := 0; i < pl.K; i++ {
				read := false
				for m := i + 1; m < pl.K; m++ {
					lv := &pl.levels[m]
					read = read || slices.Contains(lv.intersect, i) || induced && slices.Contains(lv.exclude, i)
				}
				read = read || i == 1 && pl.dense
				if pl.levels[i].needsList != read {
					t.Errorf("%v induced=%v: level %d NeedsList = %v, read by a deeper level = %v",
						pat, induced, i, pl.levels[i].needsList, read)
				}
			}
			if pl.levels[pl.K-1].needsList {
				t.Errorf("%v induced=%v: last level claims NeedsList", pat, induced)
			}
		}
	}
}

func TestGraphPiOrderBeatsOrEqualsAutomine(t *testing.T) {
	stats := GraphStats{NumVertices: 1 << 20, AvgDegree: 32}
	for _, pat := range []*pattern.Pattern{
		pattern.House(), pattern.TailedTriangle(), pattern.CycleP(5),
	} {
		gp := MustCompile(pat, Options{Style: StyleGraphPi, Stats: stats})
		am := MustCompile(pat, Options{Style: StyleAutomine, Stats: stats})
		if gp.EstCost > am.EstCost {
			t.Errorf("%v: GraphPi cost %.1f worse than Automine %.1f",
				pat, gp.EstCost, am.EstCost)
		}
	}
}

// TestGraphPiCliqueCompileBounded: GraphPi's order search visits one order
// per automorphism class, so a clique, whose every order is one class,
// compiles in a single plan build instead of k! of them.
func TestGraphPiCliqueCompileBounded(t *testing.T) {
	for _, k := range []int{7, 8} {
		start := time.Now()
		p := compile(t, pattern.Clique(k), Options{Style: StyleGraphPi})
		if d := time.Since(start); d > time.Second {
			t.Errorf("K%d: GraphPi compile took %v, want under 1s", k, d)
		}
		// The lexicographically first order survives the pruning.
		for i, v := range p.order {
			if v != i {
				t.Errorf("K%d: order %v, want the identity", k, p.order)
				break
			}
		}
	}
}

func TestVisitRootEmitsValidEmbeddings(t *testing.T) {
	g := graph.RMATDefault(40, 160, 8)
	pat := pattern.TailedTriangle()
	pl := MustCompile(pat, Options{Style: StyleGraphPi})
	e := NewExecutor(pl, g.Neighbors, nil)
	count := uint64(0)
	for v := 0; v < g.NumVertices(); v++ {
		e.VisitRoot(graph.VertexID(v), func(emb []graph.VertexID) {
			count++
			// Verify the embedding is a genuine match of the reordered pattern.
			q := pat.Relabel(pl.order)
			for a := 0; a < pl.K; a++ {
				for b := a + 1; b < pl.K; b++ {
					if q.HasEdge(a, b) && !g.HasEdge(emb[a], emb[b]) {
						t.Fatalf("emitted non-embedding %v", emb)
					}
					if emb[a] == emb[b] {
						t.Fatalf("emitted non-injective embedding %v", emb)
					}
				}
			}
		})
	}
	if want := CountGraph(pl, g); count != want {
		t.Fatalf("VisitRoot emitted %d, CountGraph says %d", count, want)
	}
}

func TestPropertyEnginesAgreeOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		g := graph.Uniform(n, uint64(rng.Intn(4*n)), rng.Int63())
		pats := []*pattern.Pattern{pattern.Triangle(), pattern.CycleP(4), pattern.Clique(4)}
		pat := pats[rng.Intn(len(pats))]
		induced := rng.Intn(2) == 0
		want := BruteForceCount(g, pat, induced)
		am := MustCompile(pat, Options{Style: StyleAutomine, Induced: induced})
		gp := MustCompile(pat, Options{Style: StyleGraphPi, Induced: induced})
		return CountGraph(am, g) == want && CountGraph(gp, g) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanStringAndConstruction: a plan is built from a permutation of the
// pattern's vertices whose every prefix is connected, and the constructor
// rejects any other order. Annotations follow from the matching alone: the
// 3-star's leaves reuse R1 with vertical computation sharing on, and without
// it no level reuses or stores.
func TestPlanStringAndConstruction(t *testing.T) {
	pl := MustCompile(pattern.Diamond(), Options{Style: StyleGraphPi})
	if pl.String() == "" {
		t.Fatal("empty plan string")
	}
	for _, order := range [][]int{{0, 0, 1, 2}, {0, 1, 2}, {0, 1, 2, 4}, {0, 1, 2, 3, 0}} {
		if _, err := BuildForOrder(pattern.Diamond(), order, Options{}, false); err == nil {
			t.Errorf("order %v accepted for the diamond", order)
		}
	}
	if _, err := BuildForOrder(pattern.PathP(4), []int{0, 2, 1, 3}, Options{}, false); err == nil {
		t.Error("P4 order [0 2 1 3], whose prefix {0, 2} is disconnected, accepted")
	}
	if p, err := BuildForOrder(pattern.PathP(4), []int{1, 2, 0, 3}, Options{}, false); err != nil || p.levels[3].intersect[0] != 1 {
		t.Errorf("P4 order [1 2 0 3]: %v, %v", p, err)
	}
	// The tailed triangle in order [1 3 0 2] runs dense, though no level
	// intersects position 1: its rows are built from level 1's lists, so
	// level 1 carries them.
	tailed := pattern.FromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 3}})
	if p, err := BuildForOrder(tailed, []int{1, 3, 0, 2}, Options{}, true); err != nil || !p.dense || !p.levels[1].needsList {
		t.Errorf("tailed triangle in order [1 3 0 2]: %v, %v", p, err)
	}
	star := MustCompile(pattern.StarP(4), Options{Style: StyleAutomine})
	if star.levels[2].reuse != reuseSame || !star.levels[1].storeInter {
		t.Fatalf("3-star level 2 does not reuse R1: %v", star)
	}
	off := MustCompile(pattern.StarP(4), Options{Style: StyleAutomine, DisableVCS: true})
	for i, lv := range off.levels {
		if lv.reuse != reuseNone || lv.storeInter || lv.clipStore {
			t.Errorf("3-star without VCS: level %d reuses or stores: %v", i, off)
		}
	}
}

// TestDenseMarksCliqueSuffixes pins where the compiler marks a dense suffix:
// every clique K ≥ 4 in both styles and directions, and none of the diamond,
// the tailed triangle, the house and the triangle, nor any labeled,
// edge-labeled, induced, VCS-off, folding or multiplied plan of a connected
// k ≤ 5 pattern — the plans TC, 3-MC and FSM run among them — and Explain
// prints the dense suffix exactly where it is marked. The diamond folds, and
// stores R1 whole besides, so its levels are not all inside S. The
// direction is one bit of the plan: the sweep compiles each plan against
// mirrored stats, up- and down-skewed, and the two may differ only in
// Descending and the skew sums.
func TestDenseMarksCliqueSuffixes(t *testing.T) {
	up := GraphStats{NumVertices: 56, AvgDegree: 10, DownSq: 1}
	down := GraphStats{NumVertices: 56, AvgDegree: 10, UpSq: 1}
	styles := []Style{StyleAutomine, StyleGraphPi}
	for _, st := range styles {
		for _, stats := range []GraphStats{{}, down} {
			for k := 4; k <= 6; k++ {
				if pl := MustCompile(pattern.Clique(k), Options{Style: st, Stats: stats}); !pl.dense || !strings.Contains(pl.String(), " dense ") {
					t.Errorf("K%d not dense: %v", k, pl)
				}
			}
			for _, pat := range []*pattern.Pattern{pattern.Diamond(), pattern.TailedTriangle(), pattern.House(), pattern.Triangle()} {
				if pl := MustCompile(pat, Options{Style: st, Stats: stats}); pl.dense || strings.Contains(pl.String(), "dense") {
					t.Errorf("%v marked dense: %v", pat, pl)
				}
			}
		}
		for k := 2; k <= 5; k++ {
			for _, base := range pattern.ConnectedPatterns(k) {
				labels := make([]graph.Label, k)
				for v := range labels {
					labels[v] = graph.Label(v % 2)
				}
				elab := base.Clone()
				for u := 0; u < k; u++ {
					for _, v := range elab.Neighbors(u) {
						if u < v {
							elab.SetEdgeLabel(u, v, graph.Label((u+v)%2))
						}
					}
				}
				for _, c := range []struct {
					name string
					pat  *pattern.Pattern
					opts Options
				}{
					{"labeled", base.WithLabels(labels), Options{Style: st}},
					{"edge-labeled", elab, Options{Style: st}},
					{"induced", base, Options{Style: st, Induced: true}},
					{"induced/no-vcs", base, Options{Style: st, Induced: true, DisableVCS: true}},
					{"no-vcs", base, Options{Style: st, DisableVCS: true}},
					{"bare", base, Options{Style: st}},
				} {
					var mirror [2]*Plan
					for d, stats := range []GraphStats{up, down} {
						opts := c.opts
						opts.Stats = stats
						pl := MustCompile(c.pat, opts)
						if pl.dense && (c.name != "bare" || pl.fold > 0 || pl.multiply) {
							t.Errorf("%s %v marked dense: %v", c.name, c.pat, pl)
						}
						if strings.Contains(pl.Explain(), "dense suffix") != pl.dense {
							t.Errorf("%s %v: Dense = %v but Explain says otherwise:\n%s", c.name, c.pat, pl.dense, pl.Explain())
						}
						checkFilterOnce(t, c.name, pl)
						mirror[d] = pl
					}
					asc, desc := *mirror[0], *mirror[1]
					bounded := false
					for _, lv := range desc.levels {
						bounded = bounded || len(lv.bounds) > 0
					}
					if asc.descending || desc.descending != bounded {
						t.Errorf("%s %v: Descending = %v up-skewed, %v down-skewed with bounds %v", c.name, c.pat, asc.descending, desc.descending, bounded)
					}
					desc.descending, desc.UpSq, desc.DownSq = asc.descending, asc.UpSq, asc.DownSq
					if !reflect.DeepEqual(asc, desc) {
						t.Errorf("%s %v: mirrored stats compile different plans:\n%v\n%v", c.name, c.pat, mirror[0], mirror[1])
					}
				}
			}
		}
	}
}

// checkFilterOnce holds a compiled plan's FilterOnce flags to the rule,
// restated here from the matching: a level ≥ 2 of a vertex-labeled,
// non-induced, edge-unlabeled plan with no bound against the vertex its
// siblings differ in, whose raw set is the parent's stored raw (reuseSame) or
// one list fixed above the parent. Its renderings must agree: only a
// vertex-labeled plan names the flag, so an unlabeled plan renders exactly as
// it did before the flag existed.
func checkFilterOnce(t *testing.T, name string, pl *Plan) {
	t.Helper()
	flagged := false
	for i, lv := range pl.levels {
		rule := i >= 2 && pl.Labeled() && !pl.induced && !pl.edgeLabeled && !slices.Contains(lv.bounds, i-1) &&
			(lv.reuse == reuseSame || len(lv.intersect) == 1 && lv.intersect[0] <= i-2)
		if lv.filterOnce != rule {
			t.Errorf("%s %v: level %d FilterOnce = %v", name, pl.Pattern, i, lv.filterOnce)
		}
		flagged = flagged || lv.filterOnce
	}
	if flagged && !pl.Labeled() {
		t.Errorf("%s %v: an unlabeled plan filters once: %v", name, pl.Pattern, pl)
	}
	if strings.Contains(pl.String(), "filter") != flagged || strings.Contains(pl.Explain(), "filter") != flagged {
		t.Errorf("%s %v: FilterOnce on some level = %v but String or Explain says otherwise:\n%v\n%s", name, pl.Pattern, flagged, pl, pl.Explain())
	}
}

// TestFilterOnceMarksSharedSets pins which levels the compiler marks
// FilterOnce: a level ≥ 2 of a vertex-labeled, non-induced, edge-unlabeled
// plan whose raw set and bounds all children of one parent share — the
// parent's stored raw under reuseSame (the labeled star's leaves as frequent
// subgraph mining compiles them, without symmetry breaking), or a single
// intersect list at position ≤ level−2 (Automine's P4, N(v1) at level 3) —
// and nowhere else: not level 1, a level bounded by the vertex siblings
// differ in (the star's leaves under symmetry breaking), a single list at
// level−1 (GraphPi's P4, N(v2) at level 3), an induced or edge-labeled plan,
// a two-list level without vertical computation sharing, or an unlabeled
// plan; derive never sets the flag on any of those. String and Explain name
// the flag and the set. A leaf whose excluded siblings carry its label drops
// them from the set it filters once, as it does per child.
func TestFilterOnceMarksSharedSets(t *testing.T) {
	star := pattern.StarP(4).WithLabels([]graph.Label{0, 1, 1, 1})
	path := pattern.PathP(4).WithLabels([]graph.Label{0, 1, 0, 1})
	diamond := pattern.Diamond().WithLabels([]graph.Label{0, 1, 0, 1})
	both := star.Clone()
	for _, v := range both.Neighbors(0) {
		both.SetEdgeLabel(0, v, 1)
	}
	for _, c := range []struct {
		name    string
		pl      *Plan
		flagged []int
		explain []string
	}{
		{"labeled star", MustCompile(star, Options{Style: StyleAutomine, DisableSymmetryBreak: true}), []int{2, 3},
			[]string{"filter R1 by label 1 once per run", "filter R2 by label 1 once per run"}},
		{"labeled star, no VCS", MustCompile(star, Options{Style: StyleAutomine, DisableSymmetryBreak: true, DisableVCS: true}), []int{2, 3},
			[]string{"filter N(v0) by label 1 once per run"}},
		{"labeled star, symmetry breaking", MustCompile(star, Options{Style: StyleAutomine}), nil, nil},
		{"Automine P4", MustCompile(path, Options{Style: StyleAutomine}), []int{2, 3},
			[]string{"filter R1 by label 0 once per run", "filter N(v1) by label 1 once per run"}},
		{"GraphPi P4", MustCompile(path, Options{Style: StyleGraphPi}), []int{2}, []string{"filter R1 by label 0 once per run"}},
		{"labeled diamond", MustCompile(diamond, Options{Style: StyleGraphPi}), []int{3}, []string{"filter R2 by label 1 once per run"}},
		{"labeled diamond, no VCS", MustCompile(diamond, Options{Style: StyleGraphPi, DisableVCS: true}), nil, nil},
		{"induced labeled star", MustCompile(star, Options{Style: StyleAutomine, Induced: true, DisableSymmetryBreak: true}), nil, nil},
		{"edge- and vertex-labeled star", MustCompile(both, Options{Style: StyleAutomine, DisableSymmetryBreak: true}), nil, nil},
		{"unlabeled star", MustCompile(pattern.StarP(4), Options{Style: StyleAutomine, DisableSymmetryBreak: true}), nil, nil},
	} {
		for i, lv := range c.pl.levels {
			if lv.filterOnce != slices.Contains(c.flagged, i) {
				t.Errorf("%s: level %d FilterOnce = %v: %v", c.name, i, lv.filterOnce, c.pl)
			}
		}
		checkFilterOnce(t, c.name, c.pl)
		if got := strings.Count(c.pl.String(), " filter-once"); got != len(c.flagged) {
			t.Errorf("%s: String names the flag %d times, want %d: %v", c.name, got, len(c.flagged), c.pl)
		}
		ex := c.pl.Explain()
		for _, want := range c.explain {
			if !strings.Contains(ex, want) {
				t.Errorf("%s: Explain does not say %q:\n%s", c.name, want, ex)
			}
		}
	}
	if pl := MustCompile(path, Options{Style: StyleGraphPi}); !reflect.DeepEqual(pl.levels[3].intersect, []int{2}) {
		t.Fatalf("GraphPi P4's level 3 does not read N(v2): %v", pl)
	}

	for _, c := range []struct {
		name string
		pl   *Plan
		lv   int
	}{
		{"labeled star level 1", MustCompile(star, Options{Style: StyleAutomine, DisableSymmetryBreak: true}), 1},
		{"labeled star level 3 bounded by v2", MustCompile(star, Options{Style: StyleAutomine}), 3},
		{"GraphPi P4 level 3 (N(v2))", MustCompile(path, Options{Style: StyleGraphPi}), 3},
		{"induced labeled star level 2", MustCompile(star, Options{Style: StyleAutomine, Induced: true, DisableSymmetryBreak: true}), 2},
		{"edge- and vertex-labeled star level 2", MustCompile(both, Options{Style: StyleAutomine, DisableSymmetryBreak: true}), 2},
		{"two-list level 3 of the labeled diamond without VCS", MustCompile(diamond, Options{Style: StyleGraphPi, DisableVCS: true}), 3},
		{"unlabeled star level 2", MustCompile(pattern.StarP(4), Options{Style: StyleAutomine, DisableSymmetryBreak: true}), 2},
	} {
		if c.pl.levels[c.lv].filterOnce {
			t.Errorf("derive set FilterOnce on the %s: %v", c.name, c.pl)
		}
	}

	leaf := MustCompile(star, Options{Style: StyleAutomine, DisableSymmetryBreak: true})
	if !leaf.levels[3].filterOnce || !slices.Equal(leaf.levels[3].exclude, []int{1, 2}) {
		t.Fatalf("labeled star's level 3 does not filter once or exclude [1 2]: %v", leaf)
	}
	leaves := []graph.VertexID{1, 2, 3, 4, 5}
	getList := func(int) []graph.VertexID { return leaves }
	labelOf := func(v graph.VertexID) graph.Label { return min(graph.Label(v), 1) }
	emb := []graph.VertexID{0, 1, 2}
	perChild, _ := leaf.Extend(NewScratch(leaf), 3, emb, getList, leaves, labelOf, nil)
	once := NewScratch(leaf)
	once.LendRuns(&RunStorage{})
	filtered, _ := leaf.Extend(once, 3, emb, getList, leaves, labelOf, nil)
	want := []graph.VertexID{3, 4, 5}
	if !slices.Equal(perChild, want) || !slices.Equal(filtered, want) {
		t.Errorf("labeled star's leaf: per child %v, filtered once %v, want %v", perChild, filtered, want)
	}
}

// TestProbeMarksSharedOperands pins which levels the compiler marks Probe:
// the level a count-only run ends at, at depth ≥ 2, where its last set
// operation has an operand all children of one parent share — the parent's
// stored raw extended (triangle, the diamond's fold level, the tailed
// triangle's level 2, which multiplies), the parent's raw minus one list
// (induced wedge), or a list at intersect[0] ≤ level−2 (triangle without
// VCS) — and nowhere else: not on a dense plan, one folded at level 1, a
// labeled one, a level past the one a run ends at, or a last level that
// intersects three lists or both intersects and subtracts. derive never sets
// the flag on the levels of the second table, and Explain names what a probed
// level marks.
func TestProbeMarksSharedOperands(t *testing.T) {
	labeled := pattern.Triangle().WithLabels([]graph.Label{0, 1, 0})
	for _, c := range []struct {
		name  string
		pl    *Plan
		probe int // the probed level, -1 for none
		mark  string
	}{
		{"triangle", MustCompile(pattern.Triangle(), Options{Style: StyleAutomine}), 2, "probe marked R1"},
		{"triangle/no-vcs", MustCompile(pattern.Triangle(), Options{Style: StyleAutomine, DisableVCS: true}), 2, "probe marked N(v0)"},
		{"induced wedge", MustCompile(pattern.PathP(3), Options{Style: StyleAutomine, Induced: true}), 2, "probe marked R1"},
		{"induced wedge/no-vcs", MustCompile(pattern.PathP(3), Options{Style: StyleAutomine, Induced: true, DisableVCS: true}), -1, ""},
		{"wedge (folds)", MustCompile(pattern.PathP(3), Options{Style: StyleAutomine}), -1, ""},
		{"K4 (dense)", MustCompile(pattern.Clique(4), Options{Style: StyleGraphPi}), -1, ""},
		{"K4/no-vcs (three lists)", MustCompile(pattern.Clique(4), Options{Style: StyleGraphPi, DisableVCS: true}), -1, ""},
		{"labeled triangle", MustCompile(labeled, Options{Style: StyleAutomine}), -1, ""},
		{"induced 4-cycle (intersect and subtract)", MustCompile(pattern.CycleP(4), Options{Style: StyleGraphPi, Induced: true}), -1, ""},
		{"diamond (folds at level 2)", MustCompile(pattern.Diamond(), Options{Style: StyleGraphPi}), 2, "probe marked R1"},
		{"tailed triangle (multiplies at level 2)", MustCompile(pattern.TailedTriangle(), Options{Style: StyleAutomine}), 2, "probe marked R1"},
	} {
		for i, lv := range c.pl.levels {
			if lv.probe != (i == c.probe) {
				t.Errorf("%s: level %d Probe = %v: %v", c.name, i, lv.probe, c.pl)
			}
		}
		if ex := c.pl.Explain(); strings.Contains(ex, "probe marked") != (c.probe > 0) || !strings.Contains(ex, c.mark) {
			t.Errorf("%s: Explain does not say %q:\n%s", c.name, c.mark, ex)
		}
		if strings.Contains(c.pl.String(), " probe") != (c.probe > 0) {
			t.Errorf("%s: String disagrees with Probe: %v", c.name, c.pl)
		}
	}

	for _, c := range []struct {
		name string
		pl   *Plan
		lv   int
	}{
		{"triangle level 1", MustCompile(pattern.Triangle(), Options{Style: StyleAutomine}), 1},
		{"K4 last level (dense)", MustCompile(pattern.Clique(4), Options{Style: StyleGraphPi}), 3},
		{"folded wedge's last level", MustCompile(pattern.PathP(3), Options{Style: StyleAutomine}), 2},
		{"induced wedge without VCS", MustCompile(pattern.PathP(3), Options{Style: StyleAutomine, Induced: true, DisableVCS: true}), 2},
		{"multiplied tailed triangle's last level", MustCompile(pattern.TailedTriangle(), Options{Style: StyleAutomine}), 3},
	} {
		if c.pl.levels[c.lv].probe {
			t.Errorf("derive set Probe on the %s: %v", c.name, c.pl)
		}
	}
}

// sweepPlans compiles the 960-plan sweep — every connected pattern of two to
// five vertices, unlabeled and labeled by vertex parity, in both styles,
// induced or not, with vertical computation sharing on and off, and with no
// input statistics or down-skewed ones (descending bounds) — and hands each
// plan to check.
func sweepPlans(t *testing.T, check func(name string, pl *Plan)) {
	t.Helper()
	down := GraphStats{NumVertices: 56, AvgDegree: 10, UpSq: 1}
	n := 0
	for k := 2; k <= 5; k++ {
		for _, base := range pattern.ConnectedPatterns(k) {
			labels := make([]graph.Label, k)
			for v := range labels {
				labels[v] = graph.Label(v % 2)
			}
			for _, pat := range []*pattern.Pattern{base, base.WithLabels(labels)} {
				for _, st := range []Style{StyleAutomine, StyleGraphPi} {
					for variant := 0; variant < 8; variant++ {
						induced, vcs, skewed := variant&1 != 0, variant&2 == 0, variant&4 != 0
						opts := Options{Style: st, Induced: induced, DisableVCS: !vcs}
						if skewed {
							opts.Stats = down
						}
						check(fmt.Sprintf("%v/%v/induced=%v/vcs=%v/skewed=%v", pat, st, induced, vcs, skewed), MustCompile(pat, opts))
						n++
					}
				}
			}
		}
	}
	if n != 960 {
		t.Fatalf("swept %d plans, want 960", n)
	}
}

// TestReuseFollowsIntersect holds the reuse pair to its rule on every plan of
// the sweep, at every level i ≥ 2: reuseSame exactly when vertical computation
// sharing is on and intersect equals the parent's, reuseExtend exactly when
// it is on and intersect is the parent's plus i−1, and storeInter on the
// parent exactly when the child reuses. The engine trusts these with no
// fallback — a level marked reuseExtend whose intersect is the parent's
// counts wrong — so no plan may break the rule. Level 1 never reuses and the
// last level never stores; exclude names exactly the earlier positions the
// level does not intersect.
func TestReuseFollowsIntersect(t *testing.T) {
	sweepPlans(t, func(name string, pl *Plan) {
		if pl.levels[1].reuse != reuseNone || pl.levels[pl.K-1].storeInter {
			t.Errorf("%s: level 1 reuses or the last level stores: %v", name, pl)
		}
		for i := 1; i < pl.K; i++ {
			lv := &pl.levels[i]
			var complement []int
			for j := 0; j < i; j++ {
				if !slices.Contains(lv.intersect, j) {
					complement = append(complement, j)
				}
			}
			if !slices.Equal(lv.exclude, complement) {
				t.Errorf("%s: level %d intersects %v and excludes %v", name, i, lv.intersect, lv.exclude)
			}
			if i < 2 {
				continue
			}
			prev := pl.levels[i-1].intersect
			same := pl.vcs && slices.Equal(lv.intersect, prev)
			extend := pl.vcs && slices.Equal(lv.intersect, append(slices.Clone(prev), i-1))
			if (lv.reuse == reuseSame) != same || (lv.reuse == reuseExtend) != extend {
				t.Errorf("%s: level %d intersects %v under a parent intersecting %v, reuse = %d", name, i, lv.intersect, prev, lv.reuse)
			}
			if pl.levels[i-1].storeInter != (lv.reuse != reuseNone) {
				t.Errorf("%s: level %d stores = %v, its child's reuse = %d", name, i-1, pl.levels[i-1].storeInter, lv.reuse)
			}
		}
	})
}

// TestMultiplyFollowsRule holds Multiply to its rule on every plan of the
// sweep, restated from the matching: a non-induced, unlabeled plan that
// neither folds nor runs dense, whose last level reuses nothing, carries no
// bounds, intersects only positions ≤ K−3, and excludes only positions the
// pattern joins to every position it intersects. String names a multiplied
// plan with one token and Explain with one line, and no other plan mentions
// it. Some plan of the sweep is dense where the rest of the rule holds (K4
// with a pendant at v0): the dense suffix is kept there.
func TestMultiplyFollowsRule(t *testing.T) {
	multiplied, denseKept := 0, 0
	sweepPlans(t, func(name string, pl *Plan) {
		last := &pl.levels[pl.K-1]
		rule := !pl.induced && !pl.Labeled() && pl.fold == 0 && last.reuse == reuseNone && len(last.bounds) == 0
		for _, j := range last.intersect {
			rule = rule && j <= pl.K-3
			for _, e := range last.exclude {
				rule = rule && pl.Pattern.HasEdge(pl.order[e], pl.order[j])
			}
		}
		if pl.multiply != (rule && !pl.dense) {
			t.Errorf("%s: Multiply = %v: %v", name, pl.multiply, pl)
		}
		if rule && pl.dense {
			denseKept++
		}
		if strings.Count(pl.String(), " multiply") != strings.Count(pl.Explain(), "multiplied (count-only)") ||
			strings.Contains(pl.String(), " multiply") != pl.multiply {
			t.Errorf("%s: Multiply = %v but String or Explain says otherwise:\n%v\n%s", name, pl.multiply, pl, pl.Explain())
		}
		if pl.multiply {
			multiplied++
		}
	})
	if multiplied == 0 || denseKept == 0 {
		t.Errorf("%d plans of the sweep multiply, %d keep the dense suffix instead; want some of each", multiplied, denseKept)
	}
}

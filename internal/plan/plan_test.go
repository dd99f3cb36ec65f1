package plan

import (
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
		if !pl.Levels[i].ReuseExtend {
			t.Errorf("clique level %d not ReuseExtend: %v", i, pl)
		}
		if !pl.Levels[i-1].StoreInter {
			t.Errorf("clique level %d should StoreInter", i-1)
		}
	}
}

// TestClipStoreFlag pins where a stored intersection is clipped before the
// store. Every level below a clique's stores carries the bounds above it, so
// K4 clips at levels 1 and 2 and the triangle at level 1, in either
// direction. The parity-labeled K5 of the differential sweep keeps R1 and R2
// whole: level 3 derives from R2, which derives from R1, and carries no
// bounds. Validate must reject the flag hand-set there.
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
			if got := c.pl.Levels[i].ClipStore; got != want {
				t.Errorf("%s: level %d ClipStore = %v, want %v: %v", c.name, i, got, want, c.pl)
			}
		}
	}

	parity := pattern.Clique(5).WithLabels([]graph.Label{0, 1, 0, 1, 0})
	pl := MustCompile(parity, Options{Style: StyleGraphPi, Stats: down})
	if !pl.Descending || !pl.Levels[1].StoreInter || len(pl.Levels[1].Bounds) == 0 || len(pl.Levels[3].Bounds) != 0 {
		t.Fatalf("parity-labeled K5 no longer has the shape this test pins: %v", pl)
	}
	for i, lv := range pl.Levels {
		if lv.ClipStore {
			t.Errorf("parity-labeled K5: level %d clips its store: %v", i, pl)
		}
	}
	if s := pl.Explain(); !strings.Contains(s, "v1 < v0, clip after store ub=[0], store R1") {
		t.Errorf("Explain of the parity-labeled K5 does not clip R1 after the store:\n%s", s)
	}
	bad := *pl
	bad.Levels = append([]Level(nil), pl.Levels...)
	bad.Levels[1].ClipStore = true
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted ClipStore on the parity-labeled K5's level 1")
	}

	// Distinctness reads Exclude alone, so it must name every position the
	// level does not intersect.
	star := MustCompile(pattern.StarP(4), Options{Style: StyleAutomine})
	if got := star.Levels[3].Exclude; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("3-star leaf level excludes %v, want [1 2]", got)
	}
	star.Levels[3].Exclude = star.Levels[3].Exclude[:1]
	if err := star.Validate(); err == nil {
		t.Error("Validate accepted a level that excludes only part of what it does not intersect")
	}
}

// TestNeedsListMarksReadPositions: a position's edge list is carried exactly
// when a deeper level reads it — intersects it, or in induced mode subtracts
// it — so the last level never carries one.
func TestNeedsListMarksReadPositions(t *testing.T) {
	for _, pat := range []*pattern.Pattern{
		pattern.Clique(5), pattern.House(), pattern.CycleP(5), pattern.StarP(5),
	} {
		for _, induced := range []bool{false, true} {
			pl := MustCompile(pat, Options{Style: StyleAutomine, Induced: induced})
			for i := 0; i < pl.K; i++ {
				read := false
				for m := i + 1; m < pl.K; m++ {
					lv := &pl.Levels[m]
					read = read || containsInt(lv.Intersect, i) || induced && containsInt(lv.Exclude, i)
				}
				if pl.Levels[i].NeedsList != read {
					t.Errorf("%v induced=%v: level %d NeedsList = %v, read by a deeper level = %v",
						pat, induced, i, pl.Levels[i].NeedsList, read)
				}
			}
			if pl.Levels[pl.K-1].NeedsList {
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
		for i, v := range p.Order {
			if v != i {
				t.Errorf("K%d: order %v, want the identity", k, p.Order)
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
			q := pat.Relabel(pl.Order)
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

func TestPlanStringAndValidate(t *testing.T) {
	pl := MustCompile(pattern.Diamond(), Options{Style: StyleGraphPi})
	if pl.String() == "" {
		t.Fatal("empty plan string")
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the plan and expect Validate to notice.
	bad := *pl
	bad.Order = []int{0, 0, 1, 2}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted non-permutation order")
	}
	// A reuse level reads its parent's stored raw, so reuse and store flags
	// need VCS on, and a reuse level needs a parent that stores.
	star := MustCompile(pattern.StarP(4), Options{Style: StyleAutomine})
	if !star.Levels[2].ReuseSame || !star.Levels[1].StoreInter {
		t.Fatalf("3-star level 2 does not reuse R1: %v", star)
	}
	for name, corrupt := range map[string]func(*Plan){
		"reuse with VCS off":      func(p *Plan) { p.VCS = false },
		"reuse of an unstored R1": func(p *Plan) { p.Levels[1].StoreInter = false },
	} {
		bad := *star
		bad.Levels = append([]Level(nil), star.Levels...)
		corrupt(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %s: %v", name, &bad)
		}
	}
}

// TestDenseMarksCliqueSuffixes pins where the compiler marks a dense suffix:
// every clique K ≥ 4 in both styles and directions, and none of the diamond,
// the tailed triangle, the house and the triangle, nor any labeled,
// edge-labeled, induced, VCS-off or folding plan of a connected k ≤ 5
// pattern — the plans TC, 3-MC and FSM run among them — and Explain prints
// the dense suffix exactly where it is marked. Validate holds a hand-set
// Dense to the compiler's rule. The direction is one bit of the plan: the
// sweep compiles each plan against mirrored stats, up- and down-skewed, and
// the two may differ only in Descending and the skew sums.
func TestDenseMarksCliqueSuffixes(t *testing.T) {
	up := GraphStats{NumVertices: 56, AvgDegree: 10, DownSq: 1}
	down := GraphStats{NumVertices: 56, AvgDegree: 10, UpSq: 1}
	styles := []Style{StyleAutomine, StyleGraphPi}
	for _, st := range styles {
		for _, stats := range []GraphStats{{}, down} {
			for k := 4; k <= 6; k++ {
				if pl := MustCompile(pattern.Clique(k), Options{Style: st, Stats: stats}); !pl.Dense || !strings.Contains(pl.String(), " dense ") {
					t.Errorf("K%d not dense: %v", k, pl)
				}
			}
			for _, pat := range []*pattern.Pattern{pattern.Diamond(), pattern.TailedTriangle(), pattern.House(), pattern.Triangle()} {
				if pl := MustCompile(pat, Options{Style: st, Stats: stats}); pl.Dense || strings.Contains(pl.String(), "dense") {
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
						if pl.Dense && (c.name != "bare" || pl.Fold > 0) {
							t.Errorf("%s %v marked dense: %v", c.name, c.pat, pl)
						}
						if strings.Contains(pl.Explain(), "dense suffix") != pl.Dense {
							t.Errorf("%s %v: Dense = %v but Explain says otherwise:\n%s", c.name, c.pat, pl.Dense, pl.Explain())
						}
						checkFilterOnce(t, c.name, pl)
						mirror[d] = pl
					}
					asc, desc := *mirror[0], *mirror[1]
					bounded := false
					for _, lv := range desc.Levels {
						bounded = bounded || len(lv.Bounds) > 0
					}
					if asc.Descending || desc.Descending != bounded {
						t.Errorf("%s %v: Descending = %v up-skewed, %v down-skewed with bounds %v", c.name, c.pat, asc.Descending, desc.Descending, bounded)
					}
					desc.Descending, desc.UpSq, desc.DownSq = asc.Descending, asc.UpSq, asc.DownSq
					if !reflect.DeepEqual(asc, desc) {
						t.Errorf("%s %v: mirrored stats compile different plans:\n%v\n%v", c.name, c.pat, mirror[0], mirror[1])
					}
				}
			}
		}
	}

	// The diamond's R1 is stored whole, so its levels are not all inside S.
	// A K4 whose last level no longer reuses R2 and drops its bounds keeps a
	// valid clipped R1 — level 3 is off the reuse chain — but reaches
	// outside S.
	bad := MustCompile(pattern.Diamond(), Options{Style: StyleGraphPi})
	bad.Dense = true
	if err := bad.Validate(); err == nil {
		t.Errorf("Validate accepted a dense diamond: %v", bad)
	}
	k4 := MustCompile(pattern.Clique(4), Options{Style: StyleGraphPi})
	k4.Levels = append([]Level(nil), k4.Levels...)
	k4.Levels[2].StoreInter, k4.Levels[2].ClipStore = false, false
	k4.Levels[3].ReuseExtend, k4.Levels[3].Bounds = false, nil
	if err := k4.Validate(); err == nil {
		t.Errorf("Validate accepted a dense K4 whose level 3 leaves R1's bounds: %v", k4)
	}
	k4.Dense = false
	if err := k4.Validate(); err != nil {
		t.Fatalf("the same K4 without Dense: %v", err)
	}
}

// checkFilterOnce holds a compiled plan's FilterOnce flags to the rule, and
// its renderings to them: only a vertex-labeled plan names the flag, so an
// unlabeled plan renders exactly as it did before the flag existed.
func checkFilterOnce(t *testing.T, name string, pl *Plan) {
	t.Helper()
	flagged := false
	for i, lv := range pl.Levels {
		if lv.FilterOnce != (i >= 2 && pl.filterable(i)) {
			t.Errorf("%s %v: level %d FilterOnce = %v", name, pl.Pattern, i, lv.FilterOnce)
		}
		flagged = flagged || lv.FilterOnce
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
// parent's stored raw under ReuseSame (the labeled star's leaves as frequent
// subgraph mining compiles them, without symmetry breaking), or a single
// Intersect list at position ≤ level−2 (Automine's P4, N(v1) at level 3) —
// and nowhere else: not level 1, a level bounded by the vertex siblings
// differ in (the star's leaves under symmetry breaking), a single list at
// level−1 (GraphPi's P4, N(v2) at level 3), an induced or edge-labeled plan,
// a two-list level without vertical computation sharing, or an unlabeled
// plan. Validate rejects a hand-set flag
// on each of those, and String and Explain name the flag and the set. A
// hand-built leaf whose Exclude does not ascend still drops every excluded
// sibling.
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
		for i, lv := range c.pl.Levels {
			if lv.FilterOnce != containsInt(c.flagged, i) {
				t.Errorf("%s: level %d FilterOnce = %v: %v", c.name, i, lv.FilterOnce, c.pl)
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
	if pl := MustCompile(path, Options{Style: StyleGraphPi}); !reflect.DeepEqual(pl.Levels[3].Intersect, []int{2}) {
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
		bad := *c.pl
		bad.Levels = append([]Level(nil), c.pl.Levels...)
		bad.Levels[c.lv].FilterOnce = true
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted FilterOnce on the %s: %v", c.name, &bad)
		}
	}

	// Validate does not hold Exclude to the compiler's ascending order, so a
	// hand-built leaf that excludes v2 before v1 must still drop both.
	base := MustCompile(star, Options{Style: StyleAutomine, DisableSymmetryBreak: true})
	hand := *base
	hand.Levels = append([]Level(nil), base.Levels...)
	hand.Levels[3].Exclude = []int{2, 1}
	if err := hand.Validate(); err != nil || !hand.Levels[3].FilterOnce {
		t.Fatalf("hand-built star with Exclude [2 1]: %v, FilterOnce = %v", err, hand.Levels[3].FilterOnce)
	}
	leaves := []graph.VertexID{1, 2, 3, 4, 5}
	getList := func(int) []graph.VertexID { return leaves }
	labelOf := func(v graph.VertexID) graph.Label { return min(graph.Label(v), 1) }
	emb := []graph.VertexID{0, 1, 2}
	perChild, _ := hand.Extend(NewScratch(&hand), 3, emb, getList, leaves, labelOf, nil)
	once := NewScratch(&hand)
	once.LendRuns(&RunStorage{})
	filtered, _ := hand.Extend(once, 3, emb, getList, leaves, labelOf, nil)
	want := []graph.VertexID{3, 4, 5}
	if !slices.Equal(perChild, want) || !slices.Equal(filtered, want) {
		t.Errorf("hand-built star with Exclude [2 1]: per child %v, filtered once %v, want %v", perChild, filtered, want)
	}
}

// TestProbeMarksSharedOperands pins which levels the compiler marks Probe:
// the level a count-only run ends at, at depth ≥ 2, where its last set
// operation has an operand all children of one parent share — the parent's
// stored raw extended (triangle), the parent's raw minus one list (induced
// wedge), or a list at Intersect[0] ≤ level−2 (triangle without VCS) — and
// nowhere else: not on a dense plan, a folding one, a labeled one, or a last
// level that intersects three lists or both intersects and subtracts. Validate rejects a
// hand-set Probe that fails the rule, and Explain names what it marks.
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
	} {
		for i, lv := range c.pl.Levels {
			if lv.Probe != (i == c.probe) {
				t.Errorf("%s: level %d Probe = %v: %v", c.name, i, lv.Probe, c.pl)
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
		{"diamond level 2", MustCompile(pattern.Diamond(), Options{Style: StyleGraphPi}), 2},
	} {
		bad := *c.pl
		bad.Levels = append([]Level(nil), c.pl.Levels...)
		bad.Levels[c.lv].Probe = true
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted Probe on the %s: %v", c.name, &bad)
		}
	}
}

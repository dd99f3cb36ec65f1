package plan

import (
	"strings"
	"testing"

	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
	"khuzdul/internal/setops"
)

func TestKernelHintPivotOnWideLevels(t *testing.T) {
	// Clique level i intersects all i prior lists, so levels with ≥3 input
	// lists must carry the pivot hint; narrower levels stay auto.
	pl := MustCompile(pattern.Clique(5), Options{Style: StyleGraphPi})
	for i := 1; i < pl.K; i++ {
		want := HintAuto
		if len(pl.Levels[i].Intersect) >= 3 {
			want = HintPivot
		}
		if got := pl.Levels[i].KernelHint; got != want {
			t.Errorf("clique(5) level %d hint = %v, want %v (lists=%d)",
				i, got, want, len(pl.Levels[i].Intersect))
		}
	}
	// A triangle never has a 3-list step.
	tri := MustCompile(pattern.Triangle(), Options{Style: StyleGraphPi})
	for i := 1; i < tri.K; i++ {
		if tri.Levels[i].KernelHint != HintAuto {
			t.Errorf("triangle level %d hinted %v", i, tri.Levels[i].KernelHint)
		}
	}
}

func TestHubThresholdDerivation(t *testing.T) {
	// Low-skew graphs never qualify: a cycle's max degree is 2.
	if got := StatsOf(graph.Cycle(10)).HubThreshold(); got != 0 {
		t.Errorf("cycle threshold = %d, want 0 (bitmap off)", got)
	}
	// A star is the extreme: one hub, everyone else degree 1. The histogram
	// walk stops at the degree-1 bucket and clamps to the minimum.
	star := StatsOf(graph.Star(1000))
	if got := star.HubThreshold(); got != 128 {
		t.Errorf("star threshold = %d, want 128 (clamped minimum)", got)
	}
	// Without a histogram the fallback derives from max degree alone.
	noHist := GraphStats{MaxDegree: 4096}
	if got := noHist.HubThreshold(); got != 512 {
		t.Errorf("fallback threshold = %d, want maxdeg/8 = 512", got)
	}
	if got := (GraphStats{MaxDegree: 100}).HubThreshold(); got != 0 {
		t.Errorf("sub-minimum max degree threshold = %d, want 0", got)
	}
	// Compile wires the derived threshold onto the plan.
	g := graph.Star(1000)
	pl := MustCompile(pattern.Triangle(), Options{Style: StyleGraphPi, Stats: StatsOf(g)})
	if pl.HubThreshold != 128 {
		t.Errorf("compiled plan threshold = %d, want 128", pl.HubThreshold)
	}
	// Default synthesized stats must leave the bitmap kernel off.
	def := MustCompile(pattern.Triangle(), Options{Style: StyleGraphPi})
	if def.HubThreshold != 0 {
		t.Errorf("default-stats threshold = %d, want 0", def.HubThreshold)
	}
}

func TestBitmapKernelMatchesBruteForce(t *testing.T) {
	// Forcing a tiny hub threshold routes every keyed intersection through
	// the bitmap kernel; counts must not change on any pattern or graph.
	graphs := map[string]*graph.Graph{
		"rmat": graph.RMATDefault(80, 400, 11),
		"star": graph.Star(60),
		"k7":   graph.Complete(7),
	}
	pats := []*pattern.Pattern{
		pattern.Triangle(), pattern.Clique(4), pattern.House(), pattern.CycleP(4),
	}
	for gname, g := range graphs {
		for _, pat := range pats {
			want := BruteForceCount(g, pat, false)
			pl := MustCompile(pat, Options{Style: StyleGraphPi, Stats: StatsOf(g)})
			pl.HubThreshold = 1
			if got := CountGraph(pl, g); got != want {
				t.Errorf("%v on %s with forced bitmap: got %d, want %d", pat, gname, got, want)
			}
		}
	}
}

func TestPivotKernelMatchesBruteForce(t *testing.T) {
	// DisableVCS makes clique levels recompute the full k-way intersection,
	// so the compiled pivot hint drives the real counting path.
	g := graph.RMATDefault(70, 350, 5)
	for _, pat := range []*pattern.Pattern{pattern.Clique(4), pattern.Clique(5)} {
		want := BruteForceCount(g, pat, false)
		pl := MustCompile(pat, Options{Style: StyleGraphPi, DisableVCS: true, Stats: StatsOf(g)})
		hinted := false
		for i := 1; i < pl.K; i++ {
			hinted = hinted || pl.Levels[i].KernelHint == HintPivot
		}
		if !hinted {
			t.Fatalf("%v compiled without any pivot hint", pat)
		}
		if got := CountGraph(pl, g); got != want {
			t.Errorf("%v with pivot kernel: got %d, want %d", pat, got, want)
		}
	}
}

func TestScratchKernelCountersAndOverride(t *testing.T) {
	// A wheel: hub 0 (degree ≥ derived threshold 128) plus a rim cycle, so
	// that clipping N(hub) and N(rim vertex) to the restriction interval
	// still leaves a pair for the kernel to intersect.
	const n = 300
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, graph.VertexID(v))
		b.AddEdge(graph.VertexID(v), graph.VertexID(v%(n-1)+1))
	}
	g := b.Build()
	// The compiler would point the restrictions away from a low-ID hub and
	// its list would never be read; hold them ascending. DisableVCS so level
	// 2 recomputes N(v0) ∩ N(v1) with real vertex keys; the VCS path
	// intersects an unkeyed stored intermediate instead, which deliberately
	// never hub-promotes.
	stats := StatsOf(g)
	stats.UpSq, stats.DownSq = 0, 0
	pl := MustCompile(pattern.Triangle(), Options{Style: StyleGraphPi, DisableVCS: true, Stats: stats})
	e := NewExecutor(pl, g.Neighbors, nil)
	for v := 0; v < g.NumVertices(); v++ {
		e.CountRoot(graph.VertexID(v))
	}
	kc := e.Scratch().KernelCounts()
	if kc[setops.KernelBitmap] == 0 {
		t.Errorf("no bitmap invocations on a wheel graph; counts = %v", *kc)
	}
	// SetHubThreshold above the max degree turns the bitmap kernel off
	// without touching the shared plan.
	e2 := NewExecutor(pl, g.Neighbors, nil)
	e2.Scratch().SetHubThreshold(100000)
	for v := 0; v < g.NumVertices(); v++ {
		e2.CountRoot(graph.VertexID(v))
	}
	if kc2 := e2.Scratch().KernelCounts(); kc2[setops.KernelBitmap] != 0 {
		t.Errorf("bitmap fired despite override: counts = %v", *kc2)
	}
	if pl.HubThreshold != 128 {
		t.Errorf("override mutated the shared plan: %d", pl.HubThreshold)
	}
}

// TestExtendCountOnlyNoAlloc pins the count path's hot-path contract at run
// time: with a warm scratch, a count-only Extend allocates nothing on any of
// its shapes — pair count (triangle), list minus list (induced wedge), bare
// clipped list with a distinctness probe (wedge), and the star tails folded
// at level 1 (wedge again, 3-star) — and agrees with the materializing Extend
// on every embedding.
func TestExtendCountOnlyNoAlloc(t *testing.T) {
	g := graph.RMATDefault(200, 1600, 17)
	for _, c := range []struct {
		pat     *pattern.Pattern
		induced bool
		fold    bool
	}{
		{pattern.Triangle(), false, false}, {pattern.PathP(3), true, false}, {pattern.PathP(3), false, false},
		{pattern.PathP(3), false, true}, {pattern.StarP(4), false, true},
	} {
		pl := MustCompile(c.pat, Options{Style: StyleAutomine, Induced: c.induced, DisableVCS: true, Stats: StatsOf(g)})
		if !pl.Levels[pl.K-1].CountOnly || c.fold && pl.FoldLevel() != 1 {
			t.Fatalf("%v: last level not count-eligible, or no fold at level 1", pl)
		}
		counting, building := NewScratch(pl), NewScratch(pl)
		counting.SetCountOnly(true)
		counting.SetFold(c.fold)
		counting.SetHubThreshold(16)
		building.SetHubThreshold(16)
		emb := make([]graph.VertexID, pl.K)
		getList := func(pos int) []graph.VertexID { return g.Neighbors(emb[pos]) }
		// walk builds the levels before end with the materializing scratch and
		// takes level end — the last, or the fold level — from s.
		var walk func(s *Scratch, level, end int) uint64
		walk = func(s *Scratch, level, end int) (n uint64) {
			if level == end {
				cands, _ := pl.Extend(s, level, emb[:level], getList, nil, nil, nil)
				return uint64(len(cands)) + s.TakeCount()
			}
			cands, _ := pl.Extend(building, level, emb[:level], getList, nil, nil, nil)
			for _, v := range cands {
				emb[level] = v
				n += walk(s, level+1, end)
			}
			return n
		}
		sweep := func(s *Scratch, end int) (n uint64) {
			for v0 := 0; v0 < g.NumVertices(); v0++ {
				emb[0] = graph.VertexID(v0)
				n += walk(s, 1, end)
			}
			return n
		}
		want := sweep(building, pl.K-1) // also warms the buffers
		if want == 0 || want != CountGraph(pl, g) {
			t.Fatalf("%v: materializing sweep found %d, executor %d", pl, want, CountGraph(pl, g))
		}
		end := pl.K - 1
		if c.fold {
			end = pl.FoldLevel()
		}
		var got uint64
		if allocs := testing.AllocsPerRun(3, func() { got = sweep(counting, end) }); allocs != 0 {
			t.Errorf("%v: count-only Extend allocated %.0f times per sweep, want 0", pl, allocs)
		}
		if got != want || counting.Overflowed() {
			t.Errorf("%v: count-only sweep %d (overflowed %v), materializing %d", pl, got, counting.Overflowed(), want)
		}
	}
}

// TestBinomial checks the fold's C(n, r) against Pascal's rule and at the
// edge of uint64: C(2^32, 2) fits, C(2^33, 2) does not, and neither wraps.
func TestBinomial(t *testing.T) {
	for n := uint64(0); n < 40; n++ {
		for r := 1; r < 9; r++ {
			got, ok := binomial(n, r)
			var want uint64
			if n > 0 {
				a, _ := binomial(n-1, r)
				b := uint64(1)
				if r > 1 {
					b, _ = binomial(n-1, r-1)
				}
				want = a + b
			}
			if !ok || got != want {
				t.Fatalf("C(%d, %d) = %d, %v; want %d", n, r, got, ok, want)
			}
		}
	}
	if c, ok := binomial(1<<32, 2); !ok || c != (1<<63)-(1<<31) {
		t.Errorf("C(2^32, 2) = %d, %v", c, ok)
	}
	if c, ok := binomial(1<<33, 2); ok {
		t.Errorf("C(2^33, 2) = %d fits a uint64", c)
	}
	if c, ok := binomial(20000, 5); ok {
		t.Errorf("C(20000, 5) = %d fits a uint64", c)
	}
}

func TestExplainShowsKernelHint(t *testing.T) {
	pl := MustCompile(pattern.Clique(4), Options{Style: StyleGraphPi, DisableVCS: true})
	s := pl.Explain()
	if !strings.Contains(s, "kernel=pivot") {
		t.Errorf("Explain missing kernel=pivot for clique(4):\n%s", s)
	}
	if !strings.Contains(s, "kernel=auto") {
		t.Errorf("Explain missing kernel=auto on narrow levels:\n%s", s)
	}
}

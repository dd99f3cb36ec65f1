package plan

import (
	"testing"

	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
	"khuzdul/internal/setops"
)

// TestExtendCountOnlyNoAlloc pins the count path's hot-path contract at run
// time: with a warm scratch, a count-only Extend allocates nothing on any of
// its shapes — pair count (triangle), list minus list (induced wedge), bare
// clipped list with a distinctness probe (wedge), the star tails folded at
// level 1 (wedge again, 3-star), and a probed level against a lent mark set,
// in all three of its forms (triangle with and without the parent's stored
// raw, induced wedge with it) — and agrees with the materializing Extend on
// every embedding. The sweep starts a new parent run where the engine would:
// before each parent's children at the last level.
func TestExtendCountOnlyNoAlloc(t *testing.T) {
	g := graph.RMATDefault(200, 1600, 17)
	for _, c := range []struct {
		pat     *pattern.Pattern
		induced bool
		fold    bool
		vcs     bool
		probe   bool
	}{
		{pattern.Triangle(), false, false, false, true}, {pattern.PathP(3), true, false, false, false}, {pattern.PathP(3), false, false, false, false},
		{pattern.PathP(3), false, true, false, false}, {pattern.StarP(4), false, true, false, false},
		{pattern.Triangle(), false, false, true, true}, {pattern.PathP(3), true, false, true, true},
	} {
		pl := MustCompile(c.pat, Options{Style: StyleAutomine, Induced: c.induced, DisableVCS: !c.vcs, Stats: StatsOf(g)})
		if !pl.Levels[pl.K-1].CountOnly || c.fold && pl.FoldLevel() != 1 {
			t.Fatalf("%v: last level not count-eligible, or no fold at level 1", pl)
		}
		probed := pl.Levels[pl.K-1].Probe
		if probed != c.probe {
			t.Fatalf("%v: last level Probe = %v", pl, probed)
		}
		counting, building := NewScratch(pl), NewScratch(pl)
		counting.SetCountOnly(true)
		counting.LendRuns(&RunStorage{})
		emb := make([]graph.VertexID, pl.K)
		raws := make([][]graph.VertexID, pl.K)
		getList := func(pos int) []graph.VertexID { return g.Neighbors(emb[pos]) }
		// walk builds the levels before end with the materializing scratch and
		// takes level end — the last, or the fold level — from s, handing each
		// level its parent's stored raw.
		var walk func(s *Scratch, level, end int) uint64
		walk = func(s *Scratch, level, end int) (n uint64) {
			if level == end {
				cands, _ := pl.Extend(s, level, emb[:level], getList, raws[level-1], nil, nil)
				return uint64(len(cands)) + s.TakeCount()
			}
			cands, raw := pl.Extend(building, level, emb[:level], getList, raws[level-1], nil, nil)
			raws[level] = nil
			if pl.Levels[level].StoreInter {
				raws[level] = raw
			}
			if level == end-1 {
				s.NewRun()
			}
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
		sweep(counting, end) // warms the mark set
		counting.KernelCounts()[setops.KernelProbe] = 0
		var got uint64
		if allocs := testing.AllocsPerRun(3, func() { got = sweep(counting, end) }); allocs != 0 {
			t.Errorf("%v: count-only Extend allocated %.0f times per sweep, want 0", pl, allocs)
		}
		if got != want || counting.Overflowed() {
			t.Errorf("%v: count-only sweep %d (overflowed %v), materializing %d", pl, got, counting.Overflowed(), want)
		}
		if n := counting.KernelCounts()[setops.KernelProbe]; (n > 0) != probed {
			t.Errorf("%v: %d probe kernels over a level with Probe = %v", pl, n, probed)
		}
	}
}

// TestFilterOnceNoAlloc pins the filtered levels' hot-path contract at run
// time (Level.FilterOnce): a depth-first walk through Extend on a scratch lent
// run storage, starting a new run before each parent's children, finds
// what the same walk without it finds — which filters per child — in
// fewer label tests, and with warm buffers allocates nothing. It runs the
// labeled 3-star as frequent subgraph mining compiles it, and Automine's
// labeled P4, whose level 3 filters N(v1).
func TestFilterOnceNoAlloc(t *testing.T) {
	g0 := graph.RMATDefault(300, 2400, 17)
	g, err := g0.WithLabels(graph.RandomLabels(g0.NumVertices(), 2, 18))
	if err != nil {
		t.Fatal(err)
	}
	star := pattern.StarP(4).WithLabels([]graph.Label{0, 1, 1, 1})
	path := pattern.PathP(4).WithLabels([]graph.Label{0, 1, 0, 1})
	for _, pl := range []*Plan{
		MustCompile(star, Options{Style: StyleAutomine, DisableSymmetryBreak: true}),
		MustCompile(path, Options{Style: StyleAutomine}),
	} {
		if !pl.Levels[pl.K-1].FilterOnce {
			t.Fatalf("%v: last level not filtered once per run", pl)
		}
		var tests int
		labelOf := func(v graph.VertexID) graph.Label {
			tests++
			return g.Label(v)
		}
		emb := make([]graph.VertexID, pl.K)
		raws := make([][]graph.VertexID, pl.K)
		getList := func(pos int) []graph.VertexID { return g.Neighbors(emb[pos]) }
		var walk func(s *Scratch, level int) uint64
		walk = func(s *Scratch, level int) (n uint64) {
			cands, raw := pl.Extend(s, level, emb[:level], getList, raws[level-1], labelOf, nil)
			if level == pl.K-1 {
				return uint64(len(cands))
			}
			// The executor's copy: deeper levels reuse the scratch's buffers.
			raws[level] = append(raws[level][:0], raw...)
			s.NewRun()
			for _, v := range cands {
				emb[level] = v
				n += walk(s, level+1)
			}
			return n
		}
		sweep := func(s *Scratch) (n uint64) {
			for v0 := 0; v0 < g.NumVertices(); v0++ {
				if emb[0] = graph.VertexID(v0); g.Label(emb[0]) == pl.PosLabel(0) {
					n += walk(s, 1)
				}
			}
			return n
		}
		perChild := NewScratch(pl)
		want := sweep(perChild)
		wantTests := tests
		if want == 0 || want != CountGraph(pl, g) {
			t.Fatalf("%v: per-child sweep found %d, executor %d", pl, want, CountGraph(pl, g))
		}
		once := NewScratch(pl)
		once.LendRuns(&RunStorage{})
		tests = 0
		if got := sweep(once); got != want || tests >= wantTests {
			t.Errorf("%v: filtered once %d in %d label tests, per child %d in %d", pl, got, tests, want, wantTests)
		}
		if allocs := testing.AllocsPerRun(3, func() { sweep(once) }); allocs != 0 {
			t.Errorf("%v: filtered sweep allocated %.0f times, want 0", pl, allocs)
		}
	}
}

// TestDenseNoAlloc pins the dense suffix's hot-path contract at run time:
// with a warm scratch, building every root's rows and finishing its levels
// allocates nothing, counted or emitted, and both agree with the executor.
// The rows sit in one buffer the sweep owns, as a level-1 chunk's do.
func TestDenseNoAlloc(t *testing.T) {
	g := graph.RMATDefault(300, 3000, 17)
	for _, k := range []int{4, 5} {
		pl := MustCompile(pattern.Clique(k), Options{Style: StyleAutomine, Stats: StatsOf(g)})
		if !pl.Dense {
			t.Fatalf("K%d not dense: %v", k, pl)
		}
		s := NewScratch(pl)
		emb := make([]graph.VertexID, pl.K)
		rows := make([]uint64, g.MaxDegree()*uint32(DenseRowWords(int(g.MaxDegree()))))
		var emitted uint64
		emit := func(prefix, last []graph.VertexID) { emitted += uint64(len(last)) }
		sweep := func(emit func(prefix, last []graph.VertexID)) (n uint64) {
			for v0 := 0; v0 < g.NumVertices(); v0++ {
				emb[0] = graph.VertexID(v0)
				lo, hi := pl.bounds(1, emb)
				set := setops.Clip(g.Neighbors(emb[0]), lo, hi)
				w := DenseRowWords(len(set))
				for j, u := range set {
					pl.DenseRow(s, rows[j*w:(j+1)*w], set, j, g.Neighbors(u))
				}
				n += pl.DenseFinish(s, emb, set, rows[:len(set)*w], emit)
			}
			return n
		}
		want := CountGraph(pl, g)
		if got := sweep(emit); got != want || emitted != want { // also warms the buffers
			t.Fatalf("K%d: dense sweep %d, emitted %d, executor %d", k, got, emitted, want)
		}
		for _, e := range []func(prefix, last []graph.VertexID){nil, emit} {
			var got uint64
			if allocs := testing.AllocsPerRun(3, func() { got = sweep(e) }); allocs != 0 {
				t.Errorf("K%d: dense sweep allocated %.0f times, want 0", k, allocs)
			}
			if got != want {
				t.Errorf("K%d: dense sweep %d, executor %d", k, got, want)
			}
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

var sinkCands int

// hubbedRMAT is a skewed R-MAT draw given a mid-ID hub adjacent to three
// vertices in four, so that some stored intersections are long and sit on
// both sides of the IDs that bound them.
func hubbedRMAT(n int, m uint64, seed int64) *graph.Graph {
	rmat := graph.RMAT(n, m, 0.7, 0.1, 0.1, seed)
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for _, v := range rmat.Neighbors(graph.VertexID(u)) {
			b.AddEdge(graph.VertexID(u), v)
		}
		if u%4 != 0 {
			b.AddEdge(graph.VertexID(n/2), graph.VertexID(u))
		}
	}
	return b.Build()
}

// BenchmarkExtendStoredClip is one op over every (v0, v1) prefix of a
// 4-clique plan on a hubbed R-MAT: level 2's Extend, R1 ∩ N(v1) from the
// stored R1, itself stored as R2 for level 3. Both stores are clipped to
// their level's bounds (Level.ClipStore), so the merge reads only the side of
// each list the restrictions keep. Must stay allocation-free.
func BenchmarkExtendStoredClip(b *testing.B) {
	g := hubbedRMAT(2048, 16000, 20230325)
	pl := MustCompile(pattern.Clique(4), Options{Style: StyleGraphPi, Stats: StatsOf(g)})
	if !pl.Levels[1].ClipStore || !pl.Levels[2].ClipStore {
		b.Fatalf("4-clique levels 1 and 2 do not clip their stores: %v", pl)
	}
	s := NewScratch(pl)
	emb := make([]graph.VertexID, pl.K)
	getList := func(pos int) []graph.VertexID { return g.Neighbors(emb[pos]) }
	type prefix struct {
		v0, v1 graph.VertexID
		r1     []graph.VertexID
	}
	var prefixes []prefix
	for v0 := 0; v0 < g.NumVertices(); v0++ {
		emb[0] = graph.VertexID(v0)
		cands, raw := pl.Extend(s, 1, emb[:1], getList, nil, nil, nil)
		r1 := append([]graph.VertexID(nil), raw...)
		for _, v1 := range cands {
			prefixes = append(prefixes, prefix{emb[0], v1, r1})
		}
	}
	sweep := func() (n int) {
		for _, p := range prefixes {
			emb[0], emb[1] = p.v0, p.v1
			cands, _ := pl.Extend(s, 2, emb[:2], getList, p.r1, nil, nil)
			n += len(cands)
		}
		return n
	}
	sweep() // warm the scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCands = sweep()
	}
}

// BenchmarkCandidatesLabeled is one op over the leaf level of a labeled
// 3-star (center label 0, leaves label 1) on a 4-label graph, compiled as
// frequent subgraph mining compiles it — no symmetry breaking — for up to
// 20 000 (v0, v1, v2) prefixes: one pass over N(v0) that tests each
// candidate's label and excludes v1 and v2, which share the leaf label. Must
// stay allocation-free.
func BenchmarkCandidatesLabeled(b *testing.B) {
	g0 := graph.RMAT(1600, 9600, 0.40, 0.20, 0.20, 20230325)
	g, err := g0.WithLabels(graph.RandomLabels(g0.NumVertices(), 4, 20230326))
	if err != nil {
		b.Fatal(err)
	}
	pl := MustCompile(pattern.StarP(4).WithLabels([]graph.Label{0, 1, 1, 1}),
		Options{Style: StyleAutomine, DisableSymmetryBreak: true, Stats: StatsOf(g)})
	if pl.Order[0] != 0 || len(pl.Levels[3].Exclude) != 2 {
		b.Fatalf("3-star not rooted at its center: %v", pl)
	}
	s := NewScratch(pl)
	emb := make([]graph.VertexID, pl.K)
	getList := func(pos int) []graph.VertexID { return g.Neighbors(emb[pos]) }
	labelOf := LabelFunc(g.Label)
	var prefixes [][3]graph.VertexID
	for v0 := 0; v0 < g.NumVertices() && len(prefixes) < 20000; v0++ {
		if g.Label(graph.VertexID(v0)) != 0 {
			continue
		}
		for _, v1 := range g.Neighbors(graph.VertexID(v0)) {
			for _, v2 := range g.Neighbors(graph.VertexID(v0)) {
				if v1 != v2 && g.Label(v1) == 1 && g.Label(v2) == 1 {
					prefixes = append(prefixes, [3]graph.VertexID{graph.VertexID(v0), v1, v2})
				}
			}
		}
	}
	sweep := func() (n int) {
		for _, p := range prefixes {
			copy(emb, p[:])
			n += len(pl.Candidates(s, 3, emb[:3], g.Neighbors(p[0]), getList, labelOf, 0, noUpper))
		}
		return n
	}
	if sweep() == 0 { // also warms the scratch buffers
		b.Fatal("no candidates: the benchmark measures nothing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCands = sweep()
	}
}

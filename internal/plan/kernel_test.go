package plan

import (
	"testing"

	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
)

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

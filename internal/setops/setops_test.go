package setops

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"khuzdul/internal/graph"
)

func ids(xs ...int) []graph.VertexID {
	out := make([]graph.VertexID, len(xs))
	for i, x := range xs {
		out[i] = graph.VertexID(x)
	}
	return out
}

func equal(a, b []graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIntersectBasic(t *testing.T) {
	cases := []struct{ a, b, want []graph.VertexID }{
		{ids(1, 3, 5), ids(2, 3, 5, 9), ids(3, 5)},
		{ids(), ids(1, 2), ids()},
		{ids(1, 2, 3), ids(), ids()},
		{ids(1, 2, 3), ids(1, 2, 3), ids(1, 2, 3)},
		{ids(1), ids(2), ids()},
	}
	for _, c := range cases {
		if got := Intersect(nil, c.a, c.b); !equal(got, c.want) {
			t.Errorf("Intersect(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIntersectGallopPath(t *testing.T) {
	// A short list against a long one forces the galloping branch.
	long := make([]graph.VertexID, 10000)
	for i := range long {
		long[i] = graph.VertexID(3 * i)
	}
	short := ids(0, 3, 7, 9999, 29997)
	want := ids(0, 3, 9999, 29997)
	if got := Intersect(nil, short, long); !equal(got, want) {
		t.Fatalf("gallop intersect = %v, want %v", got, want)
	}
	// Symmetric argument order must not matter.
	if got := Intersect(nil, long, short); !equal(got, want) {
		t.Fatalf("gallop intersect (swapped) = %v, want %v", got, want)
	}
}

func TestIntersectAppendsToDst(t *testing.T) {
	dst := ids(42)
	got := Intersect(dst, ids(1, 2), ids(2, 3))
	if !equal(got, ids(42, 2)) {
		t.Fatalf("append semantics broken: %v", got)
	}
}

// boundedBoth runs the materializing and the counting bounded kernels on a
// fresh dispatcher and fails the test if they disagree with each other.
func boundedBoth(t *testing.T, a, b []graph.VertexID, lo, hi graph.VertexID) []graph.VertexID {
	t.Helper()
	var d Dispatcher
	got := d.IntersectBounded(nil, a, b, lo, hi)
	if n := d.CountBounded(a, b, lo, hi); n != len(got) {
		t.Fatalf("CountBounded(lo=%d, hi=%d) = %d, IntersectBounded found %v", lo, hi, n, got)
	}
	return got
}

func TestIntersectBounded(t *testing.T) {
	a, b := ids(1, 2, 3, 4, 5, 6), ids(2, 3, 4, 5, 7)
	if got := boundedBoth(t, a, b, 3, 5); !equal(got, ids(3, 4)) {
		t.Fatalf("bounded = %v, want [3 4]", got)
	}
	if got := boundedBoth(t, a, b, 0, NoVertex); !equal(got, ids(2, 3, 4, 5)) {
		t.Fatalf("unbounded = %v", got)
	}
}

func TestSubtract(t *testing.T) {
	if got := Subtract(nil, ids(1, 2, 3, 4), ids(2, 4, 5)); !equal(got, ids(1, 3)) {
		t.Fatalf("Subtract = %v, want [1 3]", got)
	}
	if got := Subtract(nil, ids(1, 2), nil); !equal(got, ids(1, 2)) {
		t.Fatalf("Subtract with empty b = %v", got)
	}
}

func TestContains(t *testing.T) {
	a := ids(2, 4, 6, 8)
	for _, x := range []int{2, 4, 6, 8} {
		if !Contains(a, graph.VertexID(x)) {
			t.Fatalf("Contains(%d) = false", x)
		}
	}
	for _, x := range []int{1, 3, 9} {
		if Contains(a, graph.VertexID(x)) {
			t.Fatalf("Contains(%d) = true", x)
		}
	}
	if Contains(nil, 1) {
		t.Fatal("Contains on nil = true")
	}
}

func TestIntersectMany(t *testing.T) {
	lists := [][]graph.VertexID{
		ids(1, 2, 3, 4, 5),
		ids(2, 3, 4, 5, 6),
		ids(3, 4, 5, 6, 7),
		ids(4, 5, 9),
	}
	if got := IntersectMany(nil, lists, nil); !equal(got, ids(4, 5)) {
		t.Fatalf("IntersectMany = %v, want [4 5]", got)
	}
	if got := IntersectMany(nil, lists[:1], nil); !equal(got, lists[0]) {
		t.Fatalf("IntersectMany single = %v", got)
	}
	if got := IntersectMany(nil, nil, nil); len(got) != 0 {
		t.Fatalf("IntersectMany empty = %v", got)
	}
}

func TestCountIntersect(t *testing.T) {
	a, b := ids(1, 3, 5, 7), ids(3, 4, 5, 6, 7, 8)
	if got := CountIntersect(a, b); got != 3 {
		t.Fatalf("CountIntersect = %d, want 3", got)
	}
	if got := CountIntersect(nil, b); got != 0 {
		t.Fatalf("CountIntersect nil = %d", got)
	}
}

func TestClip(t *testing.T) {
	a := ids(0, 1, 3, 5, 7)
	for _, c := range []struct {
		lo, hi graph.VertexID
		want   []graph.VertexID
	}{
		{0, NoVertex, a}, // unbounded both ways, vertex 0 kept
		{1, NoVertex, ids(1, 3, 5, 7)},
		{4, NoVertex, ids(5, 7)}, // lo between elements
		{8, NoVertex, nil},       // lo above the list
		{0, 7, ids(0, 1, 3, 5)},  // hi exclusive
		{0, 0, nil},
		{3, 6, ids(3, 5)},
		{5, 3, nil}, // lo ≥ hi
		{3, 3, nil},
		{NoVertex, NoVertex, nil},
	} {
		if got := Clip(a, c.lo, c.hi); !equal(got, c.want) {
			t.Errorf("Clip(lo=%d, hi=%d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
	if got := Clip(nil, 2, 9); len(got) != 0 {
		t.Errorf("Clip(nil) = %v", got)
	}
}

// randSorted produces a strictly ascending random list.
func randSorted(rng *rand.Rand, n, max int) []graph.VertexID {
	seen := map[int]bool{}
	for len(seen) < n {
		seen[rng.Intn(max)] = true
	}
	out := make([]graph.VertexID, 0, n)
	for x := range seen {
		out = append(out, graph.VertexID(x))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refIntersect is the trivially-correct reference.
func refIntersect(a, b []graph.VertexID) []graph.VertexID {
	m := map[graph.VertexID]bool{}
	for _, x := range b {
		m[x] = true
	}
	var out []graph.VertexID
	for _, x := range a {
		if m[x] {
			out = append(out, x)
		}
	}
	return out
}

func TestPropertyIntersectMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSorted(rng, rng.Intn(50), 200)
		b := randSorted(rng, rng.Intn(2000), 4000)
		got := Intersect(nil, a, b)
		want := refIntersect(a, b)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		// Count must agree with materialized length.
		return CountIntersect(a, b) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySubtractPartitions(t *testing.T) {
	// (a ∩ b) and (a \ b) partition a.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSorted(rng, rng.Intn(100), 300)
		b := randSorted(rng, rng.Intn(100), 300)
		in := Intersect(nil, a, b)
		out := Subtract(nil, a, b)
		if len(in)+len(out) != len(a) {
			return false
		}
		merged := append(append([]graph.VertexID{}, in...), out...)
		sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
		for i := range a {
			if merged[i] != a[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBoundedSubsetOfIntersect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSorted(rng, rng.Intn(80), 200)
		b := randSorted(rng, rng.Intn(80), 200)
		lo := graph.VertexID(rng.Intn(200))
		hi := lo + graph.VertexID(rng.Intn(100))
		var d Dispatcher
		got := d.IntersectBounded(nil, a, b, lo, hi)
		full := Intersect(nil, a, b)
		j := 0
		for _, x := range full {
			if x >= lo && x < hi {
				if j >= len(got) || got[j] != x {
					return false
				}
				j++
			}
		}
		return j == len(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIntersectMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randSorted(rng, 1000, 100000)
	y := randSorted(rng, 1000, 100000)
	buf := make([]graph.VertexID, 0, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Intersect(buf[:0], x, y)
	}
}

func BenchmarkIntersectGallop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randSorted(rng, 30, 100000)
	y := randSorted(rng, 50000, 1000000)
	buf := make([]graph.VertexID, 0, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Intersect(buf[:0], x, y)
	}
}

// TestIntersectManyNoAlloc pins the allocation-free kernel: with warm
// caller-owned dst and scratch, the k-way running intersection must not touch
// the heap. The old implementation allocated a fresh intermediate per inner
// list.
func TestIntersectManyNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lists := make([][]graph.VertexID, 5)
	for i := range lists {
		lists[i] = randSorted(rng, 400, 2000)
	}
	dst := make([]graph.VertexID, 0, 400)
	scratch := make([]graph.VertexID, 0, 400)
	allocs := testing.AllocsPerRun(50, func() {
		dst = IntersectMany(dst[:0], lists, scratch)
	})
	if allocs != 0 {
		t.Fatalf("IntersectMany allocated %.0f times per run with warm buffers, want 0", allocs)
	}
}

// BenchmarkIntersectMany exercises the k-way running intersection with warm
// caller-owned buffers: the steady state inside the per-embedding loop, where
// any per-call allocation shows up directly in allocs/op.
func BenchmarkIntersectMany(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lists := make([][]graph.VertexID, 5)
	for i := range lists {
		lists[i] = randSorted(rng, 800, 4000)
	}
	dst := make([]graph.VertexID, 0, 800)
	scratch := make([]graph.VertexID, 0, 800)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = IntersectMany(dst[:0], lists, scratch)
	}
}

// --- pattern-aware kernel tests -----------------------------------------

func TestIntersectMergeGallopAgree(t *testing.T) {
	// The exported unconditional kernels must agree with the reference on
	// the same inputs Intersect sees, including both argument orders.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSorted(rng, rng.Intn(60), 300)
		b := randSorted(rng, rng.Intn(3000), 6000)
		want := refIntersect(a, b)
		return equal(IntersectMerge(nil, a, b), want) &&
			equal(IntersectMerge(nil, b, a), want) &&
			equal(IntersectGallop(nil, a, b), want) &&
			equal(IntersectGallop(nil, b, a), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectBitmapMatchesReference(t *testing.T) {
	var bm Bitmap
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSorted(rng, rng.Intn(100), 500)
		b := randSorted(rng, rng.Intn(400), 2000)
		bm.Build(b)
		return equal(IntersectBitmap(nil, a, &bm), refIntersect(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapRebuildClearsStaleBits(t *testing.T) {
	var bm Bitmap
	bm.Build(ids(1, 64, 200))
	bm.Build(ids(2, 65))
	for _, v := range []int{1, 64, 200} {
		if bm.Contains(graph.VertexID(v)) {
			t.Fatalf("stale bit %d survived rebuild", v)
		}
	}
	if !bm.Contains(2) || !bm.Contains(65) {
		t.Fatal("rebuilt bits missing")
	}
	// Rebuilding after the caller's buffer was recycled must still clear
	// correctly: Build retains its own copy of the list.
	buf := ids(3, 130)
	bm.Build(buf)
	buf[0], buf[1] = 999, 1000 // caller recycles the buffer
	bm.Build(ids(7))
	if bm.Contains(3) || bm.Contains(130) {
		t.Fatal("stale bits survived a rebuild after buffer recycling")
	}
	bm.Build(nil)
	if bm.Contains(7) {
		t.Fatal("empty build left bits behind")
	}

	// The words cover only the built list's window, so a rebuild moves the
	// window's base: up past the old window, down below it, and overlapping
	// it. Each must clear every bit of the one before and answer exactly for
	// IDs inside, below and above its own window.
	var prev []graph.VertexID
	for i, list := range [][]graph.VertexID{
		ids(70000, 70001, 70100),
		ids(5, 300),
		ids(200, 64*50+1, 64*60),
		ids(64*40, 64*41-1),
		ids(1 << 20),
		ids(0, 63, 64),
	} {
		bm.Build(list)
		for _, v := range prev {
			if bm.Contains(v) && !Contains(list, v) {
				t.Fatalf("rebuild %d at base %d: stale bit %d survived", i, list[0]>>6, v)
			}
		}
		for _, v := range list {
			for _, u := range []graph.VertexID{v - 1, v, v + 1} {
				if bm.Contains(u) != Contains(list, u) {
					t.Fatalf("rebuild %d: Contains(%d) = %v over %v", i, u, bm.Contains(u), list)
				}
			}
		}
		for _, u := range []graph.VertexID{0, 1 << 21, NoVertex} {
			if bm.Contains(u) != Contains(list, u) {
				t.Fatalf("rebuild %d: Contains(%d) = %v over %v", i, u, bm.Contains(u), list)
			}
		}
		prev = list
	}
}

// TestMarkRefusesWideWindows: Mark builds a list whose IDs span at most
// markWordCap words — at any base — and refuses a wider one, leaving the set
// as it was; a bitmap only ever Marked never holds more than the cap.
func TestMarkRefusesWideWindows(t *testing.T) {
	var bm Bitmap
	widest := graph.VertexID(64*markWordCap - 1)
	for _, base := range []graph.VertexID{0, 64 * 1000, 1<<31 + 17} {
		lo := base &^ 63
		if !bm.Mark(ids(int(lo), int(lo+widest))) || !bm.Contains(lo) || !bm.Contains(lo+widest) {
			t.Fatalf("base %d: Mark refused or lost a window of exactly %d words", lo, markWordCap)
		}
		if bm.Mark(ids(int(lo), int(lo+widest+1))) {
			t.Fatalf("base %d: Mark accepted a window of %d words", lo, markWordCap+1)
		}
		if !bm.Contains(lo+widest) || bm.Contains(lo+widest+1) {
			t.Fatalf("base %d: a refused Mark changed the set", lo)
		}
		if bm.Words() > markWordCap {
			t.Fatalf("base %d: %d words held, past the cap %d", lo, bm.Words(), markWordCap)
		}
	}
}

func TestIntersectPivotMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 3 + rng.Intn(4)
		lists := make([][]graph.VertexID, k)
		for i := range lists {
			lists[i] = randSorted(rng, rng.Intn(200), 400)
		}
		want := lists[0]
		for _, l := range lists[1:] {
			want = refIntersect(want, l)
		}
		return equal(IntersectPivot(nil, lists), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectPivotEdgeCases(t *testing.T) {
	if got := IntersectPivot(nil, nil); len(got) != 0 {
		t.Fatalf("pivot of no lists = %v", got)
	}
	one := [][]graph.VertexID{ids(1, 2, 3)}
	if got := IntersectPivot(nil, one); !equal(got, ids(1, 2, 3)) {
		t.Fatalf("pivot of one list = %v", got)
	}
	two := [][]graph.VertexID{ids(1, 2, 3), ids(2, 3, 4)}
	if got := IntersectPivot(nil, two); !equal(got, ids(2, 3)) {
		t.Fatalf("pivot of two lists = %v", got)
	}
	empty := [][]graph.VertexID{ids(1, 2), nil, ids(2, 3)}
	if got := IntersectPivot(nil, empty); len(got) != 0 {
		t.Fatalf("pivot with an empty list = %v", got)
	}
	// Beyond maxPivotLists the correctness fallback must still be exact.
	many := make([][]graph.VertexID, maxPivotLists+2)
	for i := range many {
		many[i] = ids(5, 9, 42)
	}
	if got := IntersectPivot(nil, many); !equal(got, ids(5, 9, 42)) {
		t.Fatalf("pivot fallback = %v", got)
	}
}

func TestDispatcherMatchesReference(t *testing.T) {
	// The dispatcher must stay exact whatever kernel it picks, across list
	// shapes: a long list against short ones (gallop) and comparable pairs
	// (merge).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var d Dispatcher
		hub := randSorted(rng, 200+rng.Intn(400), 4000)
		for step := 0; step < 20; step++ {
			a := randSorted(rng, rng.Intn(50), 4000)
			b := hub
			if rng.Intn(3) == 0 { // sometimes a balanced pairing
				b = randSorted(rng, rng.Intn(40), 4000)
			}
			if !equal(d.IntersectBounded(nil, a, b, 0, NoVertex), refIntersect(a, b)) {
				return false
			}
			// Argument order must not matter.
			if !equal(d.IntersectBounded(nil, b, a, 0, NoVertex), refIntersect(a, b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectBoundedGallopPath(t *testing.T) {
	// Lopsided sizes must agree with the linear reference on bounds,
	// including lo/hi edge values, the inclusive-lo / exclusive-hi semantics,
	// and the lo = all-ones / empty-interval cases.
	long := make([]graph.VertexID, 20000)
	for i := range long {
		long[i] = graph.VertexID(2 * i)
	}
	short := ids(0, 2, 5, 1000, 39998)
	ref := func(a, b []graph.VertexID, lo, hi graph.VertexID) []graph.VertexID {
		var out []graph.VertexID
		for _, x := range refIntersect(a, b) {
			if x >= lo && x < hi {
				out = append(out, x)
			}
		}
		return out
	}
	cases := []struct{ lo, hi graph.VertexID }{
		{0, ^graph.VertexID(0)}, {0, 1000}, {2, 39998}, {1000, 1000},
		{39998, ^graph.VertexID(0)}, {^graph.VertexID(0), ^graph.VertexID(0)}, {5, 0},
	}
	for _, c := range cases {
		got := boundedBoth(t, short, long, c.lo, c.hi)
		want := ref(short, long, c.lo, c.hi)
		if !equal(got, want) {
			t.Errorf("IntersectBounded(lo=%d, hi=%d) = %v, want %v", c.lo, c.hi, got, want)
		}
		// Swapped argument order takes the same clipped path.
		if got := boundedBoth(t, long, short, c.lo, c.hi); !equal(got, want) {
			t.Errorf("IntersectBounded swapped (lo=%d, hi=%d) = %v, want %v", c.lo, c.hi, got, want)
		}
	}
}

func TestPropertyBoundedMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSorted(rng, rng.Intn(30), 200)
		b := randSorted(rng, rng.Intn(3000), 6000) // lopsided: gallop path
		lo := graph.VertexID(rng.Intn(200))
		hi := lo + graph.VertexID(rng.Intn(100))
		var d Dispatcher
		got := d.IntersectBounded(nil, a, b, lo, hi)
		if d.CountBounded(a, b, lo, hi) != len(got) {
			return false
		}
		j := 0
		for _, x := range refIntersect(a, b) {
			if x >= lo && x < hi {
				if j >= len(got) || got[j] != x {
					return false
				}
				j++
			}
		}
		return j == len(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Alloc-pinning tests: with warm buffers, the new kernels must never touch
// the heap in steady state (the per-embedding path's allocation budget rests
// on it; see core's TestExtendEngineAllocBudget).

func TestIntersectBitmapNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randSorted(rng, 200, 4000)
	hub := randSorted(rng, 1500, 4000)
	var bm Bitmap
	bm.Build(hub) // warm the word storage and the retained copy
	dst := make([]graph.VertexID, 0, 200)
	allocs := testing.AllocsPerRun(50, func() {
		bm.Build(hub)
		dst = IntersectBitmap(dst[:0], a, &bm)
	})
	if allocs != 0 {
		t.Fatalf("bitmap build+probe allocated %.0f times per run with warm storage, want 0", allocs)
	}
}

func TestIntersectPivotNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lists := make([][]graph.VertexID, 5)
	for i := range lists {
		lists[i] = randSorted(rng, 400, 2000)
	}
	dst := make([]graph.VertexID, 0, 400)
	allocs := testing.AllocsPerRun(50, func() {
		dst = IntersectPivot(dst[:0], lists)
	})
	if allocs != 0 {
		t.Fatalf("IntersectPivot allocated %.0f times per run with warm dst, want 0", allocs)
	}
}

func TestDispatcherNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randSorted(rng, 100, 4000)
	b := randSorted(rng, 150, 4000)
	hub := randSorted(rng, 3500, 4000)
	var counts [NumKernels]uint64
	d := Dispatcher{Counts: &counts}
	dst := make([]graph.VertexID, 0, 100)
	allocs := testing.AllocsPerRun(50, func() {
		dst = d.IntersectBounded(dst[:0], a, b, 0, NoVertex)       // merge
		dst = d.IntersectBounded(dst[:0], a[:3], hub, 0, NoVertex) // gallop
	})
	if allocs != 0 {
		t.Fatalf("dispatcher with a ledger allocated %.0f times per run, want 0", allocs)
	}
	if counts[KernelMerge] == 0 || counts[KernelGallop] == 0 {
		t.Fatalf("merge/gallop = %v, want both entered", counts)
	}
}

func TestIntersectBoundedNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randSorted(rng, 30, 2000)
	b := randSorted(rng, 2000, 40000)
	dst := make([]graph.VertexID, 0, 30)
	var d Dispatcher
	allocs := testing.AllocsPerRun(50, func() {
		dst = d.IntersectBounded(dst[:0], a, b, 100, 1900)
	})
	if allocs != 0 {
		t.Fatalf("IntersectBounded allocated %.0f times per run with warm dst, want 0", allocs)
	}
}

func TestCountBoundedNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randSorted(rng, 100, 4000)
	b := randSorted(rng, 150, 4000)
	hub := randSorted(rng, 2000, 4000)
	var d Dispatcher
	var m Bitmap
	m.Mark(b) // warm the word storage and the retained copy
	allocs := testing.AllocsPerRun(50, func() {
		sinkInt += d.CountBounded(a, b, 500, 3500)         // merge
		sinkInt += d.CountBounded(a[:3], hub, 0, NoVertex) // gallop
		sinkInt += d.CountSubtract(a, b, 500, 3500)
		sinkInt += CountIntersect(a, b)
		m.Mark(b)
		sinkInt += d.CountProbe(&m, a, 500, 3500) // probe
		m.Mark(a[:3])
		sinkInt += d.CountProbe(&m, hub, 0, NoVertex) // gallop
	})
	if allocs != 0 {
		t.Fatalf("count kernels allocated %.0f times per run, want 0", allocs)
	}
}

var sinkInt int

// naiveCount is |{x ∈ a : lo ≤ x < hi, x ∈ b}|, or with subtract the x ∉ b:
// the loop every bounded kernel is held to.
func naiveCount(a, b []graph.VertexID, lo, hi graph.VertexID, subtract bool) int {
	n := 0
	for _, x := range a {
		if x >= lo && x < hi && Contains(b, x) != subtract {
			n++
		}
	}
	return n
}

// boundRun returns the bounds one mark set sees through a run, in order: hi
// rising with a repeat, as a descending plan's children bring them, then a
// fall; lo rising with a repeat, as an ascending plan's do, then a fall; both
// sides set; lo ≥ hi; and every pair of the edge values.
func boundRun(rng *rand.Rand, max int) [][2]graph.VertexID {
	rising := func() []graph.VertexID {
		vs := []graph.VertexID{graph.VertexID(rng.Intn(max + 20)), graph.VertexID(rng.Intn(max + 20)), graph.VertexID(rng.Intn(max + 20))}
		slices.Sort(vs)
		return append(vs, vs[2], vs[0]/2)
	}
	var run [][2]graph.VertexID
	for _, hi := range rising() {
		run = append(run, [2]graph.VertexID{0, hi})
	}
	for _, lo := range rising() {
		run = append(run, [2]graph.VertexID{lo, NoVertex})
	}
	both := rising()
	run = append(run, [2]graph.VertexID{both[0], both[2]}, [2]graph.VertexID{both[2], both[0]})
	edge := []graph.VertexID{0, 1, NoVertex - 1, NoVertex}
	for _, lo := range edge {
		for _, hi := range edge {
			run = append(run, [2]graph.VertexID{lo, hi})
		}
	}
	return run
}

// TestCountKernelsMatchNaive holds every bounded kernel — materializing and
// counting, under each kernel the dispatcher can pick, and the probe of a
// mark set built from either list — to a naive loop, over empty lists and
// the bounds of boundRun: each mark set is built once per pair of lists and
// probed through the whole run, so its remembered cut moves forward, repeats,
// falls back and meets lo ≥ hi and bounds outside both lists. CountProbe must
// enter a kernel exactly when CountBounded does, and Bitmap.Clip must cut
// where Clip does. Re-marking a shorter list after a far cut must not reuse
// the cut.
func TestCountKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(20230325))
	var counts [NumKernels]uint64
	var marks [2]Bitmap
	for trial := 0; trial < 400; trial++ {
		// Lopsided sizes reach gallop, comparable ones merge.
		d := Dispatcher{Counts: &counts}
		max := 40 + rng.Intn(400)
		a := randSorted(rng, rng.Intn(40), max)
		b := randSorted(rng, rng.Intn(max/2), max)
		if trial%7 == 0 {
			a = nil
		}
		if trial%11 == 0 {
			b = nil
		}
		sides := [2][2][]graph.VertexID{{a, b}, {b, a}}
		for i, side := range sides {
			if !marks[i].Mark(side[0]) {
				t.Fatalf("Mark refused %v", side[0])
			}
		}
		for _, r := range boundRun(rng, max) {
			lo, hi := r[0], r[1]
			want := naiveCount(a, b, lo, hi, false)
			if got := d.CountBounded(a, b, lo, hi); got != want {
				t.Fatalf("CountBounded(%v, %v, lo=%d, hi=%d) = %d, want %d", a, b, lo, hi, got, want)
			}
			if got := d.CountBounded(b, a, lo, hi); got != want {
				t.Fatalf("CountBounded swapped(%v, %v, lo=%d, hi=%d) = %d, want %d", a, b, lo, hi, got, want)
			}
			for i, side := range sides {
				m := &marks[i]
				var probed, bounded [NumKernels]uint64
				pd, bd := Dispatcher{Counts: &probed}, Dispatcher{Counts: &bounded}
				if got := pd.CountProbe(m, side[1], lo, hi); got != want {
					t.Fatalf("CountProbe(marked %v, %v, lo=%d, hi=%d) = %d, want %d", side[0], side[1], lo, hi, got, want)
				}
				bd.CountBounded(side[0], side[1], lo, hi)
				if probed[KernelProbe]+probed[KernelGallop] != bounded[KernelMerge]+bounded[KernelGallop] || probed[KernelMerge] != 0 {
					t.Fatalf("CountProbe(marked %v, %v, lo=%d, hi=%d) entered %v, CountBounded %v", side[0], side[1], lo, hi, probed, bounded)
				}
				x, l := Clip(side[0], lo, hi), Clip(side[1], lo, hi)
				if got := m.Clip(lo, hi); !equal(got, x) {
					t.Fatalf("Bitmap.Clip(marked %v, lo=%d, hi=%d) = %v, want %v", side[0], lo, hi, got, x)
				}
				if gallop := len(x) > 0 && len(l) >= gallopRatio*len(x); (probed[KernelGallop] == 1) != gallop {
					t.Fatalf("CountProbe(marked %v, %v, lo=%d, hi=%d) entered %v, want gallop %v", side[0], side[1], lo, hi, probed, gallop)
				}
				counts[KernelProbe] += probed[KernelProbe]
			}
			if got := len(d.IntersectBounded(nil, a, b, lo, hi)); got != want {
				t.Fatalf("IntersectBounded(%v, %v, lo=%d, hi=%d) has %d elements, want %d", a, b, lo, hi, got, want)
			}
			if got, want := d.CountSubtract(a, b, lo, hi), naiveCount(a, b, lo, hi, true); got != want {
				t.Fatalf("CountSubtract(%v, %v, lo=%d, hi=%d) = %d, want %d", a, b, lo, hi, got, want)
			}
			if got, want := len(Clip(a, lo, hi)), naiveCount(a, nil, lo, hi, true); got != want {
				t.Fatalf("Clip(%v, lo=%d, hi=%d) keeps %d, want %d", a, lo, hi, got, want)
			}
		}
		if got, want := CountIntersect(a, b), naiveCount(a, b, 0, NoVertex, false); got != want {
			t.Fatalf("CountIntersect(%v, %v) = %d, want %d", a, b, got, want)
		}
		// A cut past the end of a, then half of a marked: the next cuts at or
		// beyond the old bound must start over in the shorter list.
		far := NoVertex - 1
		marks[0].Clip(far, NoVertex)
		short := a[:len(a)/2]
		marks[0].Mark(short)
		for _, r := range [][2]graph.VertexID{{far, NoVertex}, {0, far}, {far, far + 1}} {
			if got, want := (&Dispatcher{}).CountProbe(&marks[0], b, r[0], r[1]), naiveCount(short, b, r[0], r[1], false); got != want {
				t.Fatalf("CountProbe after re-marking %v (lo=%d, hi=%d) = %d, want %d", short, r[0], r[1], got, want)
			}
		}
	}
	if counts[KernelMerge] == 0 || counts[KernelGallop] == 0 || counts[KernelProbe] == 0 {
		t.Fatalf("a pairwise kernel never ran: merge/gallop/bitmap/probe = %v", counts)
	}
}

// BenchmarkCountBoundedMerge is the counting merge on a skewed pair below
// the gallop ratio, with a restriction that discards the lower half of both
// lists.
func BenchmarkCountBoundedMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randSorted(rng, 20000, 1<<20)
	hub := randSorted(rng, 100000, 1<<20)
	var d Dispatcher
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt += d.CountBounded(a, hub, 1<<19, NoVertex)
	}
}

// BenchmarkCountProbe is BenchmarkCountBoundedMerge's pair as a probed
// level sees it: the long list marked once, the short one probed against it
// under the same restriction, each call O(|short|) with no term for the
// marked list.
func BenchmarkCountProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randSorted(rng, 5000, 1<<18)
	hub := randSorted(rng, 25000, 1<<18)
	var d Dispatcher
	var m Bitmap
	if !m.Mark(hub) {
		b.Fatal("Mark refused the hub")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt += d.CountProbe(&m, a, 1<<17, NoVertex)
	}
}

// BenchmarkCountProbeRun is TC's last level as a run of a descending plan
// sees it: one hub v0 marked once, then each of its neighbors v1 in ascending
// order probing its own list under hi = v1, so the marked side's cut moves
// forward through the run. One op is the whole run.
func BenchmarkCountProbeRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	hub := randSorted(rng, 4000, 1<<16)
	lists := make([][]graph.VertexID, len(hub))
	for i := range lists {
		lists[i] = randSorted(rng, 8+rng.Intn(120), 1<<16)
	}
	var d Dispatcher
	var m Bitmap
	if !m.Mark(hub) {
		b.Fatal("Mark refused the hub")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range hub {
			sinkInt += d.CountProbe(&m, lists[j], 0, v)
		}
	}
}

// TestIntersectRowMatchesNaive holds the dense-row kernel to a naive loop
// under each kernel the dispatcher can pick — merge, and gallop from either
// side — at offsets that put the row across word boundaries, and checks the
// ledger entry and that the row's other bits stay as they were.
func TestIntersectRowMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(20230325))
	var counts [NumKernels]uint64
	d := Dispatcher{Counts: &counts}
	for trial := 0; trial < 300; trial++ {
		max := 50 + rng.Intn(3000)
		a := randSorted(rng, rng.Intn(min(200, max)), max)
		b := randSorted(rng, rng.Intn(max), max)
		switch trial % 3 {
		case 1:
			b = b[:min(len(b), 3)] // a ≥ 32·b: gallop b into a
		case 2:
			a = a[:min(len(a), 2)] // b ≥ 32·a: gallop a into b
		}
		base := rng.Intn(130)
		row := make([]uint64, (base+len(a)+63)/64+1)
		row[len(row)-1] = 0xF0F0
		d.IntersectRow(row, a, base, b)
		for i := 0; i < 64*(len(row)-1); i++ {
			want := i >= base && i < base+len(a) && Contains(b, a[i-base])
			if got := row[i>>6]&(1<<(i&63)) != 0; got != want {
				t.Fatalf("trial %d: bit %d = %v, want %v (a=%v b=%v base=%d)", trial, i, got, want, a, b, base)
			}
		}
		if row[len(row)-1] != 0xF0F0 {
			t.Fatalf("trial %d: IntersectRow wrote past a's indices", trial)
		}
	}
	if counts[KernelMerge] == 0 || counts[KernelGallop] == 0 {
		t.Fatalf("merge/gallop = %v, want both entered", counts)
	}
}

package pattern

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"khuzdul/internal/graph"
)

func TestBasicAccessors(t *testing.T) {
	p := Triangle()
	if p.NumVertices() != 3 || p.NumEdges() != 3 {
		t.Fatalf("triangle: n=%d m=%d", p.NumVertices(), p.NumEdges())
	}
	for v := 0; v < 3; v++ {
		if p.Degree(v) != 2 {
			t.Fatalf("triangle degree(%d) = %d", v, p.Degree(v))
		}
	}
	if !p.HasEdge(0, 2) || p.HasEdge(0, 0) {
		t.Fatal("HasEdge wrong")
	}
}

func TestNeighbors(t *testing.T) {
	p := StarP(4)
	if got := p.Neighbors(0); len(got) != 3 {
		t.Fatalf("hub neighbors = %v", got)
	}
	if got := p.Neighbors(2); len(got) != 1 || got[0] != 0 {
		t.Fatalf("leaf neighbors = %v", got)
	}
}

func TestConnected(t *testing.T) {
	if !PathP(5).Connected() {
		t.Fatal("path should be connected")
	}
	disc := New(4)
	disc.AddEdge(0, 1)
	disc.AddEdge(2, 3)
	if disc.Connected() {
		t.Fatal("two disjoint edges reported connected")
	}
	if !New(1).Connected() {
		t.Fatal("single vertex should be connected")
	}
}

func TestNamedPatternShapes(t *testing.T) {
	cases := []struct {
		p      *Pattern
		n, m   int
		degSeq []int
	}{
		{Clique(5), 5, 10, []int{4, 4, 4, 4, 4}},
		{CycleP(4), 4, 4, []int{2, 2, 2, 2}},
		{PathP(4), 4, 3, []int{2, 2, 1, 1}},
		{StarP(5), 5, 4, []int{4, 1, 1, 1, 1}},
		{TailedTriangle(), 4, 4, []int{3, 2, 2, 1}},
		{Diamond(), 4, 5, []int{3, 3, 2, 2}},
		{House(), 5, 6, []int{3, 3, 2, 2, 2}},
	}
	for i, c := range cases {
		if c.p.NumVertices() != c.n || c.p.NumEdges() != c.m {
			t.Errorf("case %d: n=%d m=%d want %d,%d", i, c.p.NumVertices(), c.p.NumEdges(), c.n, c.m)
		}
		got := c.p.DegreeSequence()
		for j := range got {
			if got[j] != c.degSeq[j] {
				t.Errorf("case %d: degseq %v want %v", i, got, c.degSeq)
				break
			}
		}
		if !c.p.Connected() {
			t.Errorf("case %d: not connected", i)
		}
	}
}

func TestParse(t *testing.T) {
	for _, name := range []string{"triangle", "K4", "4-clique", "C5", "5-cycle",
		"P3", "3-path", "S4", "4-star", "diamond", "house", "tailed-triangle",
		"edge", "wedge"} {
		if _, err := Parse(name); err != nil {
			t.Errorf("Parse(%q): %v", name, err)
		}
	}
	p, err := Parse("4:0-1,1-2,2-3,3-0")
	if err != nil {
		t.Fatal(err)
	}
	if !Isomorphic(p, CycleP(4)) {
		t.Fatal("explicit edge list not isomorphic to C4")
	}
	for _, bad := range []string{"nope", "K99", "3:0-0", "3:0-5", "x:1-2"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestIsomorphic(t *testing.T) {
	a := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	b := FromEdges(4, [][2]int{{0, 2}, {2, 1}, {1, 3}, {3, 0}})
	if !Isomorphic(a, b) {
		t.Fatal("two 4-cycles not isomorphic")
	}
	if Isomorphic(CycleP(4), PathP(4)) {
		t.Fatal("C4 isomorphic to P4")
	}
	if Isomorphic(Clique(3), Clique(4)) {
		t.Fatal("different sizes isomorphic")
	}
	// Same degree sequence, not isomorphic: C6 vs two triangles is
	// disconnected; use C6 vs prism-minus? Use K1,3+edge vs P5 variants:
	x := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}) // C6
	y := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}) // 2×C3
	if Isomorphic(x, y) {
		t.Fatal("C6 isomorphic to 2 triangles")
	}
}

func TestIsomorphicLabeled(t *testing.T) {
	a := PathP(3).WithLabels([]graph.Label{1, 2, 1})
	b := PathP(3).WithLabels([]graph.Label{1, 2, 1})
	c := PathP(3).WithLabels([]graph.Label{2, 1, 1})
	if !Isomorphic(a, b) {
		t.Fatal("identical labeled paths not isomorphic")
	}
	if Isomorphic(a, c) {
		t.Fatal("differently labeled paths isomorphic")
	}
	// Reversal is an isomorphism.
	d := PathP(3).WithLabels([]graph.Label{1, 2, 3})
	e := PathP(3).WithLabels([]graph.Label{3, 2, 1})
	if !Isomorphic(d, e) {
		t.Fatal("reversed labeled path not isomorphic")
	}
}

func TestAutomorphismCounts(t *testing.T) {
	cases := []struct {
		name string
		p    *Pattern
		want int
	}{
		{"K3", Clique(3), 6},
		{"K4", Clique(4), 24},
		{"C4", CycleP(4), 8},
		{"C5", CycleP(5), 10},
		{"P3", PathP(3), 2},
		{"P4", PathP(4), 2},
		{"S4", StarP(4), 6},
		{"diamond", Diamond(), 4},
		{"tailed-triangle", TailedTriangle(), 2},
	}
	for _, c := range cases {
		if got := len(Automorphisms(c.p)); got != c.want {
			t.Errorf("%s: |Aut| = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAutomorphismsLabeledShrink(t *testing.T) {
	// Labeling the triangle with distinct labels kills all symmetry.
	p := Clique(3).WithLabels([]graph.Label{1, 2, 3})
	if got := len(Automorphisms(p)); got != 1 {
		t.Fatalf("|Aut| = %d, want 1", got)
	}
	q := Clique(3).WithLabels([]graph.Label{1, 1, 2})
	if got := len(Automorphisms(q)); got != 2 {
		t.Fatalf("|Aut| = %d, want 2", got)
	}
}

func TestCanonicalCodeInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		p := New(n)
		// Random connected-ish pattern: random spanning path + extras.
		for v := 0; v+1 < n; v++ {
			p.AddEdge(v, v+1)
		}
		for e := 0; e < rng.Intn(5); e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				p.AddEdge(u, v)
			}
		}
		perm := rng.Perm(n)
		return CanonicalCode(p) == CanonicalCode(p.Relabel(perm))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalCodeDistinguishes(t *testing.T) {
	if CanonicalCode(CycleP(4)) == CanonicalCode(PathP(4)) {
		t.Fatal("C4 and P4 share canonical code")
	}
	if CanonicalCode(Diamond()) == CanonicalCode(CycleP(4)) {
		t.Fatal("diamond and C4 share canonical code")
	}
}

func TestConnectedPatternsCounts(t *testing.T) {
	// Known counts of connected graphs on k nodes: 1, 2, 6, 21.
	want := map[int]int{2: 1, 3: 2, 4: 6, 5: 21}
	for k, n := range want {
		got := ConnectedPatterns(k)
		if len(got) != n {
			t.Errorf("ConnectedPatterns(%d) = %d patterns, want %d", k, len(got), n)
		}
		seen := map[string]bool{}
		for _, p := range got {
			if p.NumVertices() != k || !p.Connected() {
				t.Errorf("ConnectedPatterns(%d) returned invalid %v", k, p)
			}
			code := CanonicalCode(p)
			if seen[code] {
				t.Errorf("ConnectedPatterns(%d) returned duplicates", k)
			}
			seen[code] = true
		}
	}
}

// TestConnectedPatternsMemoized: a second call costs nothing, returns the
// same patterns in edge-count order, and hands out a slice of its own.
func TestConnectedPatternsMemoized(t *testing.T) {
	a, b := ConnectedPatterns(5), ConnectedPatterns(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pattern %d recomputed", i)
		}
		if i > 0 && a[i-1].NumEdges() > a[i].NumEdges() {
			t.Fatalf("pattern %d has %d edges after one with %d", i, a[i].NumEdges(), a[i-1].NumEdges())
		}
	}
	a[0] = nil
	if ConnectedPatterns(5)[0] == nil {
		t.Fatal("callers share the memoized slice")
	}
	if allocs := testing.AllocsPerRun(10, func() { ConnectedPatterns(5) }); allocs > 1 {
		t.Errorf("memoized ConnectedPatterns allocates %.0f times", allocs)
	}
}

func TestMotifSizeRange(t *testing.T) {
	for _, k := range []int{-1, 0, 1, 7, 11} {
		if err := CheckMotifSize(k); !errors.Is(err, ErrMotifSize) {
			t.Errorf("CheckMotifSize(%d) = %v", k, err)
		}
		if _, _, err := InducedCounts(k, nil); !errors.Is(err, ErrMotifSize) {
			t.Errorf("InducedCounts(%d) = %v", k, err)
		}
	}
	for k := MinMotifSize; k <= MaxMotifSize; k++ {
		if err := CheckMotifSize(k); err != nil {
			t.Error(err)
		}
	}
}

// TestInducedCountsChecked: counts no graph produces are an error, never a
// wrapped number — a triangle count three times too large for the wedges, a
// product past uint64, a vector of the wrong length.
func TestInducedCountsChecked(t *testing.T) {
	if got, total, err := InducedCounts(3, []uint64{10, 2}); err != nil || got[0] != 4 || got[1] != 2 || total != 6 {
		t.Fatalf("InducedCounts(3, [10 2]) = %v, %d, %v", got, total, err)
	}
	for _, bad := range [][]uint64{{10, 4}, {math.MaxUint64, math.MaxUint64/3 + 1}, {10}, {10, 2, 1}} {
		if got, _, err := InducedCounts(3, bad); !errors.Is(err, ErrMotifConversion) {
			t.Errorf("InducedCounts(3, %v) = %v, %v", bad, got, err)
		}
	}
	// Two sparse 4-patterns whose induced counts each fit but sum past uint64.
	if _, total, err := InducedCounts(4, []uint64{math.MaxUint64, math.MaxUint64, 0, 0, 0, 0}); !errors.Is(err, ErrMotifConversion) {
		t.Errorf("InducedCounts(4) total = %d, %v", total, err)
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	p := Diamond()
	q := p.Relabel([]int{3, 2, 1, 0})
	if !Isomorphic(p, q) {
		t.Fatal("relabeled pattern not isomorphic")
	}
	if q.NumEdges() != p.NumEdges() {
		t.Fatal("relabel changed edge count")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := PathP(3)
	q := p.Clone()
	q.AddEdge(0, 2)
	if p.HasEdge(0, 2) {
		t.Fatal("Clone shares adjacency storage")
	}
}

func TestStringRendering(t *testing.T) {
	s := Triangle().String()
	if s == "" {
		t.Fatal("empty String()")
	}
	ls := Triangle().WithLabels([]graph.Label{5, 6, 7}).String()
	if ls == s {
		t.Fatal("labeled String() identical to unlabeled")
	}
}

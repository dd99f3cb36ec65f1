package graph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self-loop
	b.AddEdge(1, 3)
	g := b.Build()
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if got := g.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("Neighbors(1) = %v, want [0 3]", got)
	}
	if g.Degree(2) != 0 {
		t.Fatalf("Degree(2) = %d, want 0 (self-loop dropped)", g.Degree(2))
	}
}

func TestBuilderGrowsVertexCount(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(5, 9)
	g := b.Build()
	if g.NumVertices() != 10 {
		t.Fatalf("NumVertices = %d, want 10", g.NumVertices())
	}
}

func TestAdjacencySorted(t *testing.T) {
	g := RMATDefault(1000, 5000, 42)
	for v := 0; v < g.NumVertices(); v++ {
		adj := g.Neighbors(VertexID(v))
		for i := 1; i < len(adj); i++ {
			if adj[i-1] >= adj[i] {
				t.Fatalf("adjacency of %d not strictly sorted: %v", v, adj)
			}
		}
	}
}

func TestSymmetry(t *testing.T) {
	g := Uniform(500, 2000, 7)
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(VertexID(v)) {
			if !g.HasEdge(u, VertexID(v)) {
				t.Fatalf("edge (%d,%d) present but (%d,%d) missing", v, u, u, v)
			}
		}
	}
}

func TestHasEdge(t *testing.T) {
	g := Complete(5)
	for u := VertexID(0); u < 5; u++ {
		for v := VertexID(0); v < 5; v++ {
			want := u != v
			if got := g.HasEdge(u, v); got != want {
				t.Fatalf("HasEdge(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
	if g.HasEdge(0, 0) {
		t.Fatal("HasEdge(0,0) = true on K5")
	}
}

func TestStructuredGenerators(t *testing.T) {
	cases := []struct {
		name  string
		g     *Graph
		n     int
		m     uint64
		maxDe uint32
	}{
		{"K6", Complete(6), 6, 15, 5},
		{"C10", Cycle(10), 10, 10, 2},
		{"P7", Path(7), 7, 6, 2},
		{"Star9", Star(9), 9, 8, 8},
		{"Grid3x4", Grid(3, 4), 12, 17, 4},
	}
	for _, c := range cases {
		if c.g.NumVertices() != c.n {
			t.Errorf("%s: |V| = %d, want %d", c.name, c.g.NumVertices(), c.n)
		}
		if c.g.NumEdges() != c.m {
			t.Errorf("%s: |E| = %d, want %d", c.name, c.g.NumEdges(), c.m)
		}
		if c.g.MaxDegree() != c.maxDe {
			t.Errorf("%s: maxdeg = %d, want %d", c.name, c.g.MaxDegree(), c.maxDe)
		}
	}
}

func TestRMATSkewedVsUniform(t *testing.T) {
	// The R-MAT generator must produce a heavier tail than the uniform one;
	// this is what the dataset presets rely on.
	rm := RMATDefault(1<<12, 40000, 1)
	un := Uniform(1<<12, 40000, 1)
	if rm.MaxDegree() <= 2*un.MaxDegree() {
		t.Fatalf("R-MAT max degree %d not clearly above uniform %d",
			rm.MaxDegree(), un.MaxDegree())
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := RMATDefault(256, 1024, 99)
	b := RMATDefault(256, 1024, 99)
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed, different edge counts: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		av, bv := a.Neighbors(VertexID(v)), b.Neighbors(VertexID(v))
		if len(av) != len(bv) {
			t.Fatalf("vertex %d: degree mismatch", v)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("vertex %d: adjacency mismatch", v)
			}
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := RMATDefault(200, 800, 5)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip edges: %d vs %d", g2.NumEdges(), g.NumEdges())
	}
	// Trailing isolated vertices are not representable in edge-list text,
	// so compare over the round-tripped vertex count.
	for v := 0; v < g2.NumVertices(); v++ {
		a, b := g.Neighbors(VertexID(v)), g2.Neighbors(VertexID(v))
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree mismatch after round trip", v)
		}
	}
}

func TestEdgeListComments(t *testing.T) {
	in := "# comment\n% another\n0 1\n\n1 2\n"
	g, err := ReadEdgeList(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 || g.NumVertices() != 3 {
		t.Fatalf("got |V|=%d |E|=%d, want 3, 2", g.NumVertices(), g.NumEdges())
	}
}

func TestEdgeListMalformed(t *testing.T) {
	if _, err := ReadEdgeList(bytes.NewBufferString("0\n")); err == nil {
		t.Fatal("want error for single-field line")
	}
	if _, err := ReadEdgeList(bytes.NewBufferString("a b\n")); err == nil {
		t.Fatal("want error for non-numeric vertex")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g0 := RMATDefault(300, 1200, 11)
	g, err := g0.WithLabels(RandomLabels(300, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch after binary round trip")
	}
	if !g2.Labeled() {
		t.Fatal("labels lost in binary round trip")
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.Label(VertexID(v)) != g2.Label(VertexID(v)) {
			t.Fatalf("label mismatch at %d", v)
		}
		a, b := g.Neighbors(VertexID(v)), g2.Neighbors(VertexID(v))
		if len(a) != len(b) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("adjacency mismatch at %d", v)
			}
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewBufferString("not a graph at all........")); err == nil {
		t.Fatal("want error for bad magic")
	}
}

func TestFromCSRValidation(t *testing.T) {
	if _, err := FromCSR([]uint64{0, 2}, []VertexID{3, 1}, nil); err == nil {
		t.Fatal("want error for unsorted adjacency")
	}
	if _, err := FromCSR([]uint64{0, 1}, []VertexID{}, nil); err == nil {
		t.Fatal("want error for offsets/edges mismatch")
	}
	if _, err := FromCSR([]uint64{0, 1, 2}, []VertexID{1, 0}, []Label{1, 2, 3}); err == nil {
		t.Fatal("want error for label length mismatch")
	}
	if _, err := FromCSR([]uint64{0, 1}, []VertexID{0}, nil); err == nil {
		t.Fatal("want error for self-loop")
	}
	if _, err := FromCSR([]uint64{0, 1, 2}, []VertexID{7, 0}, nil); err == nil {
		t.Fatal("want error for a neighbor past the last vertex")
	}
}

// TestReadBinaryRejectsHostileFiles feeds ReadBinary files whose header or
// offsets lie: each must come back as an error, without a panic and without
// allocating for what the header claims instead of what the file holds.
func TestReadBinaryRejectsHostileFiles(t *testing.T) {
	if g, err := readBinaryBounded(t, validBinary()); err != nil || g.NumVertices() != 3 || g.NumEdges() != 3 || g.Label(1) != 1 {
		t.Fatalf("valid triangle: %v, %v", g, err)
	}
	for name, p := range hostileBinaries() {
		t.Run(name, func(t *testing.T) {
			if g, err := readBinaryBounded(t, p); err == nil {
				t.Fatalf("accepted %v", g)
			}
		})
	}
}

// TestDegenerateGeneratorSizes holds the random generators to sizes where no
// edge fits: fewer than two vertices yield the edgeless graph, promptly, and
// fewer than one label counts as one.
func TestDegenerateGeneratorSizes(t *testing.T) {
	for _, c := range []struct {
		name string
		gen  func() *Graph
		n    int
	}{
		{"rmat 1:10", func() *Graph { return RMATDefault(1, 10, 1) }, 1},
		{"rmat 0:5", func() *Graph { return RMATDefault(0, 5, 1) }, 0},
		{"uniform 1:3", func() *Graph { return Uniform(1, 3, 1) }, 1},
		{"uniform 0:5", func() *Graph { return Uniform(0, 5, 1) }, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			done := make(chan *Graph, 1)
			go func() { done <- c.gen() }()
			select {
			case g := <-done:
				if g.NumVertices() != c.n || g.NumEdges() != 0 {
					t.Fatalf("got |V|=%d |E|=%d, want %d, 0", g.NumVertices(), g.NumEdges(), c.n)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("generator still drawing after 10s")
			}
		})
	}
	for _, k := range []int{0, -2} {
		for _, l := range RandomLabels(16, k, 5) {
			if l != 0 {
				t.Fatalf("RandomLabels(16, %d) drew label %d, want only 0", k, l)
			}
		}
	}
}

func TestIDSkew(t *testing.T) {
	// Star with the hub at ID 0: the hub has n-1 up-neighbors, each leaf one
	// down-neighbor.
	up, down := Star(11).IDSkew()
	if up != 100 || down != 10 {
		t.Fatalf("star IDSkew = (%v, %v), want (100, 10)", up, down)
	}
	// A relabeled copy shares the adjacency and the memoized statistics.
	g := RMATDefault(200, 1200, 3)
	lg, err := g.WithLabels(RandomLabels(g.NumVertices(), 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if lg.stats != g.stats {
		t.Fatal("labeled copy does not share the memoized statistics")
	}
	gu, gd := g.IDSkew()
	var wantUp, wantDown float64
	for v := 0; v < g.NumVertices(); v++ {
		u, d := 0, 0
		for _, w := range g.Neighbors(VertexID(v)) {
			if w > VertexID(v) {
				u++
			} else {
				d++
			}
		}
		wantUp += float64(u * u)
		wantDown += float64(d * d)
	}
	if gu != wantUp || gd != wantDown {
		t.Fatalf("IDSkew = (%v, %v), want (%v, %v)", gu, gd, wantUp, wantDown)
	}
}

func TestOrientCountsHalve(t *testing.T) {
	g := RMATDefault(500, 3000, 13)
	d := Orient(g)
	if d.NumDirectedEdges() != g.NumEdges() {
		t.Fatalf("oriented directed edges %d, want undirected count %d",
			d.NumDirectedEdges(), g.NumEdges())
	}
	// Every directed edge goes up in (degree, id) rank; hence acyclic.
	for v := 0; v < d.NumVertices(); v++ {
		for _, u := range d.Neighbors(VertexID(v)) {
			dv, du := g.Degree(VertexID(v)), g.Degree(u)
			if du < dv || (du == dv && u < VertexID(v)) {
				t.Fatalf("edge %d->%d violates rank order", v, u)
			}
		}
	}
}

func TestOrientReducesMaxDegree(t *testing.T) {
	g := Star(1000)
	d := Orient(g)
	// The hub has max rank, so its out-degree must be 0 after orientation.
	if d.Degree(0) != 0 {
		t.Fatalf("hub out-degree = %d, want 0", d.Degree(0))
	}
}

func TestWithLabels(t *testing.T) {
	g := Path(4)
	if _, err := g.WithLabels([]Label{1, 2}); err == nil {
		t.Fatal("want error for wrong label count")
	}
	lg, err := g.WithLabels([]Label{3, 1, 4, 1})
	if err != nil {
		t.Fatal(err)
	}
	if lg.Label(2) != 4 {
		t.Fatalf("Label(2) = %d, want 4", lg.Label(2))
	}
	if g.Labeled() {
		t.Fatal("WithLabels mutated the receiver")
	}
}

// quickGraph generates a random small graph for property tests.
func quickGraph(rng *rand.Rand) *Graph {
	n := 2 + rng.Intn(30)
	m := uint64(rng.Intn(3 * n))
	return Uniform(n, m, rng.Int63())
}

func TestPropertySymmetricDegreeSum(t *testing.T) {
	// Sum of degrees is exactly twice the edge count for any built graph.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := quickGraph(rng)
		var sum uint64
		for v := 0; v < g.NumVertices(); v++ {
			sum += uint64(g.Degree(VertexID(v)))
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyOrientPartition(t *testing.T) {
	// Orientation keeps exactly one direction of every undirected edge.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := quickGraph(rng)
		d := Orient(g)
		seen := uint64(0)
		for v := 0; v < d.NumVertices(); v++ {
			for _, u := range d.Neighbors(VertexID(v)) {
				if !g.HasEdge(VertexID(v), u) {
					return false
				}
				seen++
			}
		}
		return seen == g.NumEdges()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

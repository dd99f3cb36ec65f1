package khuzdul_test

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"khuzdul"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

func open(t *testing.T, g *khuzdul.Graph, cfg khuzdul.Config) *khuzdul.Engine {
	t.Helper()
	eng, err := khuzdul.Open(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func TestTrianglesPublicAPI(t *testing.T) {
	g := khuzdul.RMAT(200, 1000, 7)
	want := plan.BruteForceCount(g, pattern.Triangle(), false)
	eng := open(t, g, khuzdul.Config{NumNodes: 4, ThreadsPerSocket: 2, CacheFraction: 0.1})
	res, err := eng.Triangles()
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("Triangles = %d, want %d", res.Count, want)
	}
	if res.Elapsed <= 0 || res.Summary.Extensions == 0 {
		t.Fatalf("metrics not populated: %+v", res)
	}
}

func TestCliquesAndSystems(t *testing.T) {
	g := khuzdul.RMAT(150, 800, 9)
	want := plan.BruteForceCount(g, pattern.Clique(4), false)
	eng := open(t, g, khuzdul.Config{NumNodes: 3, ThreadsPerSocket: 2})
	for _, sys := range []khuzdul.System{khuzdul.Automine, khuzdul.GraphPi} {
		eng.SetSystem(sys)
		res, err := eng.Cliques(4)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Fatalf("%v Cliques(4) = %d, want %d", sys, res.Count, want)
		}
	}
	// A clique size no pattern can hold is an error, not a panic.
	for _, k := range []int{0, pattern.MaxVertices + 1} {
		if _, err := eng.Cliques(k); err == nil {
			t.Errorf("Cliques(%d) returned no error", k)
		}
	}
}

func TestMotifsPublicAPI(t *testing.T) {
	g := khuzdul.RMAT(100, 500, 11)
	eng := open(t, g, khuzdul.Config{NumNodes: 2, ThreadsPerSocket: 2})
	per, combined, err := eng.Motifs(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 2 {
		t.Fatalf("3-motifs: %d patterns", len(per))
	}
	var sum uint64
	for _, m := range per {
		if m.Pattern == nil {
			t.Fatal("nil pattern in motif result")
		}
		sum += m.Count
	}
	if sum != combined.Count {
		t.Fatalf("per-pattern sum %d != combined %d", sum, combined.Count)
	}
	for _, m := range per {
		if want := plan.BruteForceCount(g, m.Pattern, true); m.Count != want {
			t.Errorf("induced %v = %d, want %d", m.Pattern, m.Count, want)
		}
	}
	// A motif size the pattern enumerator cannot reach is an error — it used
	// to panic — from the count and from its explanation alike.
	for _, k := range []int{1, 7} {
		if _, _, err := eng.Motifs(k); !errors.Is(err, khuzdul.ErrMotifSize) {
			t.Errorf("Motifs(%d) = %v, want ErrMotifSize", k, err)
		}
		if _, err := eng.ExplainMotifs(k); !errors.Is(err, khuzdul.ErrMotifSize) {
			t.Errorf("ExplainMotifs(%d) = %v, want ErrMotifSize", k, err)
		}
	}
	// The explanation lists the plans that run — non-induced, the wedge
	// folded — and how their counts convert.
	s, err := eng.ExplainMotifs(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mode:    non-induced", "levels 1–2 folded (count-only)",
		"conversion: induced[0] = count[0] − 3·induced[1]\n", "conversion: induced[1] = count[1]\n",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("ExplainMotifs(3) missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "mode:    induced") {
		t.Errorf("ExplainMotifs(3) shows an induced plan:\n%s", s)
	}
}

func TestCountPatternByName(t *testing.T) {
	g := khuzdul.RMAT(100, 600, 13)
	p, err := khuzdul.ParsePattern("diamond")
	if err != nil {
		t.Fatal(err)
	}
	want := plan.BruteForceCount(g, p, true)
	eng := open(t, g, khuzdul.Config{NumNodes: 2, ThreadsPerSocket: 2})
	res, err := eng.CountPattern(p, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("induced diamond = %d, want %d", res.Count, want)
	}
}

func TestMineFrequentPublicAPI(t *testing.T) {
	g0 := khuzdul.RMAT(120, 500, 17)
	g, err := g0.WithLabels(khuzdul.RandomLabels(120, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	eng := open(t, g, khuzdul.Config{NumNodes: 2, ThreadsPerSocket: 2})
	fps, elapsed, err := eng.MineFrequent(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	for _, fp := range fps {
		if fp.Support < 5 {
			t.Fatalf("support %d below threshold", fp.Support)
		}
	}
}

func TestTCPTransportPublicAPI(t *testing.T) {
	g := khuzdul.RMAT(120, 600, 19)
	want := plan.BruteForceCount(g, pattern.Triangle(), false)
	eng := open(t, g, khuzdul.Config{NumNodes: 3, ThreadsPerSocket: 2, Transport: khuzdul.TransportTCP})
	res, err := eng.Triangles()
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("TCP Triangles = %d, want %d", res.Count, want)
	}
	if res.Summary.BytesSent == 0 {
		t.Fatal("no traffic over TCP")
	}
}

func TestGraphIORoundTripPublicAPI(t *testing.T) {
	g := khuzdul.Uniform(100, 400, 21)
	var buf bytes.Buffer
	if err := khuzdul.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := khuzdul.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("binary round trip lost edges")
	}
}

func TestOpenBadPolicy(t *testing.T) {
	if _, err := khuzdul.ParseCachePolicy("bogus"); err == nil {
		t.Fatal("want error for bad cache policy name")
	}
	g := khuzdul.RMAT(50, 100, 23)
	if _, err := khuzdul.Open(g, khuzdul.Config{CachePolicy: khuzdul.CacheMRU + 1}); !errors.Is(err, khuzdul.ErrInvalidConfig) {
		t.Fatalf("Open with an unknown cache policy = %v, want ErrInvalidConfig", err)
	}
}

// TestOpenInvalidConfig: a cache fraction that sizes no finite cache is
// refused before any cache is built, not turned into a 2^63-byte bound.
func TestOpenInvalidConfig(t *testing.T) {
	g := khuzdul.RMAT(50, 100, 23)
	if _, err := khuzdul.Open(g, khuzdul.Config{CacheFraction: math.NaN()}); !errors.Is(err, khuzdul.ErrInvalidConfig) {
		t.Fatalf("Open with a NaN cache fraction = %v, want ErrInvalidConfig", err)
	}
}

func TestNUMAConfigPublicAPI(t *testing.T) {
	g := khuzdul.RMAT(150, 800, 27)
	want := plan.BruteForceCount(g, pattern.Triangle(), false)
	eng := open(t, g, khuzdul.Config{NumNodes: 2, Sockets: 2, ThreadsPerSocket: 1, CacheFraction: 0.05})
	res, err := eng.Triangles()
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("NUMA Triangles = %d, want %d", res.Count, want)
	}
}

func TestTinyChunkPublicAPI(t *testing.T) {
	g := khuzdul.RMAT(100, 500, 29)
	want := plan.BruteForceCount(g, pattern.Clique(4), false)
	eng := open(t, g, khuzdul.Config{NumNodes: 3, ThreadsPerSocket: 2, ChunkSize: 8})
	res, err := eng.Cliques(4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("tiny-chunk Cliques(4) = %d, want %d", res.Count, want)
	}
}

func TestEdgeLabeledGraphConstruction(t *testing.T) {
	g, err := khuzdul.FromLabeledEdges(0, []khuzdul.LabeledEdge{
		{U: 0, V: 1, Label: 3},
		{U: 1, V: 2, Label: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !g.EdgeLabeled() || g.NumEdges() != 2 {
		t.Fatalf("bad edge-labeled graph: %v", g)
	}
}

func TestOrientedPublicAPI(t *testing.T) {
	g := khuzdul.RMAT(200, 1200, 25)
	dag := khuzdul.Orient(g)
	if dag.NumDirectedEdges() != g.NumEdges() {
		t.Fatal("orientation edge count mismatch")
	}
}

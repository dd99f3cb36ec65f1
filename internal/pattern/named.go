package pattern

import (
	"fmt"
	"strconv"
	"strings"
)

// Triangle returns the 3-clique.
func Triangle() *Pattern { return Clique(3) }

// Clique returns the complete pattern K_k.
func Clique(k int) *Pattern {
	p := New(k)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			p.AddEdge(u, v)
		}
	}
	return p
}

// CycleP returns the k-cycle pattern, k ≥ 3.
func CycleP(k int) *Pattern {
	p := New(k)
	for v := 0; v < k; v++ {
		p.AddEdge(v, (v+1)%k)
	}
	return p
}

// PathP returns the k-vertex path pattern (a "(k-1)-chain").
func PathP(k int) *Pattern {
	p := New(k)
	for v := 0; v+1 < k; v++ {
		p.AddEdge(v, v+1)
	}
	return p
}

// StarP returns the k-vertex star: hub 0 connected to k-1 leaves.
func StarP(k int) *Pattern {
	p := New(k)
	for v := 1; v < k; v++ {
		p.AddEdge(0, v)
	}
	return p
}

// TailedTriangle returns a triangle with one pendant vertex.
func TailedTriangle() *Pattern {
	return FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 3}})
}

// Diamond returns the 4-clique minus one edge.
func Diamond() *Pattern {
	return FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 3}, {1, 3}})
}

// House returns the 5-vertex "house": a 4-cycle with a triangle roof.
func House() *Pattern {
	return FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}, {1, 4}})
}

// Parse returns a named pattern. Supported names: "triangle", "edge",
// "wedge", "Kk"/"k-clique" (e.g. "K4", "4-clique"), "Ck"/"k-cycle",
// "Pk"/"k-path", "Sk"/"k-star", "tailed-triangle", "diamond", "house",
// and explicit edge lists of the form "n:u-v,u-v,...".
func Parse(name string) (*Pattern, error) {
	s := strings.ToLower(strings.TrimSpace(name))
	switch s {
	case "edge":
		return PathP(2), nil
	case "wedge":
		return PathP(3), nil
	case "triangle":
		return Triangle(), nil
	case "tailed-triangle", "tailedtriangle":
		return TailedTriangle(), nil
	case "diamond":
		return Diamond(), nil
	case "house":
		return House(), nil
	}
	if n, ok := parsePrefixed(s, "k", "-clique"); ok {
		return Clique(n), nil
	}
	if n, ok := parsePrefixed(s, "c", "-cycle"); ok {
		if n < 3 {
			return nil, fmt.Errorf("pattern: %q: a cycle needs at least 3 vertices", name)
		}
		return CycleP(n), nil
	}
	if n, ok := parsePrefixed(s, "p", "-path"); ok {
		return PathP(n), nil
	}
	if n, ok := parsePrefixed(s, "s", "-star"); ok {
		return StarP(n), nil
	}
	if i := strings.IndexByte(s, ':'); i > 0 {
		return parseEdgeList(s[:i], s[i+1:])
	}
	return nil, fmt.Errorf("pattern: unknown pattern %q", name)
}

// parsePrefixed handles both "K4"-style and "4-clique"-style names.
func parsePrefixed(s, letter, suffix string) (int, bool) {
	if strings.HasPrefix(s, letter) {
		if n, err := strconv.Atoi(s[len(letter):]); err == nil && n >= 2 && n <= MaxVertices {
			return n, true
		}
	}
	if strings.HasSuffix(s, suffix) {
		if n, err := strconv.Atoi(strings.TrimSuffix(s, suffix)); err == nil && n >= 2 && n <= MaxVertices {
			return n, true
		}
	}
	return 0, false
}

func parseEdgeList(ns, es string) (*Pattern, error) {
	n, err := strconv.Atoi(ns)
	if err != nil || n < 1 || n > MaxVertices {
		return nil, fmt.Errorf("pattern: bad vertex count %q", ns)
	}
	p := New(n)
	for _, tok := range strings.Split(es, ",") {
		parts := strings.Split(strings.TrimSpace(tok), "-")
		if len(parts) != 2 {
			return nil, fmt.Errorf("pattern: bad edge %q", tok)
		}
		u, err1 := strconv.Atoi(parts[0])
		v, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || u < 0 || v < 0 || u >= n || v >= n || u == v {
			return nil, fmt.Errorf("pattern: bad edge %q", tok)
		}
		p.AddEdge(u, v)
	}
	return p, nil
}

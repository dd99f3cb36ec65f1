package graph

import (
	"math/rand"
)

// RMAT generates a scale-free graph with the recursive-matrix method of
// Chakrabarti et al. It is the stand-in for the skewed SNAP/WebGraph datasets
// of the paper (LiveJournal, UK, Twitter, ...): the (a,b,c,d) probabilities
// control skew. n is rounded up to a power of two for edge placement but the
// graph keeps exactly n vertices (edges falling outside are re-drawn). With
// n < 2 no edge fits, and the graph has none.
func RMAT(n int, m uint64, a, b, c float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	scale := 0
	for 1<<scale < n {
		scale++
	}
	bld := NewBuilder(n)
	for placed := uint64(0); placed < m && n >= 2; {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// upper-left quadrant: no bits set
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u >= n || v >= n || u == v {
			continue
		}
		bld.AddEdge(VertexID(u), VertexID(v))
		placed++
	}
	return bld.Build()
}

// RMATDefault generates an R-MAT graph with the conventional skewed
// parameters (0.57, 0.19, 0.19).
func RMATDefault(n int, m uint64, seed int64) *Graph {
	return RMAT(n, m, 0.57, 0.19, 0.19, seed)
}

// Uniform generates a uniformly random graph with n vertices and ~m distinct
// edges (Erdős–Rényi G(n,m) flavor). It is the stand-in for less-skewed
// datasets like Patents. With n < 2 no edge fits, and the graph has none.
func Uniform(n int, m uint64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	bld := NewBuilder(n)
	for placed := uint64(0); placed < m && n >= 2; {
		u := VertexID(rng.Intn(n))
		v := VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		bld.AddEdge(u, v)
		placed++
	}
	return bld.Build()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	bld := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			bld.AddEdge(VertexID(u), VertexID(v))
		}
	}
	return bld.Build()
}

// Cycle returns the cycle graph C_n.
func Cycle(n int) *Graph {
	bld := NewBuilder(n)
	for v := 0; v < n; v++ {
		bld.AddEdge(VertexID(v), VertexID((v+1)%n))
	}
	return bld.Build()
}

// Path returns the path graph P_n (n vertices, n-1 edges).
func Path(n int) *Graph {
	bld := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		bld.AddEdge(VertexID(v), VertexID(v+1))
	}
	return bld.Build()
}

// Star returns the star graph with one hub (vertex 0) and n-1 leaves.
func Star(n int) *Graph {
	bld := NewBuilder(n)
	for v := 1; v < n; v++ {
		bld.AddEdge(0, VertexID(v))
	}
	return bld.Build()
}

// Grid returns the rows×cols 2-D grid graph.
func Grid(rows, cols int) *Graph {
	bld := NewBuilder(rows * cols)
	id := func(r, c int) VertexID { return VertexID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				bld.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				bld.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return bld.Build()
}

// RandomLabels returns a label assignment with numLabels distinct labels
// drawn uniformly, as the paper does for unlabeled FSM datasets ("randomly
// synthesized their labels"). Fewer than one label counts as one.
func RandomLabels(n, numLabels int, seed int64) []Label {
	numLabels = max(numLabels, 1)
	rng := rand.New(rand.NewSource(seed))
	labels := make([]Label, n)
	for i := range labels {
		labels[i] = Label(rng.Intn(numLabels))
	}
	return labels
}

// Package graph provides the in-memory graph substrate used by every engine
// in this repository: a compressed sparse row (CSR) representation of an
// undirected graph with optional vertex labels, builders, synthetic
// generators, text and binary I/O, and the degree-order orientation
// preprocessing used for triangle/clique workloads.
//
// Vertices are dense integers in [0, NumVertices). Adjacency lists are sorted
// ascending, which the set-operation kernels in internal/setops rely on.
package graph

import (
	"fmt"
	"sort"
	"sync"
)

// VertexID identifies a vertex. 32 bits is enough for every graph this
// repository targets (up to a few billion edges) while halving the memory
// footprint of adjacency data compared to 64-bit IDs.
type VertexID uint32

// Label is a vertex label. FSM workloads use small label alphabets.
type Label uint32

// Graph is an immutable undirected graph in CSR form. Each undirected edge
// {u,v} is stored twice, once in each endpoint's adjacency list.
type Graph struct {
	offsets []uint64 // len = n+1; adjacency of v is edges[offsets[v]:offsets[v+1]]
	edges   []VertexID
	labels  []Label // nil if the graph is unlabeled
	elabels []Label // per directed adjacency entry; nil if edges are unlabeled
	maxDeg  uint32
	// stats memoizes what the plan compiler reads off the adjacency alone.
	// It is a pointer so the relabeled copies, which share the adjacency,
	// share the one computation too.
	stats *adjStats
}

// adjStats is computed once per adjacency, on first use: a graph is immutable
// and a compile per FSM candidate or per service query must not rescan it.
type adjStats struct {
	once         sync.Once
	upSq, downSq float64
}

func (g *Graph) adjStats() *adjStats {
	st := g.stats
	st.once.Do(func() {
		for v := 0; v < g.NumVertices(); v++ {
			adj := g.Neighbors(VertexID(v))
			down := sort.Search(len(adj), func(i int) bool { return adj[i] > VertexID(v) })
			up := len(adj) - down
			st.upSq += float64(up) * float64(up)
			st.downSq += float64(down) * float64(down)
		}
	})
	return st
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns the number of undirected edges (each {u,v} counted once).
func (g *Graph) NumEdges() uint64 { return uint64(len(g.edges)) / 2 }

// NumDirectedEdges returns the number of directed adjacency entries. For an
// oriented (DAG) graph this equals the number of edges; for an undirected
// graph it is twice NumEdges.
func (g *Graph) NumDirectedEdges() uint64 { return uint64(len(g.edges)) }

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	return g.edges[g.offsets[v]:g.offsets[v+1]]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v VertexID) uint32 {
	return uint32(g.offsets[v+1] - g.offsets[v])
}

// MaxDegree returns the maximum degree over all vertices.
func (g *Graph) MaxDegree() uint32 { return g.maxDeg }

// Labeled reports whether the graph carries vertex labels.
func (g *Graph) Labeled() bool { return g.labels != nil }

// Label returns the label of v, or 0 for unlabeled graphs.
func (g *Graph) Label(v VertexID) Label {
	if g.labels == nil {
		return 0
	}
	return g.labels[v]
}

// Labels returns the label slice (nil for unlabeled graphs). The slice
// aliases internal storage.
func (g *Graph) Labels() []Label { return g.labels }

// HasEdge reports whether {u,v} is an edge, by binary search on the shorter
// adjacency list.
func (g *Graph) HasEdge(u, v VertexID) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// SizeBytes returns the approximate in-memory size of the adjacency data.
// Used to express cache sizes as a fraction of graph size, as the paper does.
func (g *Graph) SizeBytes() uint64 {
	return uint64(len(g.edges))*4 + uint64(len(g.offsets))*8
}

// String implements fmt.Stringer with a short summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{|V|=%d |E|=%d maxdeg=%d labeled=%v}",
		g.NumVertices(), g.NumEdges(), g.maxDeg, g.Labeled())
}

// WithLabels returns a copy of g sharing adjacency storage but carrying the
// given labels. len(labels) must equal NumVertices.
func (g *Graph) WithLabels(labels []Label) (*Graph, error) {
	if len(labels) != g.NumVertices() {
		return nil, fmt.Errorf("graph: %d labels for %d vertices", len(labels), g.NumVertices())
	}
	ng := *g
	ng.labels = labels
	return &ng, nil
}

// IDSkew returns Σ up(v)² and Σ down(v)² over all vertices, where up(v) and
// down(v) count v's neighbors with a larger and a smaller ID. The two sums
// price the two directions a symmetry-breaking order on vertex IDs can take:
// a level bounded below by v intersects up-neighborhoods, one bounded above
// down-neighborhoods, and on graphs whose hubs cluster at one end of the ID
// range (every R-MAT preset) the sums differ by an order of magnitude.
func (g *Graph) IDSkew() (upSq, downSq float64) {
	st := g.adjStats()
	return st.upSq, st.downSq
}

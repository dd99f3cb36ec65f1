package graph

import (
	"fmt"
	"sort"
)

// Edge is an undirected edge between two vertices.
type Edge struct {
	U, V VertexID
}

// Builder accumulates edges and produces an immutable CSR Graph.
// Self-loops and duplicate edges are removed during Build, matching the
// preprocessing the paper applies to all datasets.
type Builder struct {
	n      int
	edges  []Edge
	labels []Label
}

// NewBuilder returns a builder for a graph with at least n vertices. The
// vertex count grows automatically if edges mention larger IDs.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records an undirected edge {u,v}. Self-loops are dropped at Build.
func (b *Builder) AddEdge(u, v VertexID) {
	if int(u) >= b.n {
		b.n = int(u) + 1
	}
	if int(v) >= b.n {
		b.n = int(v) + 1
	}
	b.edges = append(b.edges, Edge{u, v})
}

// AddEdges records a batch of undirected edges.
func (b *Builder) AddEdges(edges []Edge) {
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
}

// SetLabels assigns vertex labels; missing entries default to 0 at Build.
func (b *Builder) SetLabels(labels []Label) {
	b.labels = labels
}

// Build produces the CSR graph: symmetrizes, sorts adjacency lists,
// removes self-loops and duplicate edges.
func (b *Builder) Build() *Graph {
	n := b.n
	deg := make([]uint64, n+1)
	for _, e := range b.edges {
		if e.U == e.V {
			continue
		}
		deg[e.U+1]++
		deg[e.V+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	edges := make([]VertexID, deg[n])
	cur := make([]uint64, n)
	for _, e := range b.edges {
		if e.U == e.V {
			continue
		}
		edges[deg[e.U]+cur[e.U]] = e.V
		cur[e.U]++
		edges[deg[e.V]+cur[e.V]] = e.U
		cur[e.V]++
	}
	// Sort each adjacency list and dedup in place, compacting the edge array.
	offsets := make([]uint64, n+1)
	w := uint64(0)
	var maxDeg uint32
	for v := 0; v < n; v++ {
		offsets[v] = w
		adj := edges[deg[v] : deg[v]+cur[v]]
		sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
		var last VertexID
		first := true
		for _, u := range adj {
			if !first && u == last {
				continue
			}
			edges[w] = u
			w++
			last = u
			first = false
		}
		if d := uint32(w - offsets[v]); d > maxDeg {
			maxDeg = d
		}
	}
	offsets[n] = w
	g := &Graph{offsets: offsets, edges: edges[:w:w], maxDeg: maxDeg, stats: new(adjStats)}
	if b.labels != nil {
		labels := make([]Label, n)
		copy(labels, b.labels)
		g.labels = labels
	}
	return g
}

// FromEdges builds a graph with n vertices from an edge list.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	b.AddEdges(edges)
	return b.Build()
}

// FromCSR wraps pre-built CSR arrays. Adjacency lists must already be sorted,
// deduplicated and free of self-loops; this is validated and an error returned
// otherwise.
func FromCSR(offsets []uint64, edges []VertexID, labels []Label) (*Graph, error) {
	if len(offsets) == 0 {
		return nil, fmt.Errorf("graph: empty offsets")
	}
	if offsets[len(offsets)-1] != uint64(len(edges)) {
		return nil, fmt.Errorf("graph: offsets end %d != len(edges) %d",
			offsets[len(offsets)-1], len(edges))
	}
	n := len(offsets) - 1
	var maxDeg uint32
	for v := 0; v < n; v++ {
		if offsets[v] > offsets[v+1] {
			return nil, fmt.Errorf("graph: offsets not monotone at %d", v)
		}
		adj := edges[offsets[v]:offsets[v+1]]
		for i, u := range adj {
			if i > 0 && adj[i-1] >= u {
				return nil, fmt.Errorf("graph: adjacency of %d not sorted/deduped", v)
			}
			// Build drops self-loops; the count-only kernels rely on it (a
			// candidate drawn from N(u) is never u itself).
			if u == VertexID(v) {
				return nil, fmt.Errorf("graph: self-loop at %d", v)
			}
		}
		if d := uint32(len(adj)); d > maxDeg {
			maxDeg = d
		}
	}
	if labels != nil && len(labels) != n {
		return nil, fmt.Errorf("graph: %d labels for %d vertices", len(labels), n)
	}
	return &Graph{offsets: offsets, edges: edges, labels: labels, maxDeg: maxDeg, stats: new(adjStats)}, nil
}

package graph

import (
	"sort"
)

// Edge-label support. The paper notes (§2.1) that "Khuzdul supports vertex
// labels, but the edge label support can be added without fundamental
// difficulty" — this file adds it: labels are stored per directed adjacency
// entry, parallel to the CSR edge array, so EdgeLabel lookups cost one
// binary search in the endpoint's adjacency list.

// LabeledEdge is an undirected edge carrying a label.
type LabeledEdge struct {
	U, V  VertexID
	Label Label
}

// EdgeLabeled reports whether the graph carries edge labels.
func (g *Graph) EdgeLabeled() bool { return g.elabels != nil }

// EdgeLabel returns the label of edge {u,v} and whether the edge exists.
// For unlabeled graphs the label is 0.
func (g *Graph) EdgeLabel(u, v VertexID) (Label, bool) {
	if int(u) >= g.NumVertices() || int(v) >= g.NumVertices() {
		return 0, false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	if i >= len(adj) || adj[i] != v {
		return 0, false
	}
	if g.elabels == nil {
		return 0, true
	}
	return g.elabels[g.offsets[u]+uint64(i)], true
}

// FromLabeledEdges builds an edge-labeled graph with n vertices. Duplicate
// edges keep the label of their first occurrence; self-loops are dropped.
func FromLabeledEdges(n int, edges []LabeledEdge) (*Graph, error) {
	for _, e := range edges {
		if int(e.U) >= n {
			n = int(e.U) + 1
		}
		if int(e.V) >= n {
			n = int(e.V) + 1
		}
	}
	type entry struct {
		nbr   VertexID
		label Label
	}
	adj := make([][]entry, n)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		adj[e.U] = append(adj[e.U], entry{e.V, e.Label})
		adj[e.V] = append(adj[e.V], entry{e.U, e.Label})
	}
	offsets := make([]uint64, n+1)
	var flatEdges []VertexID
	var flatLabels []Label
	var maxDeg uint32
	for v := 0; v < n; v++ {
		lst := adj[v]
		sort.SliceStable(lst, func(i, j int) bool { return lst[i].nbr < lst[j].nbr })
		offsets[v] = uint64(len(flatEdges))
		var last VertexID
		first := true
		for _, e := range lst {
			if !first && e.nbr == last {
				continue
			}
			flatEdges = append(flatEdges, e.nbr)
			flatLabels = append(flatLabels, e.label)
			last = e.nbr
			first = false
		}
		if d := uint32(uint64(len(flatEdges)) - offsets[v]); d > maxDeg {
			maxDeg = d
		}
	}
	offsets[n] = uint64(len(flatEdges))
	// Duplicate edges resolve symmetrically: both directions are inserted in
	// the same order and the stable sort keeps the first occurrence, so the
	// two directions of an edge always carry the same label.
	return &Graph{offsets: offsets, edges: flatEdges, elabels: flatLabels, maxDeg: maxDeg, stats: new(adjStats)}, nil
}

// WithRandomEdgeLabels returns a copy of g sharing adjacency storage with
// numLabels random edge labels (symmetric across directions), for synthetic
// edge-labeled workloads.
func (g *Graph) WithRandomEdgeLabels(numLabels int, seed int64) *Graph {
	elabels := make([]Label, len(g.edges))
	// Deterministic symmetric label: hash the unordered endpoint pair.
	for v := 0; v < g.NumVertices(); v++ {
		for i, u := range g.Neighbors(VertexID(v)) {
			a, b := VertexID(v), u
			if a > b {
				a, b = b, a
			}
			h := uint64(a)<<32 | uint64(b)
			h ^= uint64(seed)
			h *= 0x9e3779b97f4a7c15
			h ^= h >> 32
			elabels[g.offsets[v]+uint64(i)] = Label(h % uint64(numLabels))
		}
	}
	ng := *g
	ng.elabels = elabels
	return &ng
}

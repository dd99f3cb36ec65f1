// Package pattern provides the small pattern graphs that GPM applications
// mine for, along with the graph-theoretic machinery the plan compilers need:
// isomorphism tests, automorphism groups, canonical codes, and enumeration of
// all connected patterns of a given size (for k-motif counting).
//
// Patterns are tiny (≤ MaxVertices vertices), so adjacency is stored as one
// bitmask per vertex and algorithms are allowed to enumerate permutations.
package pattern

import (
	"fmt"
	"sort"
	"strings"

	"khuzdul/internal/graph"
)

// MaxVertices is the largest supported pattern size. Bitmask adjacency rows
// and permutation-based algorithms rely on this bound.
const MaxVertices = 10

// Pattern is a small connected undirected graph, optionally vertex-labeled.
// The zero value is an empty pattern; use New or the named constructors.
type Pattern struct {
	n      int
	adj    []uint16 // adj[i] bit j set iff edge {i,j}
	labels []graph.Label
	// elabels maps packed edge keys (min<<4|max) to edge labels; nil when
	// edges are unlabeled.
	elabels map[uint16]graph.Label
}

// edgeKey packs an unordered vertex pair (MaxVertices ≤ 16 keeps it in 8
// bits of each nibble).
func edgeKey(u, v int) uint16 {
	if u > v {
		u, v = v, u
	}
	return uint16(u)<<4 | uint16(v)
}

// New returns an edgeless pattern with n vertices.
func New(n int) *Pattern {
	if n < 1 || n > MaxVertices {
		panic(fmt.Sprintf("pattern: size %d out of range [1,%d]", n, MaxVertices))
	}
	return &Pattern{n: n, adj: make([]uint16, n)}
}

// FromEdges builds a pattern with n vertices and the given edges.
func FromEdges(n int, edges [][2]int) *Pattern {
	p := New(n)
	for _, e := range edges {
		p.AddEdge(e[0], e[1])
	}
	return p
}

// AddEdge adds the undirected edge {u,v}. Self-loops are rejected.
func (p *Pattern) AddEdge(u, v int) {
	if u == v {
		panic("pattern: self-loop")
	}
	if u < 0 || v < 0 || u >= p.n || v >= p.n {
		panic(fmt.Sprintf("pattern: edge (%d,%d) out of range for %d vertices", u, v, p.n))
	}
	p.adj[u] |= 1 << uint(v)
	p.adj[v] |= 1 << uint(u)
}

// NumVertices returns the number of pattern vertices.
func (p *Pattern) NumVertices() int { return p.n }

// NumEdges returns the number of pattern edges.
func (p *Pattern) NumEdges() int {
	total := 0
	for _, row := range p.adj {
		total += popcount16(row)
	}
	return total / 2
}

// HasEdge reports whether {u,v} is a pattern edge.
func (p *Pattern) HasEdge(u, v int) bool { return p.adj[u]&(1<<uint(v)) != 0 }

// Degree returns the degree of pattern vertex v.
func (p *Pattern) Degree(v int) int { return popcount16(p.adj[v]) }

// Neighbors returns the neighbor indices of v in ascending order.
func (p *Pattern) Neighbors(v int) []int {
	var out []int
	for u := 0; u < p.n; u++ {
		if p.HasEdge(u, v) {
			out = append(out, u)
		}
	}
	return out
}

// Labeled reports whether the pattern carries vertex labels.
func (p *Pattern) Labeled() bool { return p.labels != nil }

// Label returns the label of v (0 if unlabeled).
func (p *Pattern) Label(v int) graph.Label {
	if p.labels == nil {
		return 0
	}
	return p.labels[v]
}

// WithLabels returns a copy carrying the given vertex labels.
func (p *Pattern) WithLabels(labels []graph.Label) *Pattern {
	if len(labels) != p.n {
		panic(fmt.Sprintf("pattern: %d labels for %d vertices", len(labels), p.n))
	}
	q := p.Clone()
	q.labels = append([]graph.Label(nil), labels...)
	return q
}

// EdgeLabeled reports whether the pattern carries edge labels.
func (p *Pattern) EdgeLabeled() bool { return p.elabels != nil }

// EdgeLabel returns the label of edge {u,v} (0 when edges are unlabeled or
// the edge is absent).
func (p *Pattern) EdgeLabel(u, v int) graph.Label {
	if p.elabels == nil {
		return 0
	}
	return p.elabels[edgeKey(u, v)]
}

// SetEdgeLabel labels an existing edge; it panics if {u,v} is not an edge.
func (p *Pattern) SetEdgeLabel(u, v int, l graph.Label) {
	if !p.HasEdge(u, v) {
		panic(fmt.Sprintf("pattern: SetEdgeLabel on non-edge (%d,%d)", u, v))
	}
	if p.elabels == nil {
		p.elabels = map[uint16]graph.Label{}
	}
	p.elabels[edgeKey(u, v)] = l
}

// Clone returns a deep copy.
func (p *Pattern) Clone() *Pattern {
	q := &Pattern{n: p.n, adj: append([]uint16(nil), p.adj...)}
	if p.labels != nil {
		q.labels = append([]graph.Label(nil), p.labels...)
	}
	if p.elabels != nil {
		q.elabels = make(map[uint16]graph.Label, len(p.elabels))
		for k, v := range p.elabels {
			q.elabels[k] = v
		}
	}
	return q
}

// Connected reports whether the pattern is connected. GPM patterns must be
// connected; plan compilation rejects disconnected patterns.
func (p *Pattern) Connected() bool {
	if p.n == 0 {
		return false
	}
	var visited uint16 = 1
	frontier := uint16(1)
	for frontier != 0 {
		next := uint16(0)
		for v := 0; v < p.n; v++ {
			if frontier&(1<<uint(v)) != 0 {
				next |= p.adj[v]
			}
		}
		frontier = next &^ visited
		visited |= next
	}
	return popcount16(visited) == p.n
}

// Relabel returns the pattern with vertices permuted: vertex i of the result
// is vertex perm[i] of p. Labels follow their vertices.
func (p *Pattern) Relabel(perm []int) *Pattern {
	q := New(p.n)
	for u := 0; u < p.n; u++ {
		for v := u + 1; v < p.n; v++ {
			if p.HasEdge(perm[u], perm[v]) {
				q.AddEdge(u, v)
			}
		}
	}
	if p.labels != nil {
		q.labels = make([]graph.Label, p.n)
		for i := range q.labels {
			q.labels[i] = p.labels[perm[i]]
		}
	}
	if p.elabels != nil {
		q.elabels = make(map[uint16]graph.Label, len(p.elabels))
		for u := 0; u < p.n; u++ {
			for v := u + 1; v < p.n; v++ {
				if q.HasEdge(u, v) {
					q.elabels[edgeKey(u, v)] = p.EdgeLabel(perm[u], perm[v])
				}
			}
		}
	}
	return q
}

// DegreeSequence returns the sorted (descending) degree sequence.
func (p *Pattern) DegreeSequence() []int {
	seq := make([]int, p.n)
	for v := range seq {
		seq[v] = p.Degree(v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(seq)))
	return seq
}

// String renders the pattern as "n=K edges=[(u,v)...]" with labels if any.
func (p *Pattern) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pattern{n=%d", p.n)
	sb.WriteString(" edges=")
	first := true
	for u := 0; u < p.n; u++ {
		for v := u + 1; v < p.n; v++ {
			if p.HasEdge(u, v) {
				if !first {
					sb.WriteByte(' ')
				}
				fmt.Fprintf(&sb, "%d-%d", u, v)
				first = false
			}
		}
	}
	if p.labels != nil {
		fmt.Fprintf(&sb, " labels=%v", p.labels)
	}
	sb.WriteByte('}')
	return sb.String()
}

func popcount16(x uint16) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

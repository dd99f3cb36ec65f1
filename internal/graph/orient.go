package graph

// Orient converts the undirected graph into a DAG by keeping, for every edge
// {u,v}, only the direction from the lower-ranked to the higher-ranked
// endpoint, where rank orders vertices by (degree, id). This is the
// "orientation" optimization the paper adopts (from Pangolin) for triangle
// and clique counting on skewed graphs: every k-clique of the original graph
// appears exactly once as a directed k-clique of the DAG, and maximum
// out-degree is bounded by the graph degeneracy-ish order.
//
// The result is returned as a Graph whose adjacency lists contain only
// out-neighbors (so NumEdges of the result equals the undirected edge count
// of the input). Labels are preserved.
func Orient(g *Graph) *Graph {
	n := g.NumVertices()
	rankLess := func(u, v VertexID) bool {
		du, dv := g.Degree(u), g.Degree(v)
		if du != dv {
			return du < dv
		}
		return u < v
	}
	offsets := make([]uint64, n+1)
	for v := 0; v < n; v++ {
		cnt := uint64(0)
		for _, u := range g.Neighbors(VertexID(v)) {
			if rankLess(VertexID(v), u) {
				cnt++
			}
		}
		offsets[v+1] = offsets[v] + cnt
	}
	edges := make([]VertexID, offsets[n])
	var maxDeg uint32
	for v := 0; v < n; v++ {
		w := offsets[v]
		for _, u := range g.Neighbors(VertexID(v)) {
			if rankLess(VertexID(v), u) {
				edges[w] = u
				w++
			}
		}
		// Input adjacency is sorted by ID; out-neighbors keep that order.
		if d := uint32(w - offsets[v]); d > maxDeg {
			maxDeg = d
		}
	}
	return &Graph{offsets: offsets, edges: edges, labels: g.labels, maxDeg: maxDeg, stats: new(adjStats)}
}

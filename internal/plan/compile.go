package plan

import (
	"fmt"
	"math"

	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
)

// Compile produces an enumeration plan for pat under the given options.
// It returns an error for disconnected or trivial patterns.
func Compile(pat *pattern.Pattern, opts Options) (*Plan, error) {
	k := pat.NumVertices()
	if k < 2 {
		return nil, fmt.Errorf("plan: pattern must have at least 2 vertices, got %d", k)
	}
	if !pat.Connected() {
		return nil, fmt.Errorf("plan: pattern is disconnected: %v", pat)
	}

	// Aut(pat) is computed once: each order's relabeled group is its
	// conjugate, and the order search prunes by it.
	auts := pattern.Automorphisms(pat)
	var orders [][]int
	switch opts.Style {
	case StyleAutomine:
		orders = [][]int{automineOrder(pat)}
	case StyleGraphPi:
		orders = connectedOrders(pat, auts)
	default:
		return nil, fmt.Errorf("plan: unknown style %v", opts.Style)
	}

	stats := opts.Stats
	if stats.NumVertices == 0 {
		stats = GraphStats{NumVertices: 1 << 20, AvgDegree: 16}
	}

	// Pointing the restrictions down instead of up is free (see Level.bounds);
	// it pays when the graph's down-neighborhoods are the smaller ones.
	descending := stats.DownSq < stats.UpSq

	// Each order is scored by the cost model, which reads only its sets,
	// bounds and reuse relations; the winner alone is derived.
	var best *Plan
	for _, order := range orders {
		p, err := buildForOrder(pat, auts, order, opts, descending)
		if err != nil {
			return nil, err
		}
		p.EstCost = estimateCost(p, stats)
		if best == nil || p.EstCost < best.EstCost {
			best = p
		}
	}
	best.UpSq, best.DownSq = stats.UpSq, stats.DownSq
	best.derive()
	return best, nil
}

// MustCompile is Compile that panics on error, for statically-known patterns.
func MustCompile(pat *pattern.Pattern, opts Options) *Plan {
	p, err := Compile(pat, opts)
	if err != nil {
		panic(err)
	}
	return p
}

// buildForOrder builds the matching of the plan for pat in one fixed
// order: each level's intersect, exclude and edge labels read off the
// relabeled pattern, and its bounds off the stabilizer chain, pointing down
// the vertex IDs when descending is set. It rejects an order that is not a
// permutation of pat's vertices or has a disconnected prefix. auts is
// Aut(pat). The plan's annotations are left to derive.
func buildForOrder(pat *pattern.Pattern, auts [][]int, order []int, opts Options, descending bool) (*Plan, error) {
	k := pat.NumVertices()
	pos, seen := make([]int, k), make([]bool, k)
	perm := len(order) == k
	for i, v := range order {
		if !perm || v < 0 || v >= k || seen[v] {
			perm = false
			break
		}
		seen[v], pos[v] = true, i
	}
	if !perm {
		return nil, fmt.Errorf("plan: order %v is not a permutation of %d vertices", order, k)
	}
	// q is the pattern relabeled so that position i of the matching order is
	// vertex i of q.
	q := pat.Relabel(order)

	p := &Plan{
		Pattern: pat,
		order:   append([]int(nil), order...),
		K:       k,
		levels:  make([]Level, k),
		AutSize: len(auts),
		induced: opts.Induced,
		vcs:     !opts.DisableVCS,
		Style:   opts.Style,
	}

	// Per-level set operations.
	for i := 1; i < k; i++ {
		lv := &p.levels[i]
		for j := 0; j < i; j++ {
			if q.HasEdge(j, i) {
				lv.intersect = append(lv.intersect, j)
			} else {
				lv.exclude = append(lv.exclude, j)
			}
		}
		if len(lv.intersect) == 0 {
			return nil, fmt.Errorf("plan: order %v has disconnected prefix at %d", order, i)
		}
	}

	// Symmetry-breaking restrictions via the stabilizer-chain / ordered-orbit
	// scheme on the relabeled pattern: for each position i, one restriction
	// per element j of i's orbit under the pointwise stabilizer of positions
	// <i. The stabilizer fixes every position before i, so j > i, and the
	// restriction bounds level j by position i. Aut(q) is Aut(pat) conjugated
	// by the order — σ moves position i to pos[σ(order[i])] — so the chain
	// reads Aut(pat) through that map instead of building Aut(q).
	if !opts.DisableSymmetryBreak {
		group := auts
		for i, v := range order {
			inOrbit := make([]bool, k)
			for _, sigma := range group {
				inOrbit[pos[sigma[v]]] = true
			}
			for j := 0; j < k; j++ {
				if j != i && inOrbit[j] {
					p.levels[j].bounds = append(p.levels[j].bounds, i)
					p.descending = descending
				}
			}
			var next [][]int
			for _, sigma := range group {
				if sigma[v] == v {
					next = append(next, sigma)
				}
			}
			group = next
		}
	}

	// Labels per position.
	if pat.Labeled() {
		lbl := make([]graph.Label, k)
		for i := 0; i < k; i++ {
			lbl[i] = q.Label(i)
		}
		p.labels = lbl
	}
	if pat.EdgeLabeled() {
		p.edgeLabeled = true
		for i := 1; i < k; i++ {
			lv := &p.levels[i]
			lv.edgeLabels = make([]graph.Label, len(lv.intersect))
			for idx, j := range lv.intersect {
				lv.edgeLabels[idx] = q.EdgeLabel(j, i)
			}
		}
	}
	return p, nil
}

// automineOrder reproduces Automine's canonical greedy order: start from the
// highest-degree vertex (ties by index), then repeatedly append the unvisited
// vertex with the most edges into the prefix (ties by degree, then index).
func automineOrder(pat *pattern.Pattern) []int {
	k := pat.NumVertices()
	order := make([]int, 0, k)
	inPrefix := make([]bool, k)
	start := 0
	for v := 1; v < k; v++ {
		if pat.Degree(v) > pat.Degree(start) {
			start = v
		}
	}
	order = append(order, start)
	inPrefix[start] = true
	for len(order) < k {
		best, bestConn := -1, -1
		for v := 0; v < k; v++ {
			if inPrefix[v] {
				continue
			}
			conn := 0
			for _, u := range order {
				if pat.HasEdge(u, v) {
					conn++
				}
			}
			if conn == 0 {
				continue
			}
			if conn > bestConn || (conn == bestConn && pat.Degree(v) > pat.Degree(best)) {
				best, bestConn = v, conn
			}
		}
		order = append(order, best)
		inPrefix[best] = true
	}
	return order
}

// connectedOrders enumerates the matching orders whose prefixes are all
// connected, one per class of orders an automorphism of pat maps onto each
// other: those compile to the same relabeled pattern, so to the same plan
// and cost. A vertex is tried at a position only when no automorphism fixing
// the prefix maps it to a smaller vertex, which keeps exactly the
// lexicographically first order of each class. auts is Aut(pat).
func connectedOrders(pat *pattern.Pattern, auts [][]int) [][]int {
	k := pat.NumVertices()
	var out [][]int
	order := make([]int, 0, k)
	used := make([]bool, k)
	var rec func(stab [][]int)
	rec = func(stab [][]int) {
		if len(order) == k {
			out = append(out, append([]int(nil), order...))
			return
		}
	next:
		for v := 0; v < k; v++ {
			if used[v] {
				continue
			}
			if len(order) > 0 {
				conn := false
				for _, u := range order {
					if pat.HasEdge(u, v) {
						conn = true
						break
					}
				}
				if !conn {
					continue
				}
			}
			var fixing [][]int
			for _, sigma := range stab {
				if sigma[v] < v {
					continue next
				}
				if sigma[v] == v {
					fixing = append(fixing, sigma)
				}
			}
			used[v] = true
			order = append(order, v)
			rec(fixing)
			order = order[:len(order)-1]
			used[v] = false
		}
	}
	rec(auts)
	return out
}

// estimateCost implements a GraphPi-flavored cost model: expected number of
// partial embeddings at each level, assuming candidate-set sizes shrink with
// the number of intersected lists and that each symmetry restriction halves
// the surviving candidates.
func estimateCost(p *Plan, stats GraphStats) float64 {
	n := float64(stats.NumVertices)
	d := stats.AvgDegree
	if d <= 1 {
		d = 2
	}
	sel := d / n // probability a random vertex is adjacent to a given one
	embeddings := n
	total := embeddings
	for i := 1; i < p.K; i++ {
		lv := &p.levels[i]
		cand := d * math.Pow(sel, float64(len(lv.intersect)-1))
		// Each restriction halves the expected candidates.
		cand /= math.Pow(2, float64(len(lv.bounds)))
		if cand < 1e-9 {
			cand = 1e-9
		}
		// Work at this level is proportional to parent embeddings times the
		// cost of the set operations (number of lists intersected).
		opCost := float64(len(lv.intersect))
		if p.induced {
			opCost += float64(len(lv.exclude))
		}
		switch p.reuseOf(i) {
		case reuseSame:
			opCost = 0.1
		case reuseExtend:
			opCost = 1
		}
		total += embeddings * (opCost + 1)
		embeddings *= cand
		total += embeddings
	}
	return total
}

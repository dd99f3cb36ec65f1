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

	// Pointing the restrictions down instead of up is free (see Level.Bounds);
	// it pays when the graph's down-neighborhoods are the smaller ones.
	descending := stats.DownSq < stats.UpSq

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

// buildForOrder compiles a plan for one fixed matching order, its
// restrictions pointing down the vertex IDs when descending is set. auts is
// Aut(pat).
func buildForOrder(pat *pattern.Pattern, auts [][]int, order []int, opts Options, descending bool) (*Plan, error) {
	k := pat.NumVertices()
	// q is the pattern relabeled so that position i of the matching order is
	// vertex i of q.
	q := pat.Relabel(order)

	p := &Plan{
		Pattern: pat,
		Order:   append([]int(nil), order...),
		K:       k,
		Levels:  make([]Level, k),
		Induced: opts.Induced,
		VCS:     !opts.DisableVCS,
		Style:   opts.Style,
	}

	// Per-level set operations.
	for i := 1; i < k; i++ {
		lv := &p.Levels[i]
		for j := 0; j < i; j++ {
			if q.HasEdge(j, i) {
				lv.Intersect = append(lv.Intersect, j)
			} else {
				lv.Exclude = append(lv.Exclude, j)
			}
		}
		if len(lv.Intersect) == 0 {
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
	pos := make([]int, k)
	for i, v := range order {
		pos[v] = i
	}
	p.AutSize = len(auts)
	if !opts.DisableSymmetryBreak {
		group := auts
		for i, v := range order {
			inOrbit := make([]bool, k)
			for _, sigma := range group {
				inOrbit[pos[sigma[v]]] = true
			}
			for j := 0; j < k; j++ {
				if j != i && inOrbit[j] {
					p.Levels[j].Bounds = append(p.Levels[j].Bounds, i)
					p.Descending = descending
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
		p.Labels = lbl
	}
	if pat.EdgeLabeled() {
		p.EdgeLabeled = true
		for i := 1; i < k; i++ {
			lv := &p.Levels[i]
			lv.EdgeLabels = make([]graph.Label, len(lv.Intersect))
			for idx, j := range lv.Intersect {
				lv.EdgeLabels[idx] = q.EdgeLabel(j, i)
			}
		}
	}

	// Vertical computation sharing: detect same-set and extend-by-one
	// relationships between consecutive levels' intersect sets.
	if p.VCS {
		annotateVCS(p)
		for i := 1; i < k; i++ {
			p.Levels[i].ClipStore = p.storeClippable(i)
		}
	}

	annotateNeedsList(p)

	// The last level's candidates are only ever counted by a count-only
	// sink; mark it when the counting kernels cover its set expression
	// (labels and chained subtractions fall back to a bounded materialize).
	last := &p.Levels[k-1]
	last.CountOnly = !p.Labeled() && !p.EdgeLabeled && (!p.Induced || len(last.Exclude) <= 1)

	// A count-only run can stop earlier still where the plan ends in a star
	// tail: mark the longest one.
	for r := k - 1; r >= 2 && p.Fold == 0; r-- {
		if p.foldable(r) {
			p.Fold = r
		}
	}
	p.Dense = p.denseable()
	// The level a count-only run ends at probes a mark set where its siblings
	// share an operand, and a labeled level whose siblings share its raw set
	// filters that set by label once per parent run.
	for i := 2; i < k; i++ {
		p.Levels[i].Probe = p.probeable(i)
		p.Levels[i].FilterOnce = p.filterable(i)
	}

	return p, p.Validate()
}

// annotateVCS marks ReuseSame / ReuseExtend / StoreInter.
func annotateVCS(p *Plan) {
	for i := 2; i < p.K; i++ {
		prev := p.Levels[i-1].Intersect
		cur := p.Levels[i].Intersect
		switch {
		case equalInts(cur, prev):
			p.Levels[i].ReuseSame = true
			p.Levels[i-1].StoreInter = true
		case equalInts(cur, appendSorted(prev, i-1)):
			p.Levels[i].ReuseExtend = true
			p.Levels[i-1].StoreInter = true
		}
	}
}

// annotateNeedsList marks every position whose edge list a deeper level
// reads — one it intersects, or in induced mode one it subtracts — as an
// active vertex (the paper's term) whose list the extendable embedding
// carries.
func annotateNeedsList(p *Plan) {
	for m := 1; m < p.K; m++ {
		lv := &p.Levels[m]
		for _, j := range lv.Intersect {
			p.Levels[j].NeedsList = true
		}
		if p.Induced {
			for _, j := range lv.Exclude {
				p.Levels[j].NeedsList = true
			}
		}
	}
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
		lv := &p.Levels[i]
		cand := d * math.Pow(sel, float64(len(lv.Intersect)-1))
		// Each restriction halves the expected candidates.
		cand /= math.Pow(2, float64(len(lv.Bounds)))
		if cand < 1e-9 {
			cand = 1e-9
		}
		// Work at this level is proportional to parent embeddings times the
		// cost of the set operations (number of lists intersected).
		opCost := float64(len(lv.Intersect))
		if p.Induced {
			opCost += float64(len(lv.Exclude))
		}
		if lv.ReuseSame {
			opCost = 0.1
		} else if lv.ReuseExtend {
			opCost = 1
		}
		total += embeddings * (opCost + 1)
		embeddings *= cand
		total += embeddings
	}
	return total
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func appendSorted(a []int, x int) []int {
	out := make([]int, 0, len(a)+1)
	inserted := false
	for _, y := range a {
		if !inserted && x < y {
			out = append(out, x)
			inserted = true
		}
		if y == x {
			inserted = true
		}
		out = append(out, y)
	}
	if !inserted {
		out = append(out, x)
	}
	return out
}

func containsInt(s []int, x int) bool {
	for _, y := range s {
		if y == x {
			return true
		}
	}
	return false
}

// Package plan compiles pattern graphs into enumeration plans. A plan is
// built from what it matches — a pattern, a matching order with connected
// prefixes, the direction of its symmetry-breaking bounds and whether it
// matches induced, with vertical computation sharing and symmetry breaking on
// or off — and nothing else. Its constructor reads each level's set
// operations off the relabeled pattern and its bounds off the stabilizer
// chain; one derive pass then computes every annotation the Khuzdul engine
// runs by: which positions are "active", whether a level reuses its parent's
// intersection (the paper's vertical computation sharing), where a count-only
// run ends and how it counts there. Nothing else writes a level, so a plan
// cannot disagree with itself.
//
// A plan is the Go equivalent of the paper's compiled EXTEND function: the
// client systems k-Automine and k-GraphPi are Compile's two Styles, and every
// engine in the repository executes the plans either produces.
package plan

import (
	"fmt"
	"slices"
	"strings"

	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
)

// Style selects the order-selection strategy of a client GPM system.
type Style int

const (
	// StyleAutomine uses Automine's canonical greedy matching order.
	StyleAutomine Style = iota
	// StyleGraphPi searches all connected-prefix orders with a cost model,
	// reproducing GraphPi's schedule-quality advantage.
	StyleGraphPi
)

func (s Style) String() string {
	switch s {
	case StyleAutomine:
		return "automine"
	case StyleGraphPi:
		return "graphpi"
	default:
		return fmt.Sprintf("style(%d)", int(s))
	}
}

// Level describes how to match the pattern position at a given depth.
// Position 0 (the root) has a trivial level. Its sets are read off the
// pattern in the plan's order and its annotations are computed from them by
// derive; nothing else writes either, so outside this package a Level is
// read through Plan.Level and its methods.
type Level struct {
	// intersect lists the earlier positions adjacent to this one in the
	// pattern; the raw candidate set is the intersection of their edge lists.
	intersect []int
	// edgeLabels, when the pattern is edge-labeled, holds the required label
	// of the edge to each intersect position (parallel slices).
	edgeLabels []graph.Label
	// exclude lists the earlier positions NOT adjacent to this one: the only
	// matched vertices a candidate can equal. A candidate is adjacent to
	// every intersect position and graphs carry no self-loops, so
	// distinctness from the prefix is a test against these few. In induced
	// mode their edge lists are also subtracted from the candidates.
	exclude []int
	// bounds lists the earlier positions a whose matched vertex bounds this
	// level's candidates v by symmetry breaking: v > emb[a] in an ascending
	// plan, v < emb[a] in a descending one (Plan.Descending). The
	// stabilizer-chain scheme needs some total order on vertex IDs, not a
	// particular one, so the compiler picks per input graph whichever
	// direction leaves the shorter lists to intersect; all of a plan's
	// bounds share it.
	bounds []int

	// reuse is how this level's raw intersection follows from the one its
	// parent stored: reuseSame when it is that set (no set operation at all),
	// reuseExtend when it is that set ∩ N(previous vertex) — the paper's
	// vertical computation sharing (§5.1, Figure 9).
	reuse reuseKind
	// storeInter marks that the raw intersection computed at this level must
	// be kept in the extendable embedding for reuse by its children.
	storeInter bool
	// clipStore marks a bounded storeInter level whose stored intersection
	// is clipped to the level's own bounds, like every other input: each
	// level that derives its raw intersection from it keeps only candidates
	// inside those bounds (see storeClippable). Without it the set is stored
	// whole and clipped on the way out.
	clipStore bool
	// needsList marks that the vertex matched at this level is an active
	// vertex of some deeper level, i.e. its edge list must be fetched and
	// carried in the extendable embedding.
	needsList bool
	// countOnly marks a level whose candidates a count-only caller need not
	// see. On a scratch in count-only mode Extend counts such a level with
	// the non-materializing kernels (see Scratch.SetCountOnly).
	countOnly bool
	// probe marks the level a count-only run ends at whose final set
	// operation has an operand every child of one parent shares. A
	// count-only scratch lent a mark set marks that operand once per parent
	// run and counts each later child by probing its own list against it
	// (see Scratch.NewRun).
	probe bool
	// filterOnce marks a labeled level whose raw set and bounds every child
	// of one parent shares. A scratch lent run storage (Scratch.LendRuns)
	// filters that set by PosLabel(i) once per parent run and hands each
	// child the filtered set less its exclude vertices (see Scratch.NewRun).
	filterOnce bool
}

// reuseKind is how a level's raw intersection follows from its parent's.
type reuseKind uint8

const (
	reuseNone reuseKind = iota
	reuseSame
	reuseExtend
)

// Intersect returns the earlier positions whose edge lists the level
// intersects. The slice is the plan's own; callers must not write it.
func (lv Level) Intersect() []int { return lv.intersect }

// Bounds returns the earlier positions bounding the level's candidates by
// symmetry breaking. The slice is the plan's own; callers must not write it.
func (lv Level) Bounds() []int { return lv.bounds }

// StoreInter reports whether the level's raw intersection is kept for its
// children to reuse.
func (lv Level) StoreInter() bool { return lv.storeInter }

// ClipStore reports whether the level stores its raw intersection clipped to
// its own bounds.
func (lv Level) ClipStore() bool { return lv.clipStore }

// NeedsList reports whether a deeper level reads the edge list of the vertex
// matched here.
func (lv Level) NeedsList() bool { return lv.needsList }

// Probe reports whether a count-only run counts the level against a mark set
// of the operand its siblings share.
func (lv Level) Probe() bool { return lv.probe }

// FilterOnce reports whether the level filters the set its siblings share by
// label once per parent run.
func (lv Level) FilterOnce() bool { return lv.filterOnce }

// Plan is a compiled enumeration schedule for one pattern: the matching —
// the pattern, its order, the bound direction and the options below — and
// what derive computes from it. The matching is fixed by the constructor and
// read through methods, so no caller can change what a plan matches without
// derive seeing it; the exported fields only describe the compile.
type Plan struct {
	// Pattern is the original pattern (before reordering).
	Pattern *pattern.Pattern
	// order maps position → original pattern vertex.
	order []int
	// K is the number of pattern vertices.
	K int
	// levels has one entry per position.
	levels []Level
	// descending records the direction of every level's bounds; a plan
	// without bounds is ascending. UpSq and DownSq are the input's ID-skew
	// sums (GraphStats) the compiler chose it by: descending when
	// DownSq < UpSq.
	descending   bool
	UpSq, DownSq float64
	// AutSize is the order of the pattern's automorphism group.
	AutSize int
	// induced selects induced matching (motif semantics).
	induced bool
	// vcs reports whether vertical computation sharing annotations are on.
	vcs bool
	// labels holds the per-position required vertex label, nil if unlabeled.
	labels []graph.Label
	// edgeLabeled marks plans whose pattern constrains edge labels.
	edgeLabeled bool
	// Style records which client system produced the plan.
	Style Style
	// EstCost is the cost-model estimate used during order selection.
	EstCost float64
	// fold is the length r of the plan's folded tail, 0 when it has none:
	// the last r levels intersect the same positions as the first tail level
	// and so match exactly the r-subsets of its candidate set, in ID order
	// (see foldable), so a count-only run stops at level FoldLevel and adds
	// C(n, r) for its n candidates (see Scratch.SetCountOnly). The
	// materializing path ignores it.
	fold int
	// multiply marks a plan whose last level's candidate set X does not
	// depend on v_{K−2} and holds every vertex the level excludes (see
	// multipliable): a count-only run stops at level K−2 and adds
	// n × (|X| − |exclude|) for its n candidates. The materializing path
	// ignores it.
	multiply bool
	// dense marks a plan whose levels ≥ 2 finish on the root's neighborhood:
	// every candidate lies in S = R1, the level-1 stored raw (see
	// denseable). An engine then builds, per level-1 embedding (v0, u), the
	// bit row of u over S's indices and runs every deeper level as word ANDs
	// of sibling rows, with no level-2 chunk and no level-2 fetch (see
	// DenseRow and DenseFinish). The levels keep describing the sorted
	// schedule, which the Executor runs whatever dense says.
	dense bool
}

// Order returns the matching order: position → original pattern vertex. The
// slice is the plan's own; callers must not write it.
func (p *Plan) Order() []int { return p.order }

// Descending reports whether the plan's bounds point down the vertex IDs.
func (p *Plan) Descending() bool { return p.descending }

// Induced reports whether the plan matches induced (motif semantics).
func (p *Plan) Induced() bool { return p.induced }

// VCS reports whether vertical computation sharing annotations are on.
func (p *Plan) VCS() bool { return p.vcs }

// Level returns a copy of the level at position i.
func (p *Plan) Level(i int) Level { return p.levels[i] }

// Fold returns the length of the plan's folded tail, 0 when it has none.
func (p *Plan) Fold() int { return p.fold }

// Multiply reports whether a count-only run multiplies the last level's count
// in at level K−2 instead of enumerating it.
func (p *Plan) Multiply() bool { return p.multiply }

// Dense reports whether the plan finishes its levels ≥ 2 on the root's
// neighborhood as word ANDs of dense rows.
func (p *Plan) Dense() bool { return p.dense }

// Options configures compilation.
type Options struct {
	Style   Style
	Induced bool
	// VCS enables vertical computation sharing annotations (default on via
	// Compile; disable to reproduce the paper's Figure 11 ablation).
	DisableVCS bool
	// DisableSymmetryBreak drops all restrictions, so every automorphic
	// image of a match is counted: AutSize times the matches. Frequent
	// subgraph mining compiles this way, its support being over all images;
	// tests use it to check the restriction scheme.
	DisableSymmetryBreak bool
	// Stats feeds the GraphPi cost model; zero value uses generic defaults.
	Stats GraphStats
}

// GraphStats summarizes the input graph for the cost model and the
// restriction direction.
type GraphStats struct {
	NumVertices int
	AvgDegree   float64
	// UpSq and DownSq are the graph's ID-skew sums Σ up(v)² and Σ down(v)²
	// (see graph.IDSkew). The compiler points the symmetry-breaking
	// restrictions in the cheaper direction; equal sums — synthesized stats
	// leave both zero — keep them ascending.
	UpSq, DownSq float64
}

// StatsOf extracts cost-model statistics from a graph. The per-vertex scan
// behind the skew sums is memoized on the graph, so a compile per candidate
// pattern or per query does not repeat it.
func StatsOf(g *graph.Graph) GraphStats {
	n := g.NumVertices()
	avg := 0.0
	if n > 0 {
		avg = float64(g.NumDirectedEdges()) / float64(n)
	}
	up, down := g.IDSkew()
	return GraphStats{
		NumVertices: n,
		AvgDegree:   avg,
		UpSq:        up,
		DownSq:      down,
	}
}

// PosLabel returns the required label of the vertex matched at position i.
func (p *Plan) PosLabel(i int) graph.Label {
	if p.labels == nil {
		return 0
	}
	return p.labels[i]
}

// Labeled reports whether the plan constrains vertex labels.
func (p *Plan) Labeled() bool { return p.labels != nil }

// FoldLevel returns the first level of the folded tail — the level a folding
// count-only run ends at — or K when the plan has none.
func (p *Plan) FoldLevel() int { return p.K - p.fold }

// derive computes every annotation of p from its matching: each level's
// intersect, exclude and bounds and the plan's Induced, VCS and labels. It is
// the only code that writes them, so no two can disagree. Per level it reads
// off what the set expression reads, how it follows from the parent's, which
// operand the children of one parent share and whether a count-only run ends
// there, and each annotation is one rule over those.
func (p *Plan) derive() {
	k := p.K
	unlabeled := !p.Labeled() && !p.edgeLabeled
	for i := 1; i < k; i++ {
		lv := &p.levels[i]
		// The positions the level's set expression reads — intersects, or in
		// induced mode subtracts — are active: their lists are carried.
		for _, j := range lv.intersect {
			p.levels[j].needsList = true
		}
		if p.induced {
			for _, j := range lv.exclude {
				p.levels[j].needsList = true
			}
		}
		lv.reuse = p.reuseOf(i)
		p.levels[i-1].storeInter = lv.reuse != reuseNone
	}
	for i := 1; i < k; i++ {
		p.levels[i].clipStore = p.storeClippable(i)
	}
	// The last level's candidates are only ever counted by a count-only
	// sink; mark it when the counting kernels cover its set expression
	// (labels and chained subtractions fall back to a bounded materialize).
	last := &p.levels[k-1]
	last.countOnly = unlabeled && (!p.induced || len(last.exclude) <= 1)
	// A count-only run can stop earlier still where the plan ends in a tail
	// of levels that share one set: mark the longest one. Where none folds
	// and no dense suffix runs, it can stop one level early when the last
	// level's count does not depend on v_{K−2}.
	for r := k - 1; r >= 2 && p.fold == 0; r-- {
		if p.foldable(r) {
			p.fold = r
		}
	}
	p.dense = p.denseable()
	p.multiply = p.multipliable()
	// A dense plan builds each level-1 embedding's row from its list: the
	// levels below read it as the row of the position they intersect.
	p.levels[1].needsList = p.levels[1].needsList || p.dense
	// The level a count-only run ends at: the first of a folded tail, level
	// K−2 of a multiplied plan, else a count-only last level.
	end := p.FoldLevel()
	switch {
	case p.multiply:
		end = k - 2
	case p.fold == 0 && last.countOnly:
		end = k - 1
	}
	for i := 2; i < k; i++ {
		lv := &p.levels[i]
		// The operand the level's set expression starts from — the parent's
		// stored raw, else the list at intersect[0] — is the same for every
		// child of one parent when it is the raw or that position lies above
		// the parent.
		shared := lv.reuse != reuseNone || lv.intersect[0] <= i-2
		subs := 0
		if p.induced {
			subs = len(lv.exclude)
		}
		// The level a count-only run ends at probes the shared operand x when
		// its final operation is x ∩ N(v_{i−1}) (reuseExtend), x \ N(v_e)
		// (reuseSame, one subtraction) or x ∩ N(v_j) (two lists), on a sorted,
		// unlabeled plan; a dense plan counts by popcount instead.
		lv.probe = i == end && !p.dense && unlabeled && shared &&
			(lv.reuse == reuseExtend && subs == 0 || lv.reuse == reuseSame && subs == 1 ||
				lv.reuse == reuseNone && len(lv.intersect) == 2 && subs == 0)
		// A labeled level filters once per run when the shared operand is its
		// whole raw set and no bound is against v_{i−1}, the vertex its
		// siblings differ in. Level 1 never does: all roots are children of
		// one parent, and no run is started among them.
		lv.filterOnce = p.Labeled() && !p.induced && !p.edgeLabeled && shared &&
			(lv.reuse == reuseSame || lv.reuse == reuseNone && len(lv.intersect) == 1) &&
			!slices.Contains(lv.bounds, i-1)
	}
}

// reuseOf returns how level i's raw intersection follows from its parent's
// under vertical computation sharing: the same positions (reuseSame), or the
// parent's plus i−1 (reuseExtend), which, i−1 lying past every position the
// parent reads, is the parent's list with i−1 appended.
func (p *Plan) reuseOf(i int) reuseKind {
	if !p.vcs || i < 2 {
		return reuseNone
	}
	cur, prev := p.levels[i].intersect, p.levels[i-1].intersect
	switch {
	case slices.Equal(cur, prev):
		return reuseSame
	case cur[len(cur)-1] == i-1 && slices.Equal(cur[:len(cur)-1], prev):
		return reuseExtend
	}
	return reuseNone
}

// foldable reports whether the last r ≥ 2 levels of a non-induced plan
// without vertex or edge labels form a tail that folds (see Plan.fold): each
// intersects the same earlier positions as the first tail level f and
// nothing else, each is restricted against its predecessor in the tail, and
// none carries a restriction against a position before the tail that the
// first tail level does not carry too. The tail's vertices are then pairwise
// non-adjacent twins over those positions: all draw from level f's candidate
// set X, which already drops every earlier matched vertex a tail vertex can
// equal, and the chain of bounds makes them strictly monotone in ID, which
// in turn keeps each inside level f's outside bounds. So the tail matches
// exactly the r-subsets of X, one per subset. The stabilizer chain never
// breaks the last condition — tail vertices are interchangeable, so an
// outside bound on one is a bound on the first — but the fold's count rests
// on it.
func (p *Plan) foldable(r int) bool {
	if r < 2 || r >= p.K || p.induced || p.Labeled() || p.edgeLabeled {
		return false
	}
	f := p.K - r
	first := &p.levels[f]
	for i := f + 1; i < p.K; i++ {
		lv := &p.levels[i]
		if !slices.Equal(lv.intersect, first.intersect) || !slices.Contains(lv.bounds, i-1) {
			return false
		}
		for _, a := range lv.bounds {
			if a < f && !slices.Contains(first.bounds, a) {
				return false
			}
		}
	}
	return true
}

// multipliable reports whether a count-only run may end at level K−2 of a
// non-induced plan that neither folds nor runs dense, and multiply (see
// Plan.multiply). Where the dense suffix applies it is kept: it builds no
// level-2 chunk and fetches no list past level 1, which saves more than
// ending the sorted walk one level early (K4 with a pendant at v0 takes a
// ninth of the extensions dense that it takes multiplied). The last level
// must be count-eligible (so unlabeled), reuse nothing, carry no bounds and
// intersect only positions ≤ K−3, so that its set X is fixed before v_{K−2}
// is chosen, and every position it excludes must be adjacent in the pattern
// to every position it intersects, so that each excluded vertex lies in X.
// Its candidates are then X less exactly |exclude| distinct vertices, for
// every v_{K−2}.
func (p *Plan) multipliable() bool {
	k := p.K
	last := &p.levels[k-1]
	if p.fold != 0 || p.dense || !last.countOnly || p.induced || last.reuse != reuseNone || len(last.bounds) > 0 {
		return false
	}
	for _, j := range last.intersect {
		if j > k-3 {
			return false
		}
		for _, e := range last.exclude {
			if !p.adjacent(e, j) {
				return false
			}
		}
	}
	return true
}

// adjacent reports whether the pattern joins positions a and b: the later of
// the two intersects the earlier.
func (p *Plan) adjacent(a, b int) bool {
	if a > b {
		a, b = b, a
	}
	return slices.Contains(p.levels[b].intersect, a)
}

// storeClippable reports whether level i may store its raw intersection R_i
// clipped to its own bounds (see Level.clipStore). Every level that derives
// its raw from R_i must keep only candidates inside those bounds: the child
// i+1, and each level below it while the reuse chain keeps storing, because a
// clipped R_i flows through every stored intersection built on it. The test
// is on the bounds' one side: a level passes if it carries every bound
// position of level i, or if it is bounded by a position already shown to lie
// inside them — i itself, or an earlier level of the chain.
func (p *Plan) storeClippable(i int) bool {
	lv := &p.levels[i]
	if !lv.storeInter || len(lv.bounds) == 0 {
		return false
	}
	inside := []int{i}
	for m := i + 1; m < p.K && p.levels[m-1].storeInter; m++ {
		c := &p.levels[m]
		if c.reuse == reuseNone {
			break
		}
		if !boundedWithin(lv.bounds, c.bounds, inside) {
			return false
		}
		inside = append(inside, m)
	}
	return true
}

// boundedWithin reports whether a level bounded by the positions in got keeps
// its candidates inside the bounds want: it carries all of want, or one of got
// lies inside already.
func boundedWithin(want, got, inside []int) bool {
	if len(want) == 0 {
		return true
	}
	for _, a := range got {
		if slices.Contains(inside, a) {
			return true
		}
	}
	for _, a := range want {
		if !slices.Contains(got, a) {
			return false
		}
	}
	return true
}

// String renders a compact human-readable schedule.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan{%s k=%d order=%v aut=%d", p.Style, p.K, p.order, p.AutSize)
	if p.induced {
		sb.WriteString(" induced")
	}
	if p.descending {
		sb.WriteString(" descending")
	}
	if p.fold > 0 {
		fmt.Fprintf(&sb, " fold=%d", p.fold)
	}
	if p.multiply {
		sb.WriteString(" multiply")
	}
	if p.dense {
		sb.WriteString(" dense")
	}
	for i := 1; i < p.K; i++ {
		lv := &p.levels[i]
		fmt.Fprintf(&sb, " L%d(int=%v", i, lv.intersect)
		if p.induced && len(lv.exclude) > 0 {
			fmt.Fprintf(&sb, " sub=%v", lv.exclude)
		}
		if len(lv.bounds) > 0 {
			_, key := p.boundSyms()
			fmt.Fprintf(&sb, " %s=%v", key, lv.bounds)
		}
		if lv.countOnly {
			sb.WriteString(" count-only")
		}
		if lv.probe {
			sb.WriteString(" probe")
		}
		if lv.filterOnce {
			sb.WriteString(" filter-once")
		}
		switch lv.reuse {
		case reuseSame:
			sb.WriteString(" reuse=same")
		case reuseExtend:
			sb.WriteString(" reuse=extend")
		}
		sb.WriteString(")")
	}
	sb.WriteString("}")
	return sb.String()
}

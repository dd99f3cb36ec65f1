// Package plan compiles pattern graphs into enumeration plans: a matching
// order with connected prefixes, per-level set operations, symmetry-breaking
// restrictions derived from the pattern's automorphism group, and the
// bookkeeping the Khuzdul engine needs for its extendable-embedding
// abstraction (which positions are "active" at each level, whether a level's
// intersection can be reused by its children — the paper's vertical
// computation sharing).
//
// A plan is the Go equivalent of the paper's compiled EXTEND function: the
// client systems k-Automine and k-GraphPi are Compile's two Styles, and every
// engine in the repository executes the plans either produces.
package plan

import (
	"fmt"
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
// Position 0 (the root) has a trivial level.
type Level struct {
	// Intersect lists the earlier positions adjacent to this one in the
	// pattern; the raw candidate set is the intersection of their edge lists.
	Intersect []int
	// EdgeLabels, when the pattern is edge-labeled, holds the required
	// label of the edge to each Intersect position (parallel slices).
	EdgeLabels []graph.Label
	// Exclude lists the earlier positions NOT adjacent to this one: the only
	// matched vertices a candidate can equal. A candidate is adjacent to
	// every Intersect position and graphs carry no self-loops, so
	// distinctness from the prefix is a test against these few. In induced
	// mode their edge lists are also subtracted from the candidates.
	Exclude []int
	// Bounds lists the earlier positions a whose matched vertex bounds this
	// level's candidates v by symmetry breaking: v > emb[a] in an ascending
	// plan, v < emb[a] in a descending one (Plan.Descending). The
	// stabilizer-chain scheme needs some total order on vertex IDs, not a
	// particular one, so the compiler picks per input graph whichever
	// direction leaves the shorter lists to intersect; all of a plan's
	// bounds share it.
	Bounds []int
	// CountOnly marks a level whose candidates a count-only caller need not
	// see: the last level of an unlabeled plan with at most one subtraction.
	// On a scratch in count-only mode Extend counts such a level with the
	// non-materializing kernels (see Scratch.SetCountOnly).
	CountOnly bool
	// Probe marks a count-only level — the one a count-only run ends at, the
	// CountOnly last level or Plan.FoldLevel — at depth ≥ 2 whose final set
	// operation has an operand every child of one parent shares: the parent's
	// stored intersection, extended (R ∩ N(v_{i−1}), ReuseExtend) or reused
	// with one induced subtraction (R \ N(v_e), ReuseSame), or in a two-list
	// Intersect the list of position Intersect[0] ≤ i−2. A count-only scratch
	// lent a mark set marks that operand once per parent run and counts each
	// later child by probing its own list against it (see Scratch.NewRun).
	// The compiler marks every level that passes probeable; Validate holds a
	// hand-set Probe to the same rule.
	Probe bool
	// FilterOnce marks a level i ≥ 2 of a vertex-labeled, non-induced plan
	// without edge labels whose raw set and bounds every child of one parent
	// shares: the parent's stored intersection under ReuseSame, or a single
	// Intersect list at position ≤ i−2, with no bound against position i−1. A
	// scratch lent run storage (Scratch.LendRuns) filters that set by
	// PosLabel(i) once per parent run and hands each child the filtered set
	// less its Exclude vertices (see Scratch.NewRun). The compiler marks every level
	// that passes filterable; Validate holds a hand-set FilterOnce to the same
	// rule.
	FilterOnce bool
	// ReuseSame marks that this level's raw intersection equals the parent
	// level's stored intersection (no set operation needed at all).
	ReuseSame bool
	// ReuseExtend marks that this level's raw intersection is the parent's
	// stored intersection ∩ N(previous vertex) — the paper's vertical
	// computation sharing (§5.1, Figure 9).
	ReuseExtend bool
	// StoreInter marks that the raw intersection computed at this level must
	// be kept in the extendable embedding for reuse by its children.
	StoreInter bool
	// ClipStore marks a bounded StoreInter level whose stored intersection is
	// clipped to the level's own bounds, like every other input: each level
	// that derives its raw intersection from it — the child, and below it for
	// as long as the reuse chain keeps storing — keeps only candidates inside
	// those bounds (see storeClippable). Without it the set is stored whole
	// and clipped on the way out.
	ClipStore bool
	// NeedsList marks that the vertex matched at this level is an active
	// vertex of some deeper level, i.e. its edge list must be fetched and
	// carried in the extendable embedding.
	NeedsList bool
}

// Plan is a compiled enumeration schedule for one pattern.
type Plan struct {
	// Pattern is the original pattern (before reordering).
	Pattern *pattern.Pattern
	// Order maps position → original pattern vertex.
	Order []int
	// K is the number of pattern vertices.
	K int
	// Levels has one entry per position.
	Levels []Level
	// Descending records the direction of every level's Bounds; a plan
	// without bounds is ascending. UpSq and DownSq are the input's ID-skew
	// sums (GraphStats) the compiler chose it by: descending when
	// DownSq < UpSq.
	Descending   bool
	UpSq, DownSq float64
	// AutSize is the order of the pattern's automorphism group.
	AutSize int
	// Induced selects induced matching (motif semantics).
	Induced bool
	// VCS reports whether vertical computation sharing annotations are on.
	VCS bool
	// Labels holds the per-position required vertex label, nil if unlabeled.
	Labels []graph.Label
	// EdgeLabeled marks plans whose pattern constrains edge labels.
	EdgeLabeled bool
	// Style records which client system produced the plan.
	Style Style
	// EstCost is the cost-model estimate used during order selection.
	EstCost float64
	// Fold is the length r of the plan's star tail, 0 when it has none: the
	// last r ≥ 2 levels all intersect one and the same earlier position (the
	// anchor) and nothing else, each is restricted against its predecessor
	// in the tail, and none carries a restriction against a position before
	// the tail that the first tail level does not carry too. The tail then
	// matches exactly the r-subsets of the first tail level's candidate set,
	// in ID order, so a count-only run stops at level FoldLevel and adds
	// C(n, r) for its n candidates (see Scratch.SetCountOnly). Only non-induced
	// plans without vertex or edge labels fold; the materializing path
	// ignores the field.
	Fold int
	// Dense marks a plan whose levels ≥ 2 finish on the root's neighborhood:
	// every level ≥ 1 intersects position 0 and stays inside level 1's
	// bounds, so every candidate lies in S = R1, the level-1 stored raw. An
	// engine then builds, per level-1 embedding (v0, u), the bit row of u
	// over S's indices and runs every deeper level as word ANDs of sibling
	// rows, with no level-2 chunk and no level-2 fetch (see DenseRow and
	// DenseFinish). The compiler marks it where a level ≥ 3 intersects a
	// position ≥ 2 — where the sorted path fetches a level-2 list — on
	// non-induced, unlabeled, non-folding plans with K ≥ 4 and vertical
	// computation sharing on. The Level fields keep describing the sorted
	// schedule, which the Executor runs whatever Dense says.
	Dense bool
}

// Options configures compilation.
type Options struct {
	Style   Style
	Induced bool
	// VCS enables vertical computation sharing annotations (default on via
	// Compile; disable to reproduce the paper's Figure 11 ablation).
	DisableVCS bool
	// DisableSymmetryBreak drops all restrictions; counts must then be
	// divided by AutSize. Used by tests to validate the restriction scheme.
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
	if p.Labels == nil {
		return 0
	}
	return p.Labels[i]
}

// Labeled reports whether the plan constrains vertex labels.
func (p *Plan) Labeled() bool { return p.Labels != nil }

// FoldLevel returns the first level of the star tail — the level a folding
// count-only run ends at — or K when the plan has none.
func (p *Plan) FoldLevel() int { return p.K - p.Fold }

// foldable reports whether the last r levels of p form a star tail (see
// Plan.Fold). The compiler marks the longest one; Validate holds a
// hand-written Fold to the same conditions.
func (p *Plan) foldable(r int) bool {
	if r < 2 || r >= p.K || p.Induced || p.Labeled() || p.EdgeLabeled {
		return false
	}
	f := p.K - r
	first := &p.Levels[f]
	if len(first.Intersect) != 1 {
		return false
	}
	for i := f + 1; i < p.K; i++ {
		lv := &p.Levels[i]
		if len(lv.Intersect) != 1 || lv.Intersect[0] != first.Intersect[0] || !containsInt(lv.Bounds, i-1) {
			return false
		}
		for _, a := range lv.Bounds {
			if a < f && !containsInt(first.Bounds, a) {
				return false
			}
		}
	}
	return true
}

// storeClippable reports whether level i may store its raw intersection R_i
// clipped to its own bounds (see Level.ClipStore). Every level that derives
// its raw from R_i must keep only candidates inside those bounds: the child
// i+1, and each level below it while the reuse chain keeps storing, because a
// clipped R_i flows through every stored intersection built on it. The test
// is on the bounds' one side: a level passes if it carries every bound
// position of level i, or if it is bounded by a position already shown to lie
// inside them — i itself, or an earlier level of the chain. The compiler marks every level
// that passes; Validate holds a hand-set ClipStore to the same conditions.
func (p *Plan) storeClippable(i int) bool {
	lv := &p.Levels[i]
	if !lv.StoreInter || len(lv.Bounds) == 0 {
		return false
	}
	inside := []int{i}
	for m := i + 1; m < p.K && p.Levels[m-1].StoreInter; m++ {
		c := &p.Levels[m]
		if !c.ReuseSame && !c.ReuseExtend {
			break
		}
		if !boundedWithin(lv.Bounds, c.Bounds, inside) {
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
		if containsInt(inside, a) {
			return true
		}
	}
	for _, a := range want {
		if !containsInt(got, a) {
			return false
		}
	}
	return true
}

// probeable reports whether level i qualifies for Level.Probe: it is the
// level a count-only run ends at, at depth ≥ 2 on a sorted (non-dense),
// unlabeled plan, and its final set operation is one of the three forms whose
// operand x the children of one parent share while each brings its own list:
// x ∩ N(v_{i−1}) for x the parent's stored raw under ReuseExtend, with no
// subtraction; x \ N(v_e) for x that raw under ReuseSame, with exactly one;
// x ∩ N(v_j) for x = N(v_{Intersect[0]}), Intersect[0] ≤ i−2, in a two-list
// Intersect with no subtraction.
func (p *Plan) probeable(i int) bool {
	lv := &p.Levels[i]
	end := p.K - 1
	if p.Fold > 0 {
		end = p.FoldLevel()
	}
	if i < 2 || i != end || p.Dense || p.Labeled() || p.EdgeLabeled || p.Fold == 0 && !lv.CountOnly {
		return false
	}
	subs := 0
	if p.Induced {
		subs = len(lv.Exclude)
	}
	switch {
	case p.VCS && lv.ReuseExtend:
		return subs == 0
	case p.VCS && lv.ReuseSame:
		return subs == 1
	default:
		return len(lv.Intersect) == 2 && lv.Intersect[0] <= i-2 && subs == 0
	}
}

// filterable reports whether level i qualifies for Level.FilterOnce: depth
// ≥ 2 on a vertex-labeled, non-induced plan without edge labels, whose raw set
// is one every child of one parent shares — the parent's stored raw, reused
// whole (ReuseSame), or N(v_j) for the level's one Intersect position
// j ≤ i−2 — and whose bounds they share too: none is against position i−1,
// the vertex siblings differ in. Level 1 never qualifies: all roots are
// children of one parent, and no run is started among them.
func (p *Plan) filterable(i int) bool {
	lv := &p.Levels[i]
	if i < 2 || !p.Labeled() || p.Induced || p.EdgeLabeled || containsInt(lv.Bounds, i-1) {
		return false
	}
	return p.VCS && lv.ReuseSame || len(lv.Intersect) == 1 && lv.Intersect[0] <= i-2
}

// String renders a compact human-readable schedule.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan{%s k=%d order=%v aut=%d", p.Style, p.K, p.Order, p.AutSize)
	if p.Induced {
		sb.WriteString(" induced")
	}
	if p.Descending {
		sb.WriteString(" descending")
	}
	if p.Fold > 0 {
		fmt.Fprintf(&sb, " fold=%d", p.Fold)
	}
	if p.Dense {
		sb.WriteString(" dense")
	}
	for i := 1; i < p.K; i++ {
		lv := &p.Levels[i]
		fmt.Fprintf(&sb, " L%d(int=%v", i, lv.Intersect)
		if p.Induced && len(lv.Exclude) > 0 {
			fmt.Fprintf(&sb, " sub=%v", lv.Exclude)
		}
		if len(lv.Bounds) > 0 {
			_, key := p.boundSyms()
			fmt.Fprintf(&sb, " %s=%v", key, lv.Bounds)
		}
		if lv.CountOnly {
			sb.WriteString(" count-only")
		}
		if lv.Probe {
			sb.WriteString(" probe")
		}
		if lv.FilterOnce {
			sb.WriteString(" filter-once")
		}
		if lv.ReuseSame {
			sb.WriteString(" reuse=same")
		}
		if lv.ReuseExtend {
			sb.WriteString(" reuse=extend")
		}
		sb.WriteString(")")
	}
	sb.WriteString("}")
	return sb.String()
}

// Validate checks internal consistency; compiled plans always pass, and
// hand-written plans can use it as a safety net.
func (p *Plan) Validate() error {
	if p.K != len(p.Levels) {
		return fmt.Errorf("plan: K=%d but %d levels", p.K, len(p.Levels))
	}
	if p.K != p.Pattern.NumVertices() {
		return fmt.Errorf("plan: K=%d but pattern has %d vertices", p.K, p.Pattern.NumVertices())
	}
	if len(p.Order) != p.K {
		return fmt.Errorf("plan: order length %d != K", len(p.Order))
	}
	seen := make([]bool, p.K)
	for _, v := range p.Order {
		if v < 0 || v >= p.K || seen[v] {
			return fmt.Errorf("plan: order %v is not a permutation", p.Order)
		}
		seen[v] = true
	}
	for i := 1; i < p.K; i++ {
		lv := &p.Levels[i]
		if len(lv.Intersect) == 0 {
			return fmt.Errorf("plan: level %d has no intersect positions (order prefix disconnected)", i)
		}
		for _, j := range lv.Intersect {
			if j < 0 || j >= i {
				return fmt.Errorf("plan: level %d intersects future position %d", i, j)
			}
		}
		for _, r := range lv.Bounds {
			if r < 0 || r >= i {
				return fmt.Errorf("plan: level %d bound on future position %d", i, r)
			}
		}
		if lv.CountOnly && (p.Labeled() || p.EdgeLabeled || p.Induced && len(lv.Exclude) > 1 || i != p.K-1) {
			return fmt.Errorf("plan: level %d cannot be count-only", i)
		}
		if lv.ReuseSame && lv.ReuseExtend {
			return fmt.Errorf("plan: level %d has both reuse modes", i)
		}
		// Distinctness tests only the excluded positions, so they must be
		// every earlier position the level does not intersect.
		n := 0
		for j := 0; j < i; j++ {
			if !containsInt(lv.Intersect, j) {
				if !containsInt(lv.Exclude, j) {
					return fmt.Errorf("plan: level %d excludes %v, missing position %d it does not intersect", i, lv.Exclude, j)
				}
				n++
			}
		}
		if len(lv.Exclude) != n {
			return fmt.Errorf("plan: level %d excludes %v, beyond the positions it does not intersect", i, lv.Exclude)
		}
		if lv.ClipStore && !p.storeClippable(i) {
			return fmt.Errorf("plan: level %d cannot clip its stored intersection: a level deriving from it reaches outside its bounds", i)
		}
		if lv.Probe && !p.probeable(i) {
			return fmt.Errorf("plan: level %d cannot probe a mark set: it is not where a count-only run ends, or no operand of its last set operation is shared by every child of one parent", i)
		}
		if lv.FilterOnce && !p.filterable(i) {
			return fmt.Errorf("plan: level %d cannot filter its set once per run: the plan is not vertex-labeled, non-induced and edge-unlabeled, or the children of one parent do not share the level's raw set and bounds", i)
		}
	}
	if p.Fold != 0 && !p.foldable(p.Fold) {
		return fmt.Errorf("plan: the last %d levels are not a star tail, cannot fold", p.Fold)
	}
	if p.Dense && !p.denseable() {
		return fmt.Errorf("plan: levels ≥ 2 cannot finish on the root's neighborhood, cannot run dense")
	}
	return nil
}

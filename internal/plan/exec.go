package plan

import (
	"math/bits"
	"slices"

	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
	"khuzdul/internal/setops"
)

// NeighborFunc resolves the sorted adjacency list of a vertex. Engines plug
// in the local partition, a fetched remote list, or the whole graph.
type NeighborFunc func(v graph.VertexID) []graph.VertexID

// LabelFunc resolves a vertex label; nil means the graph is unlabeled.
type LabelFunc func(v graph.VertexID) graph.Label

// EdgeLabelFunc resolves the label of an existing edge; nil means edges are
// unlabeled.
type EdgeLabelFunc func(u, v graph.VertexID) graph.Label

// noUpper is the exclusive upper bound meaning "unbounded".
const noUpper = ^graph.VertexID(0)

// Scratch holds reusable per-level buffers and the kernel dispatcher for plan
// execution. It is not safe for concurrent use; create one per worker.
type Scratch struct {
	interA [][]graph.VertexID
	interB [][]graph.VertexID
	subA   [][]graph.VertexID
	subB   [][]graph.VertexID
	cand   [][]graph.VertexID
	disp   setops.Dispatcher
	// kernels counts kernel invocations across all levels; engines drain it
	// into their metrics node between rounds.
	kernels [setops.NumKernels]uint64
	// countOnly switches count-eligible levels, the first level of the
	// plan's folded tail and level K−2 of a multiplied plan from returning
	// candidates to adding their number to counted; see SetCountOnly.
	countOnly bool
	counted   uint64
	// overflowed latches once a count did not fit counted; see Overflowed.
	overflowed bool
	// runs is the storage the children of one parent run share work through,
	// lent by the caller (LendRuns); nil leaves every level on its per-child
	// path. runKids counts the children of the current parent run the Probe
	// level has seen since NewRun, and marked records that runs.Marks holds
	// this run's shared operand. filtLevel is the FilterOnce level whose
	// buffer holds its filtered set for the current run, 0 for none.
	runs      *RunStorage
	runKids   int
	marked    bool
	filtLevel int
	// The dense suffix's state (DenseRow, DenseFinish): the side of its own
	// index a row covers and, per level, the positions whose rows it ANDs and
	// the bound positions that can cut it, all derived from the plan by
	// NewScratch; per-level candidate words; the S-index matched at each
	// position and the index bounding candidates against the root; the last
	// level's vertices for a materializing sink.
	denseSide   int8
	denseRows   [][]int
	denseBounds [][]int
	denseBits   []uint64
	denseIdx    []int
	denseRoot   int
	denseOut    []graph.VertexID
}

// NewScratch allocates buffers sized for plan p.
func NewScratch(p *Plan) *Scratch {
	s := &Scratch{
		interA: make([][]graph.VertexID, p.K),
		interB: make([][]graph.VertexID, p.K),
		subA:   make([][]graph.VertexID, p.K),
		subB:   make([][]graph.VertexID, p.K),
		cand:   make([][]graph.VertexID, p.K),
	}
	s.disp.Counts = &s.kernels
	if p.dense {
		s.denseSide = p.denseRowSide()
		s.denseRows, s.denseBounds = p.denseTables()
		s.denseIdx = make([]int, p.K)
	}
	return s
}

// KernelCounts exposes the per-kernel invocation counters. The engine reads
// and zeroes them at drain points; the scratch must be quiescent.
func (s *Scratch) KernelCounts() *[setops.NumKernels]uint64 { return &s.kernels }

// SetCountOnly tells Extend that the caller wants only the number of matches.
// A count-eligible level (Level.countOnly) then returns no candidates and
// leaves their count for TakeCount, and so does the first level of a folded
// tail (Plan.Fold): at Plan.FoldLevel it leaves C(n, Fold), n being that
// level's candidate count — every match the tail levels would have built —
// and its nil candidates end the walk there. A multiplied plan
// (Plan.Multiply) ends the walk one level early the same way: level K−2
// leaves n × m, m being the last level's candidate count, which no v_{K−2}
// changes. A count-only caller must therefore take the count after every
// Extend, not only at the last level.
// The mode rides on the scratch, like the kernel ledger, so Extend stays the
// one call an engine makes per embedding and a decorator around it sees
// every level.
func (s *Scratch) SetCountOnly(on bool) { s.countOnly = on }

// RunStorage is what the children of one parent run share work through: the
// mark set a Probe level (Level.Probe) counts against, and one buffer per
// FilterOnce level (Level.FilterOnce) holding its shared set filtered by
// label, so that a level's candidates stay valid while deeper levels extend,
// as Candidates' do. It holds vertex IDs and bitmap words only.
type RunStorage struct {
	Marks    setops.Bitmap
	Filtered [pattern.MaxVertices][]graph.VertexID
}

// LendRuns lends the scratch storage for the work siblings share. Once lent,
// a count-only Extend at a Probe level marks the operand siblings share on a
// run's second child and probes every later child's own list against it, and
// Extend at a FilterOnce level filters the set siblings share by the level's
// label once and hands each child that set, less its own Exclude vertices.
// The storage stays the caller's — an engine keeps one per worker, so it
// outlives the scratch — and a lender must call NewRun wherever a new
// parent's children begin.
func (s *Scratch) LendRuns(r *RunStorage) {
	s.runs = r
	s.NewRun()
}

// NewRun tells the scratch that the next Extend starts a new parent run: the
// embeddings extended from here on, until the next NewRun, are children of one
// parent, so a Probe level's shared operand, and a FilterOnce level's shared
// set, is the same for all of them. A caller may split one parent's children
// into several runs — each then marks its operand or filters its set again —
// but must never let one run span two parents.
func (s *Scratch) NewRun() {
	s.runKids = 0
	s.marked = false
	s.filtLevel = 0
}

// TakeCount returns the candidates counted since the last call and resets
// the counter.
func (s *Scratch) TakeCount() uint64 {
	n := s.counted
	s.counted = 0
	return n
}

// Overflowed reports whether any count since NewScratch exceeded a uint64 —
// a folded tail or a multiplied last level can count more matches in one
// step than enumeration could visit in a lifetime. The counts taken since
// are then meaningless and the run must fail.
func (s *Scratch) Overflowed() bool { return s.overflowed }

// add adds c to the count; ok false means c itself did not fit a uint64.
// Either that or a sum that wraps latches Overflowed.
func (s *Scratch) add(c uint64, ok bool) {
	s.counted += c
	if !ok || s.counted < c {
		s.overflowed = true
	}
}

// binomial returns C(n, r), and false when it does not fit a uint64.
func binomial(n uint64, r int) (uint64, bool) {
	if uint64(r) > n {
		return 0, true
	}
	c := uint64(1)
	for i := uint64(1); i <= uint64(r); i++ {
		// c is C(m-1, i-1) for m = n-r+i, so c·m/i = C(m, i) divides exactly;
		// the intermediate values only grow, so the first to overflow is the
		// earliest sign that the result does.
		hi, lo := bits.Mul64(c, n-uint64(r)+i)
		if hi >= i {
			return 0, false
		}
		c, _ = bits.Div64(hi, lo, i)
	}
	return c, true
}

// bounds folds level's symmetry-breaking restrictions over the matched prefix
// into one candidate interval [lo, hi): v > emb[a] for every bound of an
// ascending plan, v < emb[a] for every bound of a descending one. (0, noUpper)
// is unbounded.
func (p *Plan) bounds(level int, emb []graph.VertexID) (lo, hi graph.VertexID) {
	hi = noUpper
	for _, a := range p.levels[level].bounds {
		if p.descending {
			hi = min(hi, emb[a])
		} else {
			lo = max(lo, emb[a]+1)
		}
	}
	return lo, hi
}

// Extend is one EXTEND step of the compiled plan: the candidates for position
// level given the matched prefix emb, and the raw intersection to keep when
// the level stores it (Level.StoreInter). Every input list is clipped to the
// level's restriction interval before a kernel touches it — except where the
// raw intersection is stored for levels that may reach outside the interval
// (stored without Level.ClipStore): that set is computed whole and clipped on
// the way out. On a scratch in count-only mode a count-eligible level, the
// first level of a folded tail and level K−2 of a multiplied plan return
// nothing and leave their count for TakeCount instead (see SetCountOnly).
// labelOf and edgeLabelOf may be nil for graphs without the corresponding
// labels. Both returned slices may alias scratch storage, the lent run
// storage, getList output or parentRaw; the caller must not write them.
func (p *Plan) Extend(s *Scratch, level int, emb []graph.VertexID, getList func(int) []graph.VertexID, parentRaw []graph.VertexID, labelOf LabelFunc, edgeLabelOf EdgeLabelFunc) (cands, raw []graph.VertexID) {
	lv := &p.levels[level]
	lo, hi := p.bounds(level, emb)
	if s.countOnly {
		switch {
		case level == p.FoldLevel():
			s.add(binomial(uint64(p.countLevel(s, level, emb, getList, parentRaw, lo, hi)), p.fold))
			return nil, nil
		case p.multiply && level == p.K-2:
			var over, c uint64
			if n := p.countLevel(s, level, emb, getList, parentRaw, lo, hi); n > 0 {
				over, c = bits.Mul64(uint64(n), p.multiplier(s, getList))
			}
			s.add(c, over == 0)
			return nil, nil
		case lv.countOnly:
			s.counted += uint64(p.countLevel(s, level, emb, getList, parentRaw, lo, hi))
			return nil, nil
		}
	}
	var src []graph.VertexID
	if lv.storeInter && !lv.clipStore {
		raw = p.RawIntersect(s, level, getList, parentRaw, 0, noUpper)
		src = setops.Clip(raw, lo, hi)
	} else {
		raw = p.RawIntersect(s, level, getList, parentRaw, lo, hi)
		src = raw
	}
	if lv.filterOnce && s.runs != nil && labelOf != nil {
		return p.siblingCandidates(s, level, emb, getList, parentRaw, labelOf, lo, hi), raw
	}
	cands = p.Candidates(s, level, emb, src, getList, labelOf, lo, hi)
	return p.FilterEdgeLabels(level, emb, cands, edgeLabelOf), raw
}

// countLevel returns the number of candidates Candidates would produce for an
// unlabeled level with at most one subtraction — a count-eligible last level,
// the first level of a folded tail or level K−2 of a multiplied plan —
// without building them. The level's set expression is reduced to one final
// operation on a materialized, clipped operand x — x ∩ l or x \ b — and that
// operation is counted by the dispatcher, so the kernel choice and the ledger
// are those of the materializing path.
func (p *Plan) countLevel(s *Scratch, level int, emb []graph.VertexID, getList func(int) []graph.VertexID, parentRaw []graph.VertexID, lo, hi graph.VertexID) int {
	lv := &p.levels[level]
	if lv.probe && s.runs != nil {
		if n, ok := p.probeLevel(s, level, emb, getList, parentRaw, lo, hi); ok {
			return n
		}
	}
	d := &s.disp
	// x ∩ l is the raw intersection; pair is false when x alone already is.
	var x, l []graph.VertexID
	pair := false
	switch {
	case lv.reuse == reuseExtend:
		x, l, pair = parentRaw, getList(level-1), true
	case len(lv.intersect) == 2 && lv.reuse != reuseSame:
		x, l, pair = getList(lv.intersect[0]), getList(lv.intersect[1]), true
	default:
		x = p.RawIntersect(s, level, getList, parentRaw, lo, hi)
	}
	var sub []graph.VertexID
	subtract := p.induced && len(lv.exclude) == 1
	if subtract {
		sub = getList(lv.exclude[0])
		if pair {
			s.interB[level] = d.IntersectBounded(s.interB[level][:0], x, l, lo, hi)
			x, pair = s.interB[level], false
		}
	}
	var n int
	switch {
	case pair:
		n = d.CountBounded(x, l, lo, hi)
	case subtract:
		n = d.CountSubtract(x, sub, lo, hi)
	default:
		n = len(x)
	}
	// Distinctness (see Level.exclude): test the few matched vertices a
	// candidate can equal for membership instead of filtering every
	// candidate against the prefix.
	for _, q := range lv.exclude {
		v := emb[q]
		if v < lo || v >= hi {
			continue
		}
		if setops.Contains(x, v) && (!pair || setops.Contains(l, v)) && !(subtract && setops.Contains(sub, v)) {
			n--
		}
	}
	return n
}

// multiplier returns the number of candidates the last level of a multiplied
// plan (Plan.multiply) has, the same for every v_{K−2}: |X| − |exclude|, X
// the intersection of its lists, all at positions ≤ K−3, which holds every
// vertex it excludes. X is counted, not built, where it is one list or two.
func (p *Plan) multiplier(s *Scratch, getList func(int) []graph.VertexID) uint64 {
	lv := &p.levels[p.K-1]
	var x int
	switch len(lv.intersect) {
	case 1:
		x = len(getList(lv.intersect[0]))
	case 2:
		x = s.disp.CountBounded(getList(lv.intersect[0]), getList(lv.intersect[1]), 0, noUpper)
	default:
		x = len(p.RawIntersect(s, p.K-1, getList, nil, 0, noUpper))
	}
	return uint64(x - len(lv.exclude))
}

// probeLevel counts a Probe level against the lent mark set. The first child
// of a run is left to countLevel's sorted path, so a run of one child costs
// what it did without the mark; the second marks the shared operand x — the
// parent's stored raw, or the list at intersect[0] — and it and every later
// child count by probing their own list (CountProbe). ok is false where the
// sorted path counts the child instead: the first of its run, or a run whose
// x is too wide to mark.
func (p *Plan) probeLevel(s *Scratch, level int, emb []graph.VertexID, getList func(int) []graph.VertexID, parentRaw []graph.VertexID, lo, hi graph.VertexID) (int, bool) {
	lv := &p.levels[level]
	reuse := lv.reuse != reuseNone
	s.runKids++
	if s.runKids == 1 {
		return 0, false
	}
	if s.runKids == 2 {
		x := parentRaw
		if !reuse {
			x = getList(lv.intersect[0])
		}
		s.marked = s.runs.Marks.Mark(x)
	}
	if !s.marked {
		return 0, false
	}
	// The child's own list: N(v_{level−1}) under reuseExtend, the one list
	// reuseSame subtracts, else the intersect's second list.
	subtract := lv.reuse == reuseSame
	var l []graph.VertexID
	switch {
	case subtract:
		l = getList(lv.exclude[0])
	case reuse:
		l = getList(level - 1)
	default:
		l = getList(lv.intersect[1])
	}
	n := s.disp.CountProbe(&s.runs.Marks, l, lo, hi)
	if subtract {
		// The marks hold parentRaw: CountProbe has just made this cut.
		n = len(s.runs.Marks.Clip(lo, hi)) - n
	}
	// Distinctness as in countLevel, x's membership read off the marks.
	for _, q := range lv.exclude {
		if v := emb[q]; v >= lo && v < hi && s.runs.Marks.Contains(v) && setops.Contains(l, v) != subtract {
			n--
		}
	}
	return n, true
}

// siblingCandidates returns a FilterOnce level's candidates from the set the
// children of one parent run share, filtered by the level's label once per
// run. The shared set is the one RawIntersect reads: the parent's stored raw
// under reuseSame, else the one intersect list. The run's first child fills
// the level's lent buffer with the vertices of that set inside [lo, hi) —
// bounds the whole run shares — that carry PosLabel(level), less the exclude
// vertices the run shares: the label tests Candidates would make for it.
// Every later child tests no label at all. A child whose sibling vertex is
// excluded drops it from a copy; any other gets the filtered slice itself,
// which no one may write.
func (p *Plan) siblingCandidates(s *Scratch, level int, emb []graph.VertexID, getList func(int) []graph.VertexID, parentRaw []graph.VertexID, labelOf LabelFunc, lo, hi graph.VertexID) []graph.VertexID {
	lv := &p.levels[level]
	f := s.runs.Filtered[level]
	if s.filtLevel != level {
		x := parentRaw
		if lv.reuse != reuseSame {
			x = getList(lv.intersect[0])
		}
		// The Exclude vertices before position level−1 are the run's: no
		// sibling takes them, so the filter drops them.
		var buf [maxExclude]graph.VertexID
		shared := buf[:0]
		for _, q := range lv.exclude {
			if q < level-1 {
				shared = append(shared, emb[q])
			}
		}
		want := p.PosLabel(level)
		f = f[:0]
		for _, v := range setops.Clip(x, lo, hi) {
			if labelOf(v) == want && !containsVertex(shared, v) {
				f = append(f, v)
			}
		}
		s.runs.Filtered[level], s.filtLevel = f, level
	}
	// The one exclude position the filter left is level−1, the vertex this
	// child's embedding differs from its siblings' in.
	if !slices.Contains(lv.exclude, level-1) {
		return f[:len(f):len(f)]
	}
	i, found := slices.BinarySearch(f, emb[level-1])
	if !found {
		return f[:len(f):len(f)]
	}
	out := append(s.cand[level][:0], f[:i]...)
	out = append(out, f[i+1:]...)
	s.cand[level] = out
	return out
}

// RawIntersect computes the raw candidate intersection for the given level:
// ∩ N(emb[j]) over j in the level's intersect, restricted to [lo, hi) by
// clipping every input before it is read and honoring the plan's
// vertical-computation-sharing annotations. Three or more lists are
// intersected pairwise, the running result narrowed by each further list.
// getList(pos) must return the sorted edge list of the vertex matched at
// position pos. parentRaw is the intersection the parent level stored, which
// a reusing level reads. The result may alias getList
// output, parentRaw, or scratch storage; callers that retain it across
// further calls must copy.
func (p *Plan) RawIntersect(s *Scratch, level int, getList func(int) []graph.VertexID, parentRaw []graph.VertexID, lo, hi graph.VertexID) []graph.VertexID {
	lv := &p.levels[level]
	d := &s.disp
	if lv.reuse == reuseSame {
		return setops.Clip(parentRaw, lo, hi)
	}
	if lv.reuse == reuseExtend {
		s.interA[level] = d.IntersectBounded(s.interA[level][:0], parentRaw, getList(level-1), lo, hi)
		return s.interA[level]
	}
	if len(lv.intersect) == 1 {
		return setops.Clip(getList(lv.intersect[0]), lo, hi)
	}
	a := d.IntersectBounded(s.interA[level][:0], getList(lv.intersect[0]), getList(lv.intersect[1]), lo, hi)
	s.interA[level] = a
	for _, j := range lv.intersect[2:] {
		b := d.IntersectBounded(s.interB[level][:0], a, getList(j), lo, hi)
		s.interB[level] = b
		// Keep the freshest result in interA so the next round's [:0] reuse
		// does not clobber it.
		s.interA[level], s.interB[level] = s.interB[level], s.interA[level]
		a = b
	}
	return a
}

// maxExclude bounds a level's Exclude list: at most K−2 positions.
const maxExclude = pattern.MaxVertices - 2

// Candidates filters the raw intersection, already clipped to the
// symmetry-breaking interval [lo, hi) (see Plan.bounds), into the final
// candidate set for the level: induced-mode subtraction of non-neighbor lists,
// distinctness from the earlier vertices and the position label. Only the
// matched vertices at the level's exclude positions that lie in [lo, hi) — and,
// on a labeled walk, carry the level's label — can be candidates, so they form
// a short exclusion list, and one pass tests each candidate's label and that
// list; with both empty the pass is a plain copy. The result aliases the
// scratch candidate buffer for this level, which deeper levels do not touch, so
// it remains valid while the caller recurses.
func (p *Plan) Candidates(s *Scratch, level int, emb []graph.VertexID, raw []graph.VertexID, getList func(int) []graph.VertexID, labelOf LabelFunc, lo, hi graph.VertexID) []graph.VertexID {
	lv := &p.levels[level]
	src := raw
	if p.induced && len(lv.exclude) > 0 {
		a, b := s.subA[level], s.subB[level]
		for _, j := range lv.exclude {
			a = setops.Subtract(a[:0], src, setops.Clip(getList(j), lo, hi))
			src = a
			if len(a) == 0 {
				break
			}
			a, b = b, a
		}
		s.subA[level], s.subB[level] = a[:0], b[:0] // retain grown capacity
	}

	labeled := labelOf != nil && p.Labeled()
	want := p.PosLabel(level)
	var buf [maxExclude]graph.VertexID
	excl := buf[:0]
	for _, q := range lv.exclude {
		if v := emb[q]; v >= lo && v < hi && (!labeled || labelOf(v) == want) {
			excl = append(excl, v)
		}
	}
	out := s.cand[level][:0]
	switch {
	case labeled:
		for _, v := range src {
			if labelOf(v) == want && !containsVertex(excl, v) {
				out = append(out, v)
			}
		}
	case len(excl) > 0:
		for _, v := range src {
			if !containsVertex(excl, v) {
				out = append(out, v)
			}
		}
	default:
		out = append(out, src...)
	}
	s.cand[level] = out
	return out
}

// containsVertex reports whether the short unsorted list excl holds v.
func containsVertex(excl []graph.VertexID, v graph.VertexID) bool {
	for _, x := range excl {
		if x == v {
			return true
		}
	}
	return false
}

// FilterEdgeLabels drops candidates whose edges back to the matched
// positions carry the wrong labels, filtering cands in place. It is a
// separate pass so that engines over unlabeled-edge graphs pay nothing.
func (p *Plan) FilterEdgeLabels(level int, emb []graph.VertexID, cands []graph.VertexID, edgeLabelOf EdgeLabelFunc) []graph.VertexID {
	if edgeLabelOf == nil || !p.edgeLabeled {
		return cands
	}
	lv := &p.levels[level]
	w := cands[:0]
next:
	for _, v := range cands {
		for idx, j := range lv.intersect {
			if edgeLabelOf(emb[j], v) != lv.edgeLabels[idx] {
				continue next
			}
		}
		w = append(w, v)
	}
	return w
}

// Executor runs a compiled plan depth-first over a neighbor oracle. It is
// the reference single-machine execution path used by the AutomineIH-style
// engines and the baselines; the distributed Khuzdul engine calls the same
// Plan.Extend but schedules levels with chunks. The executor never switches
// its scratch to count-only mode: it builds every last-level candidate set and
// takes its length, which keeps CountGraph — the benchmark's oracle —
// independent of the counting kernels.
type Executor struct {
	plan     *Plan
	nbr      NeighborFunc
	labelOf  LabelFunc
	elabelOf EdgeLabelFunc
	scratch  *Scratch
	emb      []graph.VertexID
	lists    [][]graph.VertexID // edge list per matched position
	raws     [][]graph.VertexID // stored intersections per level
}

// NewExecutor returns an executor for plan p over the given oracles.
// labelOf may be nil for unlabeled graphs.
func NewExecutor(p *Plan, nbr NeighborFunc, labelOf LabelFunc) *Executor {
	return &Executor{
		plan:    p,
		nbr:     nbr,
		labelOf: labelOf,
		scratch: NewScratch(p),
		emb:     make([]graph.VertexID, p.K),
		lists:   make([][]graph.VertexID, p.K),
		raws:    make([][]graph.VertexID, p.K),
	}
}

// Plan returns the executor's plan.
func (e *Executor) Plan() *Plan { return e.plan }

// SetEdgeLabelOf installs an edge-label oracle for edge-labeled patterns.
func (e *Executor) SetEdgeLabelOf(f EdgeLabelFunc) { e.elabelOf = f }

// CountRoot counts all pattern embeddings whose position-0 vertex is root.
func (e *Executor) CountRoot(root graph.VertexID) uint64 {
	if !e.admitRoot(root) {
		return 0
	}
	return e.count(1)
}

// VisitRoot invokes onMatch with every embedding rooted at root. The slice
// passed to onMatch is reused; callers must copy to retain it.
func (e *Executor) VisitRoot(root graph.VertexID, onMatch func(emb []graph.VertexID)) {
	if !e.admitRoot(root) {
		return
	}
	e.visit(1, onMatch)
}

func (e *Executor) admitRoot(root graph.VertexID) bool {
	if e.labelOf != nil && e.plan.Labeled() && e.labelOf(root) != e.plan.PosLabel(0) {
		return false
	}
	e.emb[0] = root
	e.lists[0] = e.nbr(root)
	return true
}

func (e *Executor) getList(pos int) []graph.VertexID { return e.lists[pos] }

func (e *Executor) levelCandidates(level int) []graph.VertexID {
	p := e.plan
	var parentRaw []graph.VertexID
	if level > 1 {
		parentRaw = e.raws[level-1]
	}
	cands, raw := p.Extend(e.scratch, level, e.emb, e.getList, parentRaw, e.labelOf, e.elabelOf)
	if level < p.K-1 {
		if p.levels[level].storeInter {
			e.raws[level] = append(e.raws[level][:0], raw...)
		} else {
			e.raws[level] = e.raws[level][:0]
		}
	}
	return cands
}

func (e *Executor) count(level int) uint64 {
	p := e.plan
	cands := e.levelCandidates(level)
	if level == p.K-1 {
		return uint64(len(cands))
	}
	var total uint64
	for _, v := range cands {
		e.emb[level] = v
		if p.levels[level].needsList {
			e.lists[level] = e.nbr(v)
		}
		total += e.count(level + 1)
	}
	return total
}

func (e *Executor) visit(level int, onMatch func([]graph.VertexID)) {
	p := e.plan
	cands := e.levelCandidates(level)
	if level == p.K-1 {
		for _, v := range cands {
			e.emb[level] = v
			onMatch(e.emb)
		}
		return
	}
	for _, v := range cands {
		e.emb[level] = v
		if p.levels[level].needsList {
			e.lists[level] = e.nbr(v)
		}
		e.visit(level+1, onMatch)
	}
}

// Count counts all embeddings of the plan's pattern over the given roots.
func Count(p *Plan, nbr NeighborFunc, labelOf LabelFunc, roots []graph.VertexID) uint64 {
	e := NewExecutor(p, nbr, labelOf)
	var total uint64
	for _, r := range roots {
		total += e.CountRoot(r)
	}
	return total
}

// CountGraph counts all embeddings over every vertex of g as root.
func CountGraph(p *Plan, g *graph.Graph) uint64 {
	var labelOf LabelFunc
	if g.Labeled() {
		labelOf = g.Label
	}
	e := NewExecutor(p, g.Neighbors, labelOf)
	if g.EdgeLabeled() {
		e.SetEdgeLabelOf(EdgeLabelOracle(g))
	}
	var total uint64
	for v := 0; v < g.NumVertices(); v++ {
		total += e.CountRoot(graph.VertexID(v))
	}
	return total
}

// EdgeLabelOracle adapts a graph's EdgeLabel lookup to an EdgeLabelFunc
// (only called on existing edges).
func EdgeLabelOracle(g *graph.Graph) EdgeLabelFunc {
	return func(u, v graph.VertexID) graph.Label {
		l, _ := g.EdgeLabel(u, v)
		return l
	}
}

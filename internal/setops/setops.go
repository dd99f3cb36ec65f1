// Package setops provides the sorted-set kernels at the heart of
// pattern-aware enumeration: intersections, subtractions, and bounded
// variants of both. Every adjacency list in this repository is a strictly
// ascending []graph.VertexID, and every engine — the Khuzdul core, the
// single-machine executors, and all baselines — funnels its per-level
// candidate generation through these functions.
//
// All functions append to dst and return the extended slice, so callers can
// reuse buffers across calls. Inputs must be strictly ascending; outputs are
// strictly ascending.
//
//khuzdulvet:hotpath every kernel here sits inside the per-embedding loop
package setops

import (
	"khuzdul/internal/graph"
)

// Kernel names one concrete intersection implementation. The dispatcher
// picks a kernel per call; per-kernel invocation counters flow into metrics
// so the selection policy is observable.
type Kernel uint8

const (
	// KernelMerge is the linear two-cursor merge (balanced list sizes).
	KernelMerge Kernel = iota
	// KernelGallop is exponential + binary search of a short list into a
	// much longer one (lopsided sizes).
	KernelGallop
	// KernelBitmap is a word AND over dense rows: one candidate set of a
	// plan's dense suffix (plan.Plan.Dense). The dispatcher never picks it;
	// the plan enters it in the same ledger.
	KernelBitmap
	// KernelProbe tests each element of a list against a mark set built once
	// over the operand a count-only level's siblings share (see CountProbe):
	// O(|list|) with no term for the marked list's length.
	KernelProbe
	// NumKernels sizes per-kernel counter arrays.
	NumKernels
)

func (k Kernel) String() string {
	switch k {
	case KernelMerge:
		return "merge"
	case KernelGallop:
		return "gallop"
	case KernelBitmap:
		return "bitmap"
	case KernelProbe:
		return "probe"
	default:
		return "kernel(?)"
	}
}

// NoVertex is the exclusive upper bound meaning "unbounded" (see Clip).
const NoVertex = ^graph.VertexID(0)

// gallopRatio is the size ratio at which Intersect escalates from the linear
// merge to galloping search.
const gallopRatio = 32

// Intersect appends a ∩ b to dst.
// It switches to galloping search when the lists' sizes are lopsided, which
// matters on skewed graphs where a hub list meets a short list.
//
// dst may alias a's or b's backing array when appended at position 0
// (dst = Intersect(x[:0], x, y)): both the merge and the gallop path only
// write at an index no greater than the read cursor of either input, so the
// in-place running intersection of IntersectMany is safe.
func Intersect(dst, a, b []graph.VertexID) []graph.VertexID {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	if len(b) >= gallopRatio*len(a) {
		return gallopIntersect(dst, a, b)
	}
	return IntersectMerge(dst, a, b)
}

// IntersectMerge appends a ∩ b to dst with the linear two-cursor merge,
// unconditionally. It is the right kernel when the lists are of comparable
// size; Intersect and the Dispatcher call it after ruling out skew.
func IntersectMerge(dst, a, b []graph.VertexID) []graph.VertexID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// IntersectGallop appends a ∩ b to dst, unconditionally driving the shorter
// list through exponential + binary search in the longer one. Prefer
// Intersect, which escalates to this kernel only past gallopRatio.
func IntersectGallop(dst, a, b []graph.VertexID) []graph.VertexID {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	return gallopIntersect(dst, a, b)
}

// gallopTo returns the first index j ≥ lo with b[j] ≥ x, by exponential
// probe from lo followed by binary search — O(log d) where d is the distance
// advanced, the property every galloping kernel here leans on.
func gallopTo(b []graph.VertexID, lo int, x graph.VertexID) int {
	step := 1
	hi := lo
	for hi < len(b) && b[hi] < x {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	if hi > len(b) {
		hi = len(b)
	}
	l, r := lo, hi
	for l < r {
		m := int(uint(l+r) >> 1)
		if b[m] < x {
			l = m + 1
		} else {
			r = m
		}
	}
	return l
}

// gallopIntersect intersects a short list a with a much longer list b by
// exponential + binary search in b.
func gallopIntersect(dst, a, b []graph.VertexID) []graph.VertexID {
	lo := 0
	for _, x := range a {
		lo = gallopTo(b, lo, x)
		if lo >= len(b) {
			break
		}
		if b[lo] == x {
			dst = append(dst, x)
			lo++
			if lo >= len(b) {
				break
			}
		}
	}
	return dst
}

// Clip returns the sub-slice {x ∈ a : lo ≤ x < hi}. Bounds encode
// symmetry-breaking restrictions: the lower bound is inclusive so that 0
// means "unbounded", the upper bound exclusive so that NoVertex does. Both
// cut points are found by galloping from the front, so a bounded kernel never
// walks the prefix or suffix the restriction discards.
func Clip(a []graph.VertexID, lo, hi graph.VertexID) []graph.VertexID {
	if lo > 0 {
		a = a[gallopTo(a, 0, lo):]
	}
	if hi != NoVertex {
		a = a[:gallopTo(a, 0, hi)]
	}
	return a
}

// markWordCap bounds the ID window Mark accepts, in 64-bit words: 32 KiB of
// words per mark set, a window of 262,144 IDs. A wider list is left to the
// sorted kernels.
const markWordCap = 1 << 12

// Bitmap is a dense bitset over a window of vertex IDs: the words from the one
// holding the built list's first element to the one holding its last. It is
// the mark set a count-only level builds over the operand every child of one
// parent shares (CountProbe), and a standalone kernel with IntersectBitmap.
// Build keeps its own copy of the built list, so clearing stale bits costs
// O(|list|) and never depends on the caller's buffer.
type Bitmap struct {
	base  int // word index of words[0]: the built list's first element >> 6
	words []uint64
	built []graph.VertexID
}

// Build loads list into the bitmap, clearing whatever was built before.
// Amortized cost is O(|list|): old bits are cleared word-by-word from the
// retained copy, and word storage only ever grows, to the widest window built.
func (b *Bitmap) Build(list []graph.VertexID) {
	for _, v := range b.built {
		b.words[int(v>>6)-b.base] = 0
	}
	b.built = b.built[:0]
	if len(list) == 0 {
		return
	}
	b.base = int(list[0] >> 6)
	if need := int(list[len(list)-1]>>6) - b.base + 1; need > len(b.words) {
		//khuzdulvet:ignore hotalloc word storage grows monotonically, to at most markWordCap words under Mark
		b.words = make([]uint64, need)
	}
	for _, v := range list {
		b.words[int(v>>6)-b.base] |= 1 << (v & 63)
	}
	b.built = append(b.built, list...)
}

// Mark builds list into the bitmap when its ID window fits markWordCap words
// and reports whether it did. A list too wide leaves the bitmap as it was, and
// the caller counts with the sorted kernels instead. A bitmap only ever Marked
// holds at most markWordCap words.
func (b *Bitmap) Mark(list []graph.VertexID) bool {
	if len(list) > 0 && int(list[len(list)-1]>>6)-int(list[0]>>6) >= markWordCap {
		return false
	}
	b.Build(list)
	return true
}

// Words returns the number of 64-bit words the bitmap holds: its widest
// window so far.
func (b *Bitmap) Words() int { return len(b.words) }

// Contains reports whether the built list contains v.
func (b *Bitmap) Contains(v graph.VertexID) bool {
	w := int(v>>6) - b.base
	return uint(w) < uint(len(b.words)) && b.words[w]&(1<<(v&63)) != 0
}

// IntersectBitmap appends a ∩ built(bm) to dst by probing the bitmap once
// per element of a — O(|a|) regardless of the built list's length.
func IntersectBitmap(dst, a []graph.VertexID, bm *Bitmap) []graph.VertexID {
	for _, x := range a {
		if bm.Contains(x) {
			dst = append(dst, x)
		}
	}
	return dst
}

// maxPivotLists bounds the stack-allocated cursor array of IntersectPivot.
// Compiled plans intersect at most K-1 lists and patterns are tiny, so the
// bound is never hit in practice.
const maxPivotLists = 16

// IntersectPivot appends the k-way intersection of lists to dst: the
// shortest list drives, every other list is galloping-probed with a
// persistent cursor, and exhausting any list exits early. Unlike the
// pairwise reduction of IntersectMany it never materializes intermediates,
// so clique-like steps touch each candidate exactly once.
func IntersectPivot(dst []graph.VertexID, lists [][]graph.VertexID) []graph.VertexID {
	switch len(lists) {
	case 0:
		return dst
	case 1:
		return append(dst, lists[0]...)
	case 2:
		return Intersect(dst, lists[0], lists[1])
	}
	if len(lists) > maxPivotLists {
		// Compiled plans cannot reach this arity; correctness fallback only.
		//khuzdulvet:ignore hotalloc unreachable from compiled plans (K-1 ≤ maxPivotLists)
		return IntersectMany(dst, lists, nil)
	}
	p := 0
	for i, l := range lists {
		if len(l) == 0 {
			return dst
		}
		if len(l) < len(lists[p]) {
			p = i
		}
	}
	var cursors [maxPivotLists]int
outer:
	for _, x := range lists[p] {
		for i, l := range lists {
			if i == p {
				continue
			}
			c := gallopTo(l, cursors[i], x)
			if c >= len(l) {
				break outer
			}
			cursors[i] = c
			if l[c] != x {
				continue outer
			}
		}
		dst = append(dst, x)
	}
	return dst
}

// Dispatcher is the skew-adaptive two-way kernel selector, one per worker:
// it clips both inputs to the bounds, then escalates merge → gallop on
// measured skew, exactly like Intersect, and enters the choice in Counts.
type Dispatcher struct {
	// Counts, when non-nil, receives one increment per call at the chosen
	// kernel's index.
	Counts *[NumKernels]uint64
}

// IntersectBounded appends {x ∈ a ∩ b : lo ≤ x < hi} to dst: both inputs are
// clipped to the bounds first (see Clip), then the selected kernel runs on
// what is left.
func (d *Dispatcher) IntersectBounded(dst, a, b []graph.VertexID, lo, hi graph.VertexID) []graph.VertexID {
	a, b, k := d.choose(a, b, lo, hi)
	switch k {
	case KernelGallop:
		return gallopIntersect(dst, a, b)
	case KernelMerge:
		return IntersectMerge(dst, a, b)
	}
	return dst
}

// CountBounded returns |{x ∈ a ∩ b : lo ≤ x < hi}| without materializing it:
// the same clip, kernel choice and ledger entry as IntersectBounded, with the
// kernel counting where the other appends.
func (d *Dispatcher) CountBounded(a, b []graph.VertexID, lo, hi graph.VertexID) int {
	a, b, k := d.choose(a, b, lo, hi)
	switch k {
	case KernelGallop:
		return countGallop(a, b)
	case KernelMerge:
		return countMerge(a, b)
	}
	return 0
}

// CountProbe returns |{x ∈ m ∩ l : lo ≤ x < hi}|, m standing for the list it
// was last built from: it clips l to [lo, hi) and tests each element's bit, no
// term for m's length. When the clipped l is at least gallopRatio times the
// clipped marked list it gallops that list into l instead. It enters a kernel
// in Counts exactly when CountBounded would — both clipped sides non-empty —
// KernelProbe or KernelGallop, so a count-only level that probes keeps the
// materializing path's ledger total.
func (d *Dispatcher) CountProbe(m *Bitmap, l []graph.VertexID, lo, hi graph.VertexID) int {
	x := Clip(m.built, lo, hi)
	if len(x) == 0 {
		return 0
	}
	l = Clip(l, lo, hi)
	if len(l) == 0 {
		return 0
	}
	if len(l) >= gallopRatio*len(x) {
		d.count(KernelGallop)
		return countGallop(x, l)
	}
	d.count(KernelProbe)
	n := 0
	for _, v := range l {
		n += b2i(m.Contains(v))
	}
	return n
}

// IntersectRow sets bit base+i of row for every a[i] in b: a ∩ b as a bitmap
// over a's indices, a dense row. b is clipped to a's range first; the kernel
// choice and the ledger entry are IntersectBounded's, the kernel marking where
// the other appends.
func (d *Dispatcher) IntersectRow(row []uint64, a []graph.VertexID, base int, b []graph.VertexID) {
	if len(a) == 0 {
		return
	}
	b = Clip(b, a[0], a[len(a)-1]+1)
	switch {
	case len(b) == 0:
	case len(a) >= gallopRatio*len(b):
		d.count(KernelGallop)
		lo := 0
		for _, x := range b {
			if lo = gallopTo(a, lo, x); lo >= len(a) {
				break
			}
			if a[lo] == x {
				setBit(row, base+lo)
				lo++
			}
		}
	case len(b) >= gallopRatio*len(a):
		d.count(KernelGallop)
		lo := 0
		for i, x := range a {
			if lo = gallopTo(b, lo, x); lo >= len(b) {
				break
			}
			if b[lo] == x {
				setBit(row, base+i)
				lo++
			}
		}
	default:
		// Branch-free, like countMerge: the cursors advance by comparison
		// results and the bits of the current word gather in a register.
		d.count(KernelMerge)
		i, j := 0, 0
		wi := base >> 6
		var cur uint64
		for i < len(a) && j < len(b) {
			x, y := a[i], b[j]
			k := base + i
			if k>>6 != wi {
				row[wi] |= cur
				wi, cur = k>>6, 0
			}
			cur |= uint64(b2i(x == y)) << (k & 63)
			i += b2i(x <= y)
			j += b2i(y <= x)
		}
		row[wi] |= cur
	}
}

func setBit(row []uint64, i int) { row[i>>6] |= 1 << (i & 63) }

// CountSubtract returns |{x ∈ a \ b : lo ≤ x < hi}| as |A| − |A ∩ B| over the
// clipped lists.
func (d *Dispatcher) CountSubtract(a, b []graph.VertexID, lo, hi graph.VertexID) int {
	return len(Clip(a, lo, hi)) - d.CountBounded(a, b, lo, hi)
}

// choose is the selection policy shared by the materializing and the counting
// forms: it returns the clipped inputs, shorter first, and the kernel to run
// on them, already entered in Counts — NumKernels when an input is empty and
// no kernel runs.
func (d *Dispatcher) choose(a, b []graph.VertexID, lo, hi graph.VertexID) ([]graph.VertexID, []graph.VertexID, Kernel) {
	if len(a) > len(b) {
		a, b = b, a
	}
	a = Clip(a, lo, hi)
	if len(a) == 0 {
		return nil, nil, NumKernels
	}
	b = Clip(b, lo, hi)
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return nil, nil, NumKernels
	}
	if len(b) >= gallopRatio*len(a) {
		d.count(KernelGallop)
		return a, b, KernelGallop
	}
	d.count(KernelMerge)
	return a, b, KernelMerge
}

func (d *Dispatcher) count(k Kernel) {
	if d.Counts != nil {
		d.Counts[k]++
	}
}

// Subtract appends a \ b to dst.
func Subtract(dst, a, b []graph.VertexID) []graph.VertexID {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		dst = append(dst, x)
	}
	return dst
}

// Contains reports whether sorted list a contains x, via binary search.
func Contains(a []graph.VertexID, x graph.VertexID) bool {
	l, r := 0, len(a)
	for l < r {
		m := int(uint(l+r) >> 1)
		if a[m] < x {
			l = m + 1
		} else {
			r = m
		}
	}
	return l < len(a) && a[l] == x
}

// IntersectMany appends the intersection of all lists to dst. lists must be
// non-empty; for a single list it appends a copy. The running intersection
// uses scratch storage provided by the caller (may be nil).
func IntersectMany(dst []graph.VertexID, lists [][]graph.VertexID, scratch []graph.VertexID) []graph.VertexID {
	switch len(lists) {
	case 0:
		return dst
	case 1:
		return append(dst, lists[0]...)
	case 2:
		return Intersect(dst, lists[0], lists[1])
	}
	// The running intersection shrinks monotonically, so it is narrowed in
	// place: Intersect never writes past its read cursors (see its doc), and
	// reusing scratch's backing array keeps the whole reduction allocation-free
	// once scratch has warmed up.
	cur := Intersect(scratch[:0], lists[0], lists[1])
	for i := 2; i < len(lists)-1; i++ {
		cur = Intersect(cur[:0], cur, lists[i])
	}
	return Intersect(dst, cur, lists[len(lists)-1])
}

// CountIntersect returns |a ∩ b| without materializing the result: CountBounded
// with no bounds, so merge or gallop by measured skew.
func CountIntersect(a, b []graph.VertexID) int {
	var d Dispatcher
	return d.CountBounded(a, b, 0, NoVertex)
}

// countMerge is IntersectMerge with a counter for the append; a is the
// shorter, non-empty list. Past 8× skew the three-way branch almost always
// advances the long list, and predicting it is the fastest loop there is.
// Nearer balance it is a coin toss, so the cursors advance by comparison
// results instead — and because that loop is bound by the load-compare-add
// chain from one iteration to the next, not by throughput, the lists are
// split at a's median and the halves merged in one loop with two chains in
// flight. On balanced lists that runs 1.7× faster than the branch; the two
// cross at 8×.
func countMerge(a, b []graph.VertexID) int {
	n, i, j := 0, 0, 0
	if len(b) >= 8*len(a) {
		for i < len(a) && j < len(b) {
			switch {
			case a[i] < b[j]:
				i++
			case a[i] > b[j]:
				j++
			default:
				n++
				i++
				j++
			}
		}
		return n
	}
	m := len(a) / 2
	p := gallopTo(b, 0, a[m])
	a2, b2 := a[m:], b[p:]
	a, b = a[:m], b[:p]
	k, l := 0, 0
	for i < len(a) && j < len(b) && k < len(a2) && l < len(b2) {
		x, y, x2, y2 := a[i], b[j], a2[k], b2[l]
		n += b2i(x == y) + b2i(x2 == y2)
		i += b2i(x <= y)
		j += b2i(y <= x)
		k += b2i(x2 <= y2)
		l += b2i(y2 <= x2)
	}
	return n + countChain(a[i:], b[j:]) + countChain(a2[k:], b2[l:])
}

// countChain is countMerge's branch-free loop with a single cursor pair, for
// the half the two-chain loop leaves unfinished.
func countChain(a, b []graph.VertexID) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		n += b2i(x == y)
		i += b2i(x <= y)
		j += b2i(y <= x)
	}
	return n
}

// b2i is the bool-to-int conversion the compiler lowers to a flag set.
func b2i(c bool) int {
	if c {
		return 1
	}
	return 0
}

// countGallop is gallopIntersect with a counter for the append.
func countGallop(a, b []graph.VertexID) int {
	n, lo := 0, 0
	for _, x := range a {
		lo = gallopTo(b, lo, x)
		if lo >= len(b) {
			break
		}
		if b[lo] == x {
			n++
			lo++
		}
	}
	return n
}

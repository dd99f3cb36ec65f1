package plan

import (
	"math/bits"
	"slices"

	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
	"khuzdul/internal/setops"
)

// denseable reports whether p may finish its levels ≥ 2 on the root's
// neighborhood (see Plan.dense). Every level ≥ 1 must intersect position 0,
// and every level ≥ 2 must stay inside level 1's bounds — carry them, or be
// bounded by a position already inside them, the storeClippable reasoning —
// so that each candidate lies in S, level 1's stored raw, clipped to those
// bounds before the store. Only non-induced, unlabeled, non-folding plans with
// K ≥ 4 and vertical computation sharing on qualify, and derive marks one
// only where a level ≥ 3 intersects a position ≥ 2 — where the sorted path
// fetches a level-2 list.
func (p *Plan) denseable() bool {
	if p.K < 4 || !p.vcs || p.induced || p.Labeled() || p.edgeLabeled || p.fold != 0 {
		return false
	}
	first := &p.levels[1]
	if !first.storeInter || !first.clipStore && len(first.bounds) > 0 {
		return false
	}
	inside := []int{1}
	deep := false
	for m := 1; m < p.K; m++ {
		lv := &p.levels[m]
		if !slices.Contains(lv.intersect, 0) {
			return false
		}
		if m == 1 {
			continue
		}
		if !boundedWithin(first.bounds, lv.bounds, inside) {
			return false
		}
		inside = append(inside, m)
		for _, j := range lv.intersect {
			deep = deep || m >= 3 && j >= 2
		}
	}
	return deep
}

// denseRowSide returns which side of its own index a dense row must cover:
// +1 when every level that reads a row is held above the row's vertex (an
// ascending plan whose restrictions chain down to it), −1 below (the
// descending mirror), and 0 when rows must cover all of S.
func (p *Plan) denseRowSide() int8 {
	for l := 2; l < p.K; l++ {
		for _, q := range p.levels[l].intersect {
			if q > 0 && !p.heldBeyond(l, q) {
				return 0
			}
		}
	}
	if p.descending {
		return -1
	}
	return 1
}

// heldBeyond reports whether the vertex matched at level l lies beyond the
// one at position q < l in the plan's direction: l is restricted against q,
// or against a position past q that is itself held beyond q.
func (p *Plan) heldBeyond(l, q int) bool {
	for _, a := range p.levels[l].bounds {
		if a == q || a > q && p.heldBeyond(a, q) {
			return true
		}
	}
	return false
}

// denseTables derives, per level ≥ 2 of a dense plan, the positions whose
// rows the level ANDs (its intersect positions past 0) and the bound
// positions that can cut its candidates: a bound is implied, and dropped,
// when another bound of the level is held beyond it, and a bound against v0
// when level 1 carries it, S lying beyond v0 already.
func (p *Plan) denseTables() (rows, bounds [][]int) {
	rows = make([][]int, p.K)
	bounds = make([][]int, p.K)
	first := &p.levels[1]
	for l := 2; l < p.K; l++ {
		lv := &p.levels[l]
		for _, q := range lv.intersect {
			if q > 0 {
				rows[l] = append(rows[l], q)
			}
		}
		for _, a := range lv.bounds {
			implied := a == 0 && slices.Contains(first.bounds, 0)
			for _, b := range lv.bounds {
				implied = implied || b > a && p.heldBeyond(b, a)
			}
			if !implied {
				bounds[l] = append(bounds[l], a)
			}
		}
	}
	return rows, bounds
}

// DenseRowWords returns the number of 64-bit words of one dense row over a
// set of n vertices.
func DenseRowWords(n int) int { return (n + 63) >> 6 }

// DenseRow writes row(set[j]) into dst, DenseRowWords(len(set)) words: bit i
// is set when set[i] is in nbr, the edge list of set[j]. set is S, the
// level-1 stored raw of the row vertex's parent. Where every level that reads
// rows is held beyond the row's own vertex, only that side of index j is
// built — the same merge, over the same part of S, as the sorted path's R2 —
// and the other side stays zero. The merge is entered in the kernel ledger
// like any other.
func (p *Plan) DenseRow(s *Scratch, dst []uint64, set []graph.VertexID, j int, nbr []graph.VertexID) {
	clear(dst)
	switch s.denseSide {
	case 1:
		s.disp.IntersectRow(dst, set[j+1:], j+1, nbr)
	case -1:
		s.disp.IntersectRow(dst, set[:j], 0, nbr)
	default:
		s.disp.IntersectRow(dst, set, 0, nbr)
	}
}

// DenseFinish runs levels 2..K−1 of a dense plan below one level-1 parent and
// returns the number of matches. emb[0] is the root v0 and emb has room for K
// vertices; DenseFinish writes positions 1..K−2. set is S, the parent's
// stored raw — in order, the vertices of its level-1 children — and rows
// holds row(set[j]) at rows[j·w : (j+1)·w] for w = DenseRowWords(len(set)).
// Candidates at a level are the AND of the rows of its intersect positions
// past 0 (all of S when there are none); the level's bounds become an index
// mask, S being ID-sorted; its exclude positions clear their own bit. With
// emit nil the last level is popcounted; otherwise emit receives each
// extension's matches as a core.Sink's OnMatches does — the prefix emb[:K−1]
// and the last level's vertices. Each candidate set computed is entered in
// the kernel ledger as one KernelBitmap.
func (p *Plan) DenseFinish(s *Scratch, emb, set []graph.VertexID, rows []uint64, emit func(prefix, last []graph.VertexID)) uint64 {
	n := len(set)
	w := DenseRowWords(n)
	s.denseBits = slices.Grow(s.denseBits[:0], p.K*w)[:p.K*w]
	// The index of the first vertex above v0: the bound against the root.
	s.denseRoot = n - len(setops.Clip(set, emb[0]+1, noUpper))
	var total uint64
	for j := 0; j < n; j++ {
		s.denseIdx[1] = j
		emb[1] = set[j]
		total += p.denseLevel(s, 2, emb, set, rows, w, emit)
	}
	return total
}

// andWord returns word i of the AND of rows, all ones when there are none.
func andWord(rows [][]uint64, i int) uint64 {
	x := ^uint64(0)
	for _, r := range rows {
		x &= r[i]
	}
	return x
}

// denseLevel computes level l's candidate words below the matched prefix
// and recurses into each candidate, or counts or emits them at the last
// level.
func (p *Plan) denseLevel(s *Scratch, l int, emb, set []graph.VertexID, rows []uint64, w int, emit func(prefix, last []graph.VertexID)) uint64 {
	lo, hi := 0, len(set)
	for _, a := range s.denseBounds[l] {
		// S holds no v0 but does hold each later bound's vertex, at its index.
		b := s.denseRoot
		if a > 0 {
			b = s.denseIdx[a]
			if !p.descending {
				b++
			}
		}
		if p.descending {
			hi = min(hi, b)
		} else {
			lo = max(lo, b)
		}
	}
	if lo >= hi {
		return 0
	}
	s.kernels[setops.KernelBitmap]++
	var rbuf [pattern.MaxVertices][]uint64
	rr := rbuf[:0]
	for _, q := range s.denseRows[l] {
		o := s.denseIdx[q] * w
		rr = append(rr, rows[o:o+w])
	}
	wlo, whi := lo>>6, (hi+63)>>6
	loMask, hiMask := ^uint64(0)<<(lo&63), ^uint64(0)>>((64-hi&63)&63)
	excl := p.levels[l].exclude
	if l == p.K-1 && emit == nil {
		c := 0
		for i := wlo; i < whi; i++ {
			x := andWord(rr, i)
			if i == wlo {
				x &= loMask
			}
			if i == whi-1 {
				x &= hiMask
			}
			c += bits.OnesCount64(x)
		}
		for _, q := range excl {
			if i := s.denseIdx[q]; q > 0 && i >= lo && i < hi && andWord(rr, i>>6)&(1<<(i&63)) != 0 {
				c--
			}
		}
		return uint64(c)
	}
	out := s.denseBits[l*w : l*w+whi]
	for i := wlo; i < whi; i++ {
		out[i] = andWord(rr, i)
	}
	out[wlo] &= loMask
	out[whi-1] &= hiMask
	for _, q := range excl {
		if i := s.denseIdx[q]; q > 0 && i >= lo && i < hi {
			out[i>>6] &^= 1 << (i & 63)
		}
	}
	if l == p.K-1 {
		last := s.denseOut[:0]
		for i := wlo; i < whi; i++ {
			for x := out[i]; x != 0; x &= x - 1 {
				last = append(last, set[i<<6+bits.TrailingZeros64(x)])
			}
		}
		s.denseOut = last
		if len(last) > 0 {
			emit(emb[:l], last)
		}
		return uint64(len(last))
	}
	var total uint64
	for i := wlo; i < whi; i++ {
		for x := out[i]; x != 0; x &= x - 1 {
			j := i<<6 + bits.TrailingZeros64(x)
			s.denseIdx[l] = j
			emb[l] = set[j]
			total += p.denseLevel(s, l+1, emb, set, rows, w, emit)
		}
	}
	return total
}

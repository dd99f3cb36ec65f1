package pattern

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
)

// MinMotifSize and MaxMotifSize bound the k of k-motif counting: the pattern
// set is enumerated by brute force over all graphs on k vertices, which is
// 2^15 graphs × 720 permutations at k = 6 and out of reach beyond.
const (
	MinMotifSize = 2
	MaxMotifSize = 6
)

// ErrMotifSize classifies a motif size outside [MinMotifSize, MaxMotifSize].
var ErrMotifSize = errors.New("pattern: motif size out of range")

// ErrMotifConversion classifies a non-induced count vector that no graph can
// produce: converting it to induced counts would overflow or go negative.
var ErrMotifConversion = errors.New("pattern: motif conversion out of range")

// CheckMotifSize returns an ErrMotifSize error unless k is a motif size
// ConnectedPatterns supports. Entry points that take k from outside the
// program call it; ConnectedPatterns itself panics on a bad k.
func CheckMotifSize(k int) error {
	if k < MinMotifSize || k > MaxMotifSize {
		return fmt.Errorf("%w: k must be in [%d,%d], got %d", ErrMotifSize, MinMotifSize, MaxMotifSize, k)
	}
	return nil
}

// motifSet memoizes what depends only on k: the pattern set (3.4 s to
// enumerate at k = 6) and its conversion matrix. Patterns are read-only once
// published.
type motifSet struct {
	patsOnce sync.Once
	pats     []*Pattern
	convOnce sync.Once
	conv     [][]uint64
}

var motifSets [MaxMotifSize + 1]motifSet

// ConnectedPatterns returns all non-isomorphic connected unlabeled patterns
// with exactly k vertices, ordered by edge count (ties in enumeration order):
// the pattern set of k-motif counting — 2 patterns for k=3, 6 for k=4, 21 for
// k=5. The set is computed once per k; callers get a slice of their own over
// shared patterns, which they must not modify (Clone first).
func ConnectedPatterns(k int) []*Pattern {
	if err := CheckMotifSize(k); err != nil {
		panic(err)
	}
	ms := &motifSets[k]
	ms.patsOnce.Do(func() { ms.pats = enumerateConnected(k) })
	return append([]*Pattern(nil), ms.pats...)
}

func enumerateConnected(k int) []*Pattern {
	numPairs := k * (k - 1) / 2
	seen := map[string]bool{}
	var out []*Pattern
	for mask := 0; mask < 1<<uint(numPairs); mask++ {
		p := New(k)
		idx := 0
		for u := 0; u < k; u++ {
			for v := u + 1; v < k; v++ {
				if mask&(1<<uint(idx)) != 0 {
					p.AddEdge(u, v)
				}
				idx++
			}
		}
		if !p.Connected() {
			continue
		}
		code := CanonicalCode(p)
		if seen[code] {
			continue
		}
		seen[code] = true
		out = append(out, p)
	}
	// Edge-count order makes the conversion matrix upper triangular.
	sort.SliceStable(out, func(i, j int) bool { return out[i].NumEdges() < out[j].NumEdges() })
	return out
}

// MotifConversion returns the spanning-supergraph matrix of the size-k motif
// set: A[i][j] is the number of copies of ConnectedPatterns(k)[i] inside
// pattern j on the same k vertices. Every induced copy of j in a graph
// therefore contributes A[i][j] non-induced copies of i, so
//
//	nonInduced[i] = Σ_j A[i][j] · induced[j].
//
// An entry is the number of vertex bijections that map every edge of i onto
// an edge of j, divided by |Aut(i)| — computed from the patterns, integral
// because Aut(i) acts freely on those bijections. A bijection needs
// |E(j)| ≥ |E(i)| and is an isomorphism at equality, so in edge-count order A
// is upper triangular with a unit diagonal. The matrix is shared: read-only.
func MotifConversion(k int) [][]uint64 {
	pats := ConnectedPatterns(k)
	ms := &motifSets[k]
	ms.convOnce.Do(func() {
		ms.conv = make([][]uint64, len(pats))
		for i, a := range pats {
			ms.conv[i] = make([]uint64, len(pats))
			aut := uint64(len(Automorphisms(a)))
			for j, b := range pats {
				if b.NumEdges() >= a.NumEdges() {
					ms.conv[i][j] = spanningMaps(a, b) / aut
				}
			}
		}
	})
	return ms.conv
}

// spanningMaps counts the vertex bijections under which every edge of a lands
// on an edge of b.
func spanningMaps(a, b *Pattern) uint64 {
	var n uint64
	permutations(a.n, func(perm []int) bool {
		for u := 0; u < a.n; u++ {
			for v := u + 1; v < a.n; v++ {
				if a.HasEdge(u, v) && !b.HasEdge(perm[u], perm[v]) {
					return true
				}
			}
		}
		n++
		return true
	})
	return n
}

// InducedCounts converts the non-induced counts of the size-k motif set (one
// per ConnectedPatterns(k) entry, each subgraph counted once) into induced
// counts, and their total, by back-substitution through MotifConversion(k),
// densest pattern first. Arithmetic is checked: a product that overflows or a
// difference that would go negative — counts no graph produces — is an
// ErrMotifConversion error, never a wrapped number, and so is a total past
// uint64.
func InducedCounts(k int, nonInduced []uint64) (induced []uint64, total uint64, err error) {
	if err := CheckMotifSize(k); err != nil {
		return nil, 0, err
	}
	conv := MotifConversion(k)
	if len(nonInduced) != len(conv) {
		return nil, 0, fmt.Errorf("%w: %d counts for the %d patterns of size %d", ErrMotifConversion, len(nonInduced), len(conv), k)
	}
	induced = make([]uint64, len(conv))
	for i := len(conv) - 1; i >= 0; i-- {
		rest := nonInduced[i]
		for j := i + 1; j < len(conv); j++ {
			hi, term := bits.Mul64(conv[i][j], induced[j])
			if hi != 0 || term > rest {
				return nil, 0, fmt.Errorf("%w: pattern %d of size %d has %d non-induced copies, fewer than its denser supergraphs account for",
					ErrMotifConversion, i, k, nonInduced[i])
			}
			rest -= term
		}
		induced[i] = rest
		var carry uint64
		if total, carry = bits.Add64(total, rest, 0); carry != 0 {
			return nil, 0, fmt.Errorf("%w: the induced counts of size %d sum past uint64", ErrMotifConversion, k)
		}
	}
	return induced, total, nil
}

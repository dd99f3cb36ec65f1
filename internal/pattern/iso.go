package pattern

import (
	"fmt"
)

// permutations calls f with each permutation of [0,n). The slice passed to f
// is reused; f must not retain it. Iteration stops early if f returns false.
func permutations(n int, f func(perm []int) bool) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == n {
			return f(perm)
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			if !rec(k + 1) {
				return false
			}
			perm[k], perm[i] = perm[i], perm[k]
		}
		return true
	}
	rec(0)
}

// isMapping reports whether perm is an isomorphism from a to b:
// {u,v} ∈ a ⇔ {perm[u],perm[v]} ∈ b, and labels match when present.
func isMapping(a, b *Pattern, perm []int) bool {
	for u := 0; u < a.n; u++ {
		if a.Label(u) != b.Label(perm[u]) {
			return false
		}
		for v := u + 1; v < a.n; v++ {
			if a.HasEdge(u, v) != b.HasEdge(perm[u], perm[v]) {
				return false
			}
			if a.HasEdge(u, v) && a.EdgeLabel(u, v) != b.EdgeLabel(perm[u], perm[v]) {
				return false
			}
		}
	}
	return true
}

// Isomorphic reports whether patterns a and b are isomorphic (respecting
// vertex labels when both are labeled).
func Isomorphic(a, b *Pattern) bool {
	if a.n != b.n || a.NumEdges() != b.NumEdges() {
		return false
	}
	da, db := a.DegreeSequence(), b.DegreeSequence()
	for i := range da {
		if da[i] != db[i] {
			return false
		}
	}
	found := false
	permutations(a.n, func(perm []int) bool {
		if isMapping(a, b, perm) {
			found = true
			return false
		}
		return true
	})
	return found
}

// Automorphisms returns the automorphism group of p as a list of
// permutations. The identity is always included.
func Automorphisms(p *Pattern) [][]int {
	var out [][]int
	permutations(p.n, func(perm []int) bool {
		if isMapping(p, p, perm) {
			out = append(out, append([]int(nil), perm...))
		}
		return true
	})
	return out
}

// CanonicalCode returns a string that is identical for isomorphic patterns
// and distinct for non-isomorphic ones: the lexicographically smallest
// (label sequence, upper-triangle adjacency bits) over all permutations.
func CanonicalCode(p *Pattern) string {
	best := ""
	permutations(p.n, func(perm []int) bool {
		code := encodeUnder(p, perm)
		if best == "" || code < best {
			best = code
		}
		return true
	})
	return best
}

// encodeUnder serializes p relabeled by perm.
func encodeUnder(p *Pattern, perm []int) string {
	buf := make([]byte, 0, p.n*(p.n+3)/2)
	for u := 0; u < p.n; u++ {
		buf = append(buf, byte('A'+int(p.Label(perm[u]))%26))
	}
	buf = append(buf, '|')
	for u := 0; u < p.n; u++ {
		for v := u + 1; v < p.n; v++ {
			if p.HasEdge(perm[u], perm[v]) {
				buf = append(buf, '1')
			} else {
				buf = append(buf, '0')
			}
		}
	}
	if p.Labeled() {
		// Disambiguate label values beyond the 26-letter fold.
		buf = append(buf, '|')
		for u := 0; u < p.n; u++ {
			buf = append(buf, []byte(fmt.Sprintf("%d,", p.Label(perm[u])))...)
		}
	}
	if p.EdgeLabeled() {
		buf = append(buf, '|')
		for u := 0; u < p.n; u++ {
			for v := u + 1; v < p.n; v++ {
				if p.HasEdge(perm[u], perm[v]) {
					buf = append(buf, []byte(fmt.Sprintf("%d,", p.EdgeLabel(perm[u], perm[v])))...)
				}
			}
		}
	}
	return string(buf)
}

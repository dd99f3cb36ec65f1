package pattern

import "testing"

// FuzzParsePattern feeds Parse the bytes a QUERY_SUBMIT carries as its spec,
// straight off a socket. Parse must reject what it cannot read with an
// error, never a panic, and every pattern it accepts must be one the
// compiler can take: 1..MaxVertices vertices and no self-loop. The seeds
// live in testdata/fuzz/FuzzParsePattern.
func FuzzParsePattern(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		if n := p.NumVertices(); n < 1 || n > MaxVertices {
			t.Fatalf("Parse(%q) accepted %d vertices", spec, n)
		}
		for v := 0; v < p.NumVertices(); v++ {
			if p.HasEdge(v, v) {
				t.Fatalf("Parse(%q) accepted a self-loop on %d", spec, v)
			}
		}
	})
}

package plan_test

import (
	"testing"

	"khuzdul/internal/core"
	"khuzdul/internal/graph"
	"khuzdul/internal/metrics"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// The bits of FuzzPlanMutation's flags argument.
const (
	fuzzDescending = 1 << iota
	fuzzInduced
	fuzzNoVCS
	fuzzNoSymmetry
	fuzzRawOrder
)

// FuzzPlanMutation builds plans from every part of what a plan matches and
// holds each to brute force. An input decodes to a connected pattern of k =
// 2 + k%4 vertices — bit e of edges adds the e-th vertex pair (u, v), u < v,
// in lexicographic order, and a vertex with no earlier neighbor is joined to
// its predecessor — labeled by bit v of labels when its top bit is set; a
// matching order; the bound direction, induced matching, vertical
// computation sharing and symmetry breaking, each a bit of flags; and a
// 16-vertex R-MAT seed. The order is the permutation whose Lehmer code is
// order, or with fuzzRawOrder set, position i takes the three bits of order
// at 3i as a vertex, which need not form a permutation. The constructor must
// reject exactly the orders that are not a permutation or have a
// disconnected prefix, and every plan it builds must count what brute force
// counts — AutSize times as much without symmetry breaking — on the core
// engine under a count sink with one and two threads and on CountGraph. The
// seeds in testdata/fuzz/FuzzPlanMutation include the matchings whose reuse
// flags, hand-set, once counted wrong: Automine's P4 and diamond, induced
// and not; and the matchings that end a count-only run early: the diamond
// and the 3-book, whose tails fold over a set of two lists, and the tailed
// triangle and K4 with a pendant, whose last level multiplies (the latter
// without vertical computation sharing; with it the plan runs dense); and
// two that must not: the diamond without symmetry breaking, whose tail
// carries no chain of bounds, and a plan whose last level is bounded
// against v2.
func FuzzPlanMutation(f *testing.F) {
	f.Fuzz(func(t *testing.T, k uint8, edges uint16, labels uint8, order uint32, flags uint8, seed uint8) {
		n := 2 + int(k%4)
		pat := pattern.New(n)
		e := 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if edges>>e&1 != 0 {
					pat.AddEdge(u, v)
				}
				e++
			}
		}
		for v := 1; v < n; v++ {
			joined := false
			for u := 0; u < v; u++ {
				joined = joined || pat.HasEdge(u, v)
			}
			if !joined {
				pat.AddEdge(v-1, v)
			}
		}
		if labels&0x80 != 0 {
			lbl := make([]graph.Label, n)
			for v := range lbl {
				lbl[v] = graph.Label(labels >> v & 1)
			}
			pat = pat.WithLabels(lbl)
		}
		ord := make([]int, n)
		if flags&fuzzRawOrder != 0 {
			for i := range ord {
				ord[i] = int(order >> (3 * i) & 7)
			}
		} else {
			left := make([]int, n)
			for v := range left {
				left[v] = v
			}
			for i := range ord {
				j := int(order % uint32(len(left)))
				order /= uint32(len(left))
				ord[i] = left[j]
				left = append(left[:j], left[j+1:]...)
			}
		}
		induced, symmetry := flags&fuzzInduced != 0, flags&fuzzNoSymmetry == 0
		opts := plan.Options{Induced: induced, DisableVCS: flags&fuzzNoVCS != 0, DisableSymmetryBreak: !symmetry}
		pl, err := plan.BuildForOrder(pat, ord, opts, flags&fuzzDescending != 0)
		if valid := matchingOrder(pat, ord); (err == nil) != valid {
			t.Fatalf("%v order %v: matching order %v, constructor error %v", pat, ord, valid, err)
		}
		if err != nil {
			return
		}

		g := graph.RMATDefault(16, 48, int64(seed))
		if pat.Labeled() {
			if g, err = g.WithLabels(graph.RandomLabels(g.NumVertices(), 2, int64(seed))); err != nil {
				t.Fatal(err)
			}
		}
		want := plan.BruteForceCount(g, pat, induced)
		if !symmetry {
			want *= uint64(len(pattern.Automorphisms(pat)))
		}
		if got := plan.CountGraph(pl, g); got != want {
			t.Fatalf("%v: CountGraph %d, brute force %d", pl, got, want)
		}
		var labelOf plan.LabelFunc
		if g.Labeled() {
			labelOf = g.Label
		}
		for _, threads := range []int{1, 2} {
			sink := &core.CountSink{}
			eng := core.NewEngine(core.NewPlanExtender(pl, labelOf), wholeGraph{g}, sink,
				core.Config{Threads: threads, ChunkSize: 8, Metrics: &metrics.Node{}})
			if err := eng.Run(); err != nil {
				t.Fatalf("%v threads=%d: %v", pl, threads, err)
			}
			if sink.Count() != want {
				t.Fatalf("%v threads=%d: engine %d, brute force %d", pl, threads, sink.Count(), want)
			}
		}
	})
}

// matchingOrder reports whether ord is a permutation of pat's vertices whose
// every prefix induces a connected subpattern.
func matchingOrder(pat *pattern.Pattern, ord []int) bool {
	seen := make([]bool, pat.NumVertices())
	for i, v := range ord {
		if v >= len(seen) || seen[v] {
			return false
		}
		joined := i == 0
		for _, u := range ord[:i] {
			joined = joined || pat.HasEdge(u, v)
		}
		if !joined {
			return false
		}
		seen[v] = true
	}
	return len(ord) == len(seen)
}

// wholeGraph is a one-machine core.DataSource: every vertex is a local root.
type wholeGraph struct{ g *graph.Graph }

func (s wholeGraph) Classify(graph.VertexID) (core.Locality, int)    { return core.LocalityLocal, 0 }
func (s wholeGraph) LocalList(v graph.VertexID) []graph.VertexID     { return s.g.Neighbors(v) }
func (s wholeGraph) CrossSocketList(graph.VertexID) []graph.VertexID { panic("one socket") }
func (s wholeGraph) NumNodes() int                                   { return 1 }
func (s wholeGraph) LocalNode() int                                  { return 0 }

func (s wholeGraph) Fetch(int, []graph.VertexID) ([][]graph.VertexID, error) {
	panic("one machine fetches nothing")
}

func (s wholeGraph) Roots() []graph.VertexID {
	roots := make([]graph.VertexID, s.g.NumVertices())
	for v := range roots {
		roots[v] = graph.VertexID(v)
	}
	return roots
}

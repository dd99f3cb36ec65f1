// Package fsm implements Frequent Subgraph Mining (paper §7.1, Table 4):
// finding all labeled patterns whose support in a labeled input graph
// reaches a user threshold. Support is the minimum-node-image (MNI) measure
// of Bringmann & Nijssen — the paper's frequency definition [6]: for each
// pattern position, collect the set of distinct graph vertices that appear
// at that position across all embeddings; support is the smallest such set.
//
// Following the paper (and Peregrine's evaluation), candidate patterns are
// grown edge by edge up to three edges, pruned by the anti-monotonicity of
// MNI support. Enumeration for support counting runs on the Khuzdul cluster
// with an embedding sink that accumulates per-position vertex bitsets;
// bitsets are OR-merged across machines — the reduction a real deployment
// would run over MPI.
package fsm

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"khuzdul/internal/cluster"
	"khuzdul/internal/core"
	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// Config tunes the mining run.
type Config struct {
	// MinSupport is the frequency threshold.
	MinSupport uint64
	// MaxEdges bounds the pattern size (paper: 3).
	MaxEdges int
	// Style selects the client system's plan style.
	Style plan.Style
}

func (c Config) withDefaults() Config {
	if c.MaxEdges <= 0 {
		c.MaxEdges = 3
	}
	return c
}

// FrequentPattern is one mining result.
type FrequentPattern struct {
	Pattern *pattern.Pattern
	Support uint64
}

// Result reports a mining run.
type Result struct {
	Frequent []FrequentPattern
	Elapsed  time.Duration
	// ModeledElapsed accumulates the modeled parallel makespan of every
	// support computation (see cluster.Result.ModeledElapsed); candidate
	// generation itself is serial and negligible.
	ModeledElapsed time.Duration
	// Examined counts candidate patterns whose support was computed.
	Examined int
}

// Mine runs FSM on a Khuzdul cluster over a labeled graph.
func Mine(c *cluster.Cluster, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	g := c.Graph()
	if !g.Labeled() {
		return Result{}, fmt.Errorf("fsm: graph is unlabeled")
	}
	support := func(pat *pattern.Pattern) (uint64, time.Duration, error) {
		return clusterSupport(c, pat, cfg.Style)
	}
	return mine(g, cfg, support)
}

// MineSingle runs FSM on one machine with the given thread count — the
// AutomineIH/Peregrine single-machine baselines of Table 4.
func MineSingle(g *graph.Graph, cfg Config, threads int) (Result, error) {
	cfg = cfg.withDefaults()
	if !g.Labeled() {
		return Result{}, fmt.Errorf("fsm: graph is unlabeled")
	}
	support := func(pat *pattern.Pattern) (uint64, time.Duration, error) {
		return localSupportTimed(g, pat, cfg.Style, threads)
	}
	return mine(g, cfg, support)
}

// mine is the shared candidate-generation loop: seed with frequent labeled
// edges, extend frequent patterns by one edge, dedup canonically, stop at
// MaxEdges.
func mine(g *graph.Graph, cfg Config, support func(*pattern.Pattern) (uint64, time.Duration, error)) (Result, error) {
	start := time.Now()
	labels := distinctLabels(g)
	var res Result

	// Seed: single-edge labeled patterns.
	var frontier []FrequentPattern
	seen := map[string]bool{}
	for i, la := range labels {
		for _, lb := range labels[i:] {
			pat := pattern.PathP(2).WithLabels([]graph.Label{la, lb})
			code := pattern.CanonicalCode(pat)
			if seen[code] {
				continue
			}
			seen[code] = true
			res.Examined++
			s, modeled, err := support(pat)
			if err != nil {
				return Result{}, err
			}
			res.ModeledElapsed += modeled
			if s >= cfg.MinSupport {
				fp := FrequentPattern{Pattern: pat, Support: s}
				frontier = append(frontier, fp)
				res.Frequent = append(res.Frequent, fp)
			}
		}
	}

	// Grow: one edge at a time.
	for edges := 2; edges <= cfg.MaxEdges; edges++ {
		var next []FrequentPattern
		for _, fp := range frontier {
			for _, cand := range extendByOneEdge(fp.Pattern, labels) {
				code := pattern.CanonicalCode(cand)
				if seen[code] {
					continue
				}
				seen[code] = true
				res.Examined++
				s, modeled, err := support(cand)
				if err != nil {
					return Result{}, err
				}
				res.ModeledElapsed += modeled
				if s >= cfg.MinSupport {
					nfp := FrequentPattern{Pattern: cand, Support: s}
					next = append(next, nfp)
					res.Frequent = append(res.Frequent, nfp)
				}
			}
		}
		frontier = next
	}
	sortResults(res.Frequent)
	res.Elapsed = time.Since(start)
	return res, nil
}

// extendByOneEdge generates the candidates reachable from pat by adding one
// edge: either closing two existing non-adjacent vertices, or attaching a
// new vertex (any label) to an existing one.
func extendByOneEdge(pat *pattern.Pattern, labels []graph.Label) []*pattern.Pattern {
	var out []*pattern.Pattern
	k := pat.NumVertices()
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			if !pat.HasEdge(u, v) {
				q := pat.Clone()
				q.AddEdge(u, v)
				out = append(out, q)
			}
		}
	}
	if k < pattern.MaxVertices {
		for u := 0; u < k; u++ {
			for _, l := range labels {
				lbls := make([]graph.Label, k+1)
				for i := 0; i < k; i++ {
					lbls[i] = pat.Label(i)
				}
				lbls[k] = l
				q := pattern.New(k + 1)
				for a := 0; a < k; a++ {
					for b := a + 1; b < k; b++ {
						if pat.HasEdge(a, b) {
							q.AddEdge(a, b)
						}
					}
				}
				q.AddEdge(u, k)
				out = append(out, q.WithLabels(lbls))
			}
		}
	}
	return out
}

// domainSink accumulates MNI domains: one bitset of graph vertices per
// pattern position (in original pattern indices).
type domainSink struct {
	order []int // matching-order position → original pattern vertex
	mu    sync.Mutex
	doms  []bitset
}

func newDomainSink(pl *plan.Plan, n int) *domainSink {
	s := &domainSink{order: pl.Order(), doms: make([]bitset, pl.K)}
	for i := range s.doms {
		s.doms[i] = newBitset(n)
	}
	return s
}

// OnMatches implements core.Sink: every final-level match of one extension
// shares prefix, so its positions are marked once and the lock is taken once
// per extension instead of once per match.
func (s *domainSink) OnMatches(prefix, last []graph.VertexID) {
	s.mu.Lock()
	for pos, v := range prefix {
		s.doms[s.order[pos]].set(uint32(v))
	}
	d := s.doms[s.order[len(prefix)]]
	for _, v := range last {
		d.set(uint32(v))
	}
	s.mu.Unlock()
}

// merge ORs another sink's domains into this one (the cross-machine
// reduction).
func (s *domainSink) merge(o *domainSink) {
	for i := range s.doms {
		s.doms[i].or(o.doms[i])
	}
}

// support is the MNI measure: the smallest per-position domain.
func (s *domainSink) support() uint64 {
	min := s.doms[0].count()
	for _, d := range s.doms[1:] {
		if c := d.count(); c < min {
			min = c
		}
	}
	return min
}

// clusterSupport computes MNI support distributedly: every engine instance
// gets its own domain sink; sinks are merged afterwards. Symmetry breaking
// must be off — MNI needs every position image, not one canonical embedding
// per orbit.
func clusterSupport(c *cluster.Cluster, pat *pattern.Pattern, style plan.Style) (uint64, time.Duration, error) {
	pl, err := plan.Compile(pat, plan.Options{
		Style: style, DisableSymmetryBreak: true, Stats: plan.StatsOf(c.Graph()),
	})
	if err != nil {
		return 0, 0, err
	}
	n := c.Graph().NumVertices()
	var mu sync.Mutex
	var sinks []*domainSink
	res, err := c.Run(pl, func(node, socket int) core.Sink {
		s := newDomainSink(pl, n)
		mu.Lock()
		sinks = append(sinks, s)
		mu.Unlock()
		return s
	})
	if err != nil {
		return 0, 0, err
	}
	root := sinks[0]
	for _, s := range sinks[1:] {
		root.merge(s)
	}
	return root.support(), res.ModeledElapsed, nil
}

// localSupport computes MNI support on one machine.
func localSupport(g *graph.Graph, pat *pattern.Pattern, style plan.Style, threads int) (uint64, error) {
	s, _, err := localSupportTimed(g, pat, style, threads)
	return s, err
}

// localSupportTimed additionally reports the modeled parallel makespan:
// static worker shards execute sequentially and are timed individually, and
// the makespan is the slowest shard. Sequential execution keeps the
// measurement valid on hosts with fewer cores than threads, and the
// shard-max exposes static-block imbalance (relevant for the Fractal-like
// baseline of Table 4).
func localSupportTimed(g *graph.Graph, pat *pattern.Pattern, style plan.Style, threads int) (uint64, time.Duration, error) {
	pl, err := plan.Compile(pat, plan.Options{
		Style: style, DisableSymmetryBreak: true, Stats: plan.StatsOf(g),
	})
	if err != nil {
		return 0, 0, err
	}
	if threads < 1 {
		threads = 1
	}
	n := g.NumVertices()
	block := (n + threads - 1) / threads
	sink := newDomainSink(pl, n)
	onMatch := func(emb []graph.VertexID) { sink.OnMatches(emb[:len(emb)-1], emb[len(emb)-1:]) }
	ex := plan.NewExecutor(pl, g.Neighbors, g.Label)
	var makespan time.Duration
	for t := 0; t < threads; t++ {
		lo, hi := t*block, (t+1)*block
		if hi > n {
			hi = n
		}
		t0 := time.Now()
		for v := lo; v < hi; v++ {
			ex.VisitRoot(graph.VertexID(v), onMatch)
		}
		if d := time.Since(t0); d > makespan {
			makespan = d
		}
	}
	return sink.support(), makespan, nil
}

// distinctLabels returns the sorted distinct labels of g.
func distinctLabels(g *graph.Graph) []graph.Label {
	seen := map[graph.Label]bool{}
	for v := 0; v < g.NumVertices(); v++ {
		seen[g.Label(graph.VertexID(v))] = true
	}
	out := make([]graph.Label, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortResults(fps []FrequentPattern) {
	sort.Slice(fps, func(i, j int) bool {
		a, b := fps[i], fps[j]
		if a.Pattern.NumEdges() != b.Pattern.NumEdges() {
			return a.Pattern.NumEdges() < b.Pattern.NumEdges()
		}
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		return pattern.CanonicalCode(a.Pattern) < pattern.CanonicalCode(b.Pattern)
	})
}

// bitset is a dense vertex set.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i uint32) { b[i/64] |= 1 << (i % 64) }

func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

func (b bitset) count() uint64 {
	var n uint64
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

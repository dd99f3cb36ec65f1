// Package single implements the single-machine GPM systems the paper
// compares against in Table 3: AutomineIH (the authors' in-house Automine
// implementation), a Peregrine-like pattern-aware engine, and a
// Pangolin-like engine whose distinguishing feature is the orientation (DAG)
// preprocessing for triangle/clique counting. All three share a
// multithreaded depth-first plan executor with dynamic root distribution;
// they differ in schedule style, vertical computation sharing, and
// preprocessing — the algorithmic distinctions the paper attributes to each
// system.
package single

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// Engine is one single-machine GPM system configuration.
type Engine struct {
	name        string
	style       plan.Style
	vcs         bool
	orientation bool
}

// AutomineIH returns the in-house Automine configuration: canonical greedy
// schedules with vertical computation sharing.
func AutomineIH() *Engine {
	return &Engine{name: "AutomineIH", style: plan.StyleAutomine, vcs: true}
}

// PeregrineLike returns a Peregrine-flavored configuration: pattern-aware
// exploration with its own (cost-model) schedules, no intermediate reuse.
func PeregrineLike() *Engine {
	return &Engine{name: "Peregrine", style: plan.StyleGraphPi, vcs: false}
}

// PangolinLike returns a Pangolin-flavored configuration: like Automine plus
// the orientation optimization for clique-shaped patterns, which converts
// the input to a DAG and drops symmetry restrictions (paper §7.2 notes
// Pangolin's TC advantage on skewed graphs comes from exactly this).
func PangolinLike() *Engine {
	return &Engine{name: "Pangolin", style: plan.StyleAutomine, vcs: true, orientation: true}
}

// AutomineIHOriented returns AutomineIH with the orientation preprocessing
// enabled, as the paper configures it for the Table 5 large-graph runs.
func AutomineIHOriented() *Engine {
	return &Engine{name: "AutomineIH+orient", style: plan.StyleAutomine, vcs: true, orientation: true}
}

// Name returns the system name for experiment output.
func (e *Engine) Name() string { return e.name }

// Result reports one single-machine run.
type Result struct {
	Count   uint64
	Elapsed time.Duration
	// ModeledElapsed is the modeled parallel runtime: measured per-worker
	// busy time divided over the thread count (root distribution is
	// dynamic, so work is near-balanced). Valid on any host core count.
	ModeledElapsed time.Duration
}

// CountPattern counts pat's embeddings in g using the engine's
// configuration and the given number of threads.
func (e *Engine) CountPattern(g *graph.Graph, pat *pattern.Pattern, induced bool, threads int) (Result, error) {
	start := time.Now()
	target := g
	opts := plan.Options{Style: e.style, Induced: induced, DisableVCS: !e.vcs, Stats: plan.StatsOf(g)}
	if e.orientation && isClique(pat) && !induced {
		target = graph.Orient(g)
		opts.DisableSymmetryBreak = true
		opts.Stats = plan.StatsOf(target)
	}
	pl, err := plan.Compile(pat, opts)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", e.name, err)
	}
	count, busy := ParallelCountTimed(pl, target, threads)
	return Result{
		Count:          count,
		Elapsed:        time.Since(start),
		ModeledElapsed: busy / time.Duration(max(threads, 1)),
	}, nil
}

// CountMotifs counts all connected size-k patterns (induced), returning the
// per-pattern counts and the total elapsed time. Like the Khuzdul ports
// (apps.MotifCount) it counts every pattern non-induced and converts with the
// motif set's matrix, so Table 3 compares engines, not algorithms; unlike
// them it runs plan.Executor, which never enters count-only mode, so its star
// tails are enumerated, not folded.
func (e *Engine) CountMotifs(g *graph.Graph, k, threads int) ([]uint64, Result, error) {
	if err := pattern.CheckMotifSize(k); err != nil {
		return nil, Result{}, fmt.Errorf("%s: %w", e.name, err)
	}
	start := time.Now()
	var counts []uint64
	var modeled time.Duration
	for _, pat := range pattern.ConnectedPatterns(k) {
		r, err := e.CountPattern(g, pat, false, threads)
		if err != nil {
			return nil, Result{}, err
		}
		counts = append(counts, r.Count)
		modeled += r.ModeledElapsed
	}
	counts, total, err := pattern.InducedCounts(k, counts)
	if err != nil {
		return nil, Result{}, fmt.Errorf("%s: %w", e.name, err)
	}
	return counts, Result{Count: total, Elapsed: time.Since(start), ModeledElapsed: modeled}, nil
}

// isClique reports whether pat is a complete graph.
func isClique(pat *pattern.Pattern) bool {
	k := pat.NumVertices()
	return pat.NumEdges() == k*(k-1)/2
}

// ParallelCount runs a plan over every vertex of g with dynamic root
// distribution: workers claim fixed-size root ranges from an atomic cursor,
// each with its own executor. This is the shared execution path of all
// single-machine systems.
func ParallelCount(pl *plan.Plan, g *graph.Graph, threads int) uint64 {
	count, _ := ParallelCountTimed(pl, g, threads)
	return count
}

// ParallelCountTimed is ParallelCount that also reports the summed worker
// busy time, from which callers derive a host-independent modeled runtime.
func ParallelCountTimed(pl *plan.Plan, g *graph.Graph, threads int) (uint64, time.Duration) {
	var labelOf plan.LabelFunc
	if g.Labeled() {
		labelOf = g.Label
	}
	if threads <= 1 {
		t0 := time.Now()
		var total uint64
		ex := plan.NewExecutor(pl, g.Neighbors, labelOf)
		installEdgeOracle(ex, g)
		for v := 0; v < g.NumVertices(); v++ {
			total += ex.CountRoot(graph.VertexID(v))
		}
		return total, time.Since(t0)
	}
	const grain = 256
	n := g.NumVertices()
	var cursor atomic.Int64
	var total atomic.Uint64
	var busy atomic.Int64
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			ex := plan.NewExecutor(pl, g.Neighbors, labelOf)
			installEdgeOracle(ex, g)
			var local uint64
			for {
				start := int(cursor.Add(grain)) - grain
				if start >= n {
					break
				}
				end := start + grain
				if end > n {
					end = n
				}
				for v := start; v < end; v++ {
					local += ex.CountRoot(graph.VertexID(v))
				}
			}
			total.Add(local)
			busy.Add(int64(time.Since(t0)))
		}()
	}
	wg.Wait()
	return total.Load(), time.Duration(busy.Load())
}

func installEdgeOracle(ex *plan.Executor, g *graph.Graph) {
	if g.EdgeLabeled() {
		ex.SetEdgeLabelOf(plan.EdgeLabelOracle(g))
	}
}

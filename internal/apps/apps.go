// Package apps implements the paper's four GPM application categories
// (§7.1) on top of the Khuzdul cluster: Triangle Counting (TC), k-Clique
// Counting (k-CC), k-Motif Counting (k-MC), and — in internal/fsm —
// Frequent Subgraph Mining. Each application is a thin composition: pick a
// client system (k-Automine or k-GraphPi), compile the pattern(s) to EXTEND
// plans, run them on the cluster.
package apps

import (
	"fmt"

	"khuzdul/internal/cluster"
	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// System selects the client GPM system. A system is its schedule
// generator, a plan.Style: both ported systems share the Khuzdul runtime and
// differ only in how plan.Compile picks the matching order.
type System int

const (
	// KAutomine is Automine ported on Khuzdul: its canonical greedy
	// matching order (plan.StyleAutomine).
	KAutomine System = iota
	// KGraphPi is GraphPi ported on Khuzdul: its cost-model search over
	// matching orders (plan.StyleGraphPi).
	KGraphPi
)

func (s System) String() string {
	switch s {
	case KAutomine:
		return "k-Automine"
	case KGraphPi:
		return "k-GraphPi"
	default:
		return fmt.Sprintf("system(%d)", int(s))
	}
}

// Style returns the plan style that implements the system. The systems'
// values are the styles' values; plan.Compile rejects an unknown one.
func (s System) Style() plan.Style { return plan.Style(s) }

// CompileOptions forwards system-specific knobs.
type CompileOptions struct {
	Induced              bool
	DisableVCS           bool
	DisableSymmetryBreak bool
}

// Compile compiles one pattern with the selected system, using g's degree
// statistics to drive the schedule cost model (g may be nil for defaults).
func Compile(sys System, pat *pattern.Pattern, g *graph.Graph, opts CompileOptions) (*plan.Plan, error) {
	po := plan.Options{
		Style:                sys.Style(),
		Induced:              opts.Induced,
		DisableVCS:           opts.DisableVCS,
		DisableSymmetryBreak: opts.DisableSymmetryBreak,
	}
	if g != nil {
		po.Stats = plan.StatsOf(g)
	}
	return plan.Compile(pat, po)
}

// TriangleCount runs TC on the cluster.
func TriangleCount(c *cluster.Cluster, sys System) (cluster.Result, error) {
	return PatternCount(c, pattern.Triangle(), sys, false)
}

// CliqueCount runs k-CC on the cluster. k must be in [2, pattern.MaxVertices].
func CliqueCount(c *cluster.Cluster, k int, sys System) (cluster.Result, error) {
	if k < 2 || k > pattern.MaxVertices {
		return cluster.Result{}, fmt.Errorf("apps: clique count: k must be in [2,%d], got %d", pattern.MaxVertices, k)
	}
	return PatternCount(c, pattern.Clique(k), sys, false)
}

// PatternCount counts one pattern's embeddings on the cluster.
func PatternCount(c *cluster.Cluster, pat *pattern.Pattern, sys System, induced bool) (cluster.Result, error) {
	pl, err := Compile(sys, pat, c.Graph(), CompileOptions{Induced: induced})
	if err != nil {
		return cluster.Result{}, err
	}
	return c.Count(pl)
}

// MotifCount runs k-MC by decomposition: it counts every connected size-k
// pattern non-induced — plans without subtractions, whose tails of levels
// sharing one set fold into a binomial and whose last level, where no
// v_{K−2} changes its count, is multiplied in one level early, under any
// core.CountSink — and converts the counts to induced ones
// through the motif set's spanning-supergraph matrix (pattern.InducedCounts).
// The per-pattern Count and the combined Count are induced counts; every
// other Result field, Summary included, describes the non-induced runs that
// actually executed. k outside the supported motif sizes is a
// pattern.ErrMotifSize error.
func MotifCount(c *cluster.Cluster, k int, sys System) ([]cluster.Result, cluster.Result, error) {
	if err := pattern.CheckMotifSize(k); err != nil {
		return nil, cluster.Result{}, fmt.Errorf("apps: motif count: %w", err)
	}
	pats := pattern.ConnectedPatterns(k)
	plans := make([]*plan.Plan, 0, len(pats))
	for _, pat := range pats {
		pl, err := Compile(sys, pat, c.Graph(), CompileOptions{})
		if err != nil {
			return nil, cluster.Result{}, err
		}
		plans = append(plans, pl)
	}
	per, combined, err := c.CountAll(plans)
	if err != nil {
		return nil, cluster.Result{}, err
	}
	counts := make([]uint64, len(per))
	for i := range per {
		counts[i] = per[i].Count
	}
	induced, total, err := pattern.InducedCounts(k, counts)
	if err != nil {
		return nil, cluster.Result{}, fmt.Errorf("apps: motif count: %w", err)
	}
	for i, n := range induced {
		per[i].Count = n
	}
	combined.Count = total
	return per, combined, nil
}

// OrientedCliqueCount counts k-cliques on a cluster built over an oriented
// (DAG) graph — the Pangolin-style preprocessing the paper applies for the
// Table 5 large-graph runs. The caller must have built the cluster over
// graph.Orient(g); orientation replaces symmetry-breaking restrictions.
func OrientedCliqueCount(c *cluster.Cluster, k int, sys System) (cluster.Result, error) {
	pl, err := Compile(sys, pattern.Clique(k), c.Graph(),
		CompileOptions{DisableSymmetryBreak: true})
	if err != nil {
		return cluster.Result{}, err
	}
	return c.Count(pl)
}

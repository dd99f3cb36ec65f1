// Package replicated implements the GraphPi distributed baseline: every
// machine holds a full replica of the graph, so there is no communication,
// but (1) memory scales with cluster size × graph size, which is why the
// paper's Table 5 graphs are out of reach for this design, and (2) work is
// split by coarse static partitioning of the outer enumeration loop, which
// GraphPi parallelizes "in a coarse-grained fashion" — reproducing its load
// imbalance against Khuzdul's fine-grained dynamic mini-batches.
package replicated

import (
	"fmt"
	"time"

	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// Name identifies the baseline in experiment output.
const Name = "GraphPi(replicated)"

// Config describes the simulated replicated deployment.
type Config struct {
	// NumNodes is the number of machines (each holding the whole graph).
	NumNodes int
	// ThreadsPerNode is the per-machine worker count.
	ThreadsPerNode int
}

// Result reports one run.
type Result struct {
	Count   uint64
	Elapsed time.Duration
	// ModeledElapsed is the modeled parallel makespan: worker shards are
	// timed individually (executed sequentially, so the measurement is
	// valid on any host core count) and the makespan is the slowest shard —
	// exactly the critical path of GraphPi's static first-loop
	// partitioning. Load imbalance between shards, the paper's criticism
	// of coarse-grained parallelism, shows up here directly.
	ModeledElapsed time.Duration
	// MemoryBytes is the aggregate graph memory across machines — the
	// replication cost the paper's scalability argument hinges on.
	MemoryBytes uint64
}

// Count counts pat's embeddings with a GraphPi-style replicated execution:
// the vertex range is statically blocked across machines, and each machine
// statically blocks its range across threads (no work stealing).
func Count(g *graph.Graph, pat *pattern.Pattern, cfg Config) (Result, error) {
	if cfg.NumNodes <= 0 {
		cfg.NumNodes = 1
	}
	if cfg.ThreadsPerNode <= 0 {
		cfg.ThreadsPerNode = 1
	}
	pl, err := plan.Compile(pat, plan.Options{Style: plan.StyleGraphPi, Stats: plan.StatsOf(g)})
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	count, makespan := countStatic(pl, g, cfg.NumNodes*cfg.ThreadsPerNode)
	return Result{
		Count:          count,
		Elapsed:        time.Since(start),
		ModeledElapsed: makespan,
		MemoryBytes:    uint64(cfg.NumNodes) * g.SizeBytes(),
	}, nil
}

// CountMotifs counts all connected size-k patterns with induced semantics:
// like apps.MotifCount, non-induced plans converted with the motif set's
// matrix — though through plan.Executor, which never enters count-only mode,
// so tails are enumerated here, neither folded nor multiplied.
func CountMotifs(g *graph.Graph, k int, cfg Config) (Result, error) {
	if err := pattern.CheckMotifSize(k); err != nil {
		return Result{}, fmt.Errorf("replicated: %w", err)
	}
	if cfg.NumNodes <= 0 {
		cfg.NumNodes = 1
	}
	if cfg.ThreadsPerNode <= 0 {
		cfg.ThreadsPerNode = 1
	}
	start := time.Now()
	var counts []uint64
	var modeled time.Duration
	for _, pat := range pattern.ConnectedPatterns(k) {
		pl, err := plan.Compile(pat, plan.Options{Style: plan.StyleGraphPi, Stats: plan.StatsOf(g)})
		if err != nil {
			return Result{}, err
		}
		cnt, makespan := countStatic(pl, g, cfg.NumNodes*cfg.ThreadsPerNode)
		counts = append(counts, cnt)
		modeled += makespan
	}
	_, total, err := pattern.InducedCounts(k, counts)
	if err != nil {
		return Result{}, fmt.Errorf("replicated: %w", err)
	}
	return Result{
		Count:          total,
		Elapsed:        time.Since(start),
		ModeledElapsed: modeled,
		MemoryBytes:    uint64(cfg.NumNodes) * g.SizeBytes(),
	}, nil
}

// countStatic splits the root range into one contiguous block per worker —
// the coarse-grained first-loop parallelization. On skewed graphs blocks
// containing hubs dominate the critical path. Shards run sequentially and
// are timed individually so the modeled makespan (slowest shard) is valid
// regardless of host core count; the returned makespan is that maximum.
func countStatic(pl *plan.Plan, g *graph.Graph, workers int) (uint64, time.Duration) {
	var labelOf plan.LabelFunc
	if g.Labeled() {
		labelOf = g.Label
	}
	n := g.NumVertices()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	block := (n + workers - 1) / workers
	var total uint64
	var makespan time.Duration
	ex := plan.NewExecutor(pl, g.Neighbors, labelOf)
	if g.EdgeLabeled() {
		ex.SetEdgeLabelOf(plan.EdgeLabelOracle(g))
	}
	for w := 0; w < workers; w++ {
		start := w * block
		end := start + block
		if end > n {
			end = n
		}
		t0 := time.Now()
		for v := start; v < end; v++ {
			total += ex.CountRoot(graph.VertexID(v))
		}
		if d := time.Since(t0); d > makespan {
			makespan = d
		}
	}
	return total, makespan
}

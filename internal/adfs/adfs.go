// Package adfs implements the "moving computation to data" baseline the
// paper contrasts with Khuzdul (§2.3, Figure 10 — aDFS). Partial embeddings
// travel to the machine that owns the edge list of their most recently
// matched vertex; the other active edge lists the extension needs travel
// with them. Exactly as the paper's Figure 4 walkthrough describes
// ("subgraphs (v0,v2) and (v0,v3) are sent to machine 2, together with
// N(0)"), this policy pays for every hop with the full weight of the carried
// lists — the excessive-communication drawback that makes the strategy slow
// for GPM.
package adfs

import (
	"sync"
	"sync/atomic"
	"time"

	"khuzdul/internal/graph"
	"khuzdul/internal/metrics"
	"khuzdul/internal/partition"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// Name identifies the baseline in experiment output.
const Name = "aDFS"

// Config describes the simulated deployment.
type Config struct {
	NumNodes       int
	ThreadsPerNode int
}

// Result reports one run.
type Result struct {
	Count   uint64
	Elapsed time.Duration
	Summary metrics.Summary
}

// task is a partial embedding parked at the machine owning its last vertex.
type task struct {
	emb []graph.VertexID
}

// Count counts pat's embeddings with level-synchronous
// moving-computation-to-data execution.
func Count(g *graph.Graph, pat *pattern.Pattern, cfg Config) (Result, error) {
	if cfg.NumNodes <= 0 {
		cfg.NumNodes = 1
	}
	if cfg.ThreadsPerNode <= 0 {
		cfg.ThreadsPerNode = 1
	}
	pl, err := plan.Compile(pat, plan.Options{
		Style: plan.StyleGraphPi, DisableVCS: true, Stats: plan.StatsOf(g),
	})
	if err != nil {
		return Result{}, err
	}
	asg := partition.NewAssignment(cfg.NumNodes, 1)
	met := metrics.NewCluster(cfg.NumNodes)
	var labelOf plan.LabelFunc
	if g.Labeled() {
		labelOf = g.Label
	}

	start := time.Now()
	// Level 0: every vertex starts at its owner; position-0 label checks
	// apply here.
	inboxes := make([][]task, cfg.NumNodes)
	for v := 0; v < g.NumVertices(); v++ {
		id := graph.VertexID(v)
		if labelOf != nil && pl.Labeled() && labelOf(id) != pl.PosLabel(0) {
			continue
		}
		owner := asg.Owner(id)
		inboxes[owner] = append(inboxes[owner], task{emb: []graph.VertexID{id}})
	}

	var total atomic.Uint64
	for level := 1; level < pl.K; level++ {
		final := level == pl.K-1
		outboxes := make([][][]task, cfg.NumNodes) // per source node, per dest node
		var wg sync.WaitGroup
		for node := 0; node < cfg.NumNodes; node++ {
			outboxes[node] = make([][]task, cfg.NumNodes)
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				total.Add(processNode(g, pl, asg, labelOf, met.Nodes[node], node,
					inboxes[node], outboxes[node], level, final, cfg.ThreadsPerNode))
			}(node)
		}
		wg.Wait()
		if final {
			break
		}
		// Shuffle: deliver outboxes, accounting the wire size of each task —
		// embedding vertices plus every carried active edge list that the
		// destination machine does not own.
		next := make([][]task, cfg.NumNodes)
		for src := 0; src < cfg.NumNodes; src++ {
			for dst := 0; dst < cfg.NumNodes; dst++ {
				batch := outboxes[src][dst]
				if len(batch) == 0 {
					continue
				}
				if src != dst {
					var bytes uint64
					for _, t := range batch {
						bytes += taskBytes(g, pl, asg, dst, t, level)
					}
					met.Nodes[src].BytesSent.Add(bytes)
					met.Nodes[dst].BytesReceived.Add(bytes)
					met.Nodes[src].Messages.Add(1)
					met.Nodes[dst].Messages.Add(1)
				}
				next[dst] = append(next[dst], batch...)
			}
		}
		inboxes = next
	}
	return Result{
		Count:   total.Load(),
		Elapsed: time.Since(start),
		Summary: met.Summarize(),
	}, nil
}

// processNode extends every task parked at one machine for one level.
func processNode(g *graph.Graph, pl *plan.Plan, asg partition.Assignment,
	labelOf plan.LabelFunc, met *metrics.Node, node int,
	in []task, out [][]task, level int, final bool, threads int) uint64 {

	if len(in) == 0 {
		return 0
	}
	var outMu sync.Mutex
	var cursor atomic.Int64
	var count atomic.Uint64
	var wg sync.WaitGroup
	const grain = 128
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			scratch := plan.NewScratch(pl)
			localOut := make([][]task, len(out))
			var local, exts uint64
			for {
				startIdx := int(cursor.Add(grain)) - grain
				if startIdx >= len(in) {
					break
				}
				endIdx := startIdx + grain
				if endIdx > len(in) {
					endIdx = len(in)
				}
				for _, tk := range in[startIdx:endIdx] {
					exts++
					getList := func(pos int) []graph.VertexID { return g.Neighbors(tk.emb[pos]) }
					cands, _ := pl.Extend(scratch, level, tk.emb, getList, nil, labelOf, nil)
					if final {
						local += uint64(len(cands))
						continue
					}
					for _, v := range cands {
						child := task{emb: append(append([]graph.VertexID(nil), tk.emb...), v)}
						dst := asg.Owner(v)
						localOut[dst] = append(localOut[dst], child)
					}
				}
			}
			count.Add(local)
			met.AddCompute(time.Since(t0))
			met.Extensions.Add(exts)
			if local > 0 {
				met.Matches.Add(local)
			}
			outMu.Lock()
			for dst := range localOut {
				out[dst] = append(out[dst], localOut[dst]...)
			}
			outMu.Unlock()
		}()
	}
	wg.Wait()
	return count.Load()
}

// taskBytes is the wire size of shipping a task to dst: its embedding
// vertices plus every active edge list the destination does not own.
func taskBytes(g *graph.Graph, pl *plan.Plan, asg partition.Assignment, dst int, t task, level int) uint64 {
	bytes := 4 * uint64(len(t.emb)+1)
	// The next extension (matching position level+1 at dst) needs the lists
	// of these positions; any not owned by dst must ride along.
	for _, pos := range pl.Level(level + 1).Intersect() {
		v := t.emb[pos]
		if asg.Owner(v) != dst {
			bytes += 4 + 4*uint64(g.Degree(v))
		}
	}
	return bytes
}

package harness

import (
	"fmt"
	"time"

	"khuzdul/internal/apps"
	"khuzdul/internal/cluster"
	"khuzdul/internal/oblivious"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
	"khuzdul/internal/single"
)

// Ablation experiments beyond the paper's tables/figures, for the design
// choices DESIGN.md calls out: non-strict pipelining (§4.3), the mini-batch
// workload-distribution unit (§6), and the pattern-aware vs
// pattern-oblivious method gap (§1).

func init() {
	register(Experiment{ID: "ablation-pipeline", Title: "Strict vs non-strict circulant pipelining (extra)", Run: runAblationPipeline})
	register(Experiment{ID: "ablation-minibatch", Title: "Mini-batch size sweep (extra)", Run: runAblationMiniBatch})
	register(Experiment{ID: "ablation-oblivious", Title: "Pattern-aware vs pattern-oblivious enumeration (extra)", Run: runAblationOblivious})
	register(Experiment{ID: "ablation-transport", Title: "In-flight window 1 vs 16 on the TCP fabric (extra)", Run: runAblationTransport})
}

// runAblationPipeline quantifies what the paper's non-strict pipelining
// (fire every circulant batch's fetch at chunk seal) buys over strict
// stop-and-go fetching.
func runAblationPipeline(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:     "ablation-pipeline",
		Title:  "circulant pipelining (k-GraphPi)",
		Header: []string{"App", "G.", "non-strict", "strict", "speedup", "net wait ratio"},
	}
	graphs := []string{"lj"}
	if !o.Quick {
		graphs = append(graphs, "uk", "fr")
	}
	for _, a := range []appSpec{appTC, app4CC} {
		for _, abbr := range graphs {
			d, err := GetDataset(abbr)
			if err != nil {
				return nil, err
			}
			g := d.Generate(o.Scale)
			run := func(strict bool) (cluster.Result, error) {
				c, err := cluster.New(g, cluster.Config{
					NumNodes: o.Nodes, ThreadsPerSocket: o.Threads,
					StrictPipeline: strict, SequentialNodes: true,
				})
				if err != nil {
					return cluster.Result{}, err
				}
				defer c.Close()
				return runOnCluster(c, apps.KGraphPi, a)
			}
			ns, err := run(false)
			if err != nil {
				return nil, err
			}
			st, err := run(true)
			if err != nil {
				return nil, err
			}
			if ns.Count != st.Count {
				return nil, fmt.Errorf("ablation-pipeline: strictness changed count")
			}
			t.AddRow(a.name, abbr, elapsedStr(ns.Elapsed), elapsedStr(st.Elapsed),
				FmtSpeedup(st.Elapsed, ns.Elapsed),
				fmt.Sprintf("%.2f", ratio(uint64(ns.Summary.Breakdown.Network),
					uint64(st.Summary.Breakdown.Network))))
		}
	}
	t.AddNote("non-strict pipelining overlaps every batch's fetch with earlier batches' extension; strict mode exposes the full fetch latency")
	return t, nil
}

// runAblationMiniBatch sweeps the work-distribution unit around the paper's
// choice of 64 embeddings per mini-batch.
func runAblationMiniBatch(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:     "ablation-minibatch",
		Title:  "mini-batch size sweep on lj (k-GraphPi)",
		Header: []string{"App", "mb=4", "mb=16", "mb=64", "mb=256", "mb=1024"},
	}
	d, err := GetDataset("lj")
	if err != nil {
		return nil, err
	}
	g := d.Generate(o.Scale)
	appsList := []appSpec{appTC}
	if !o.Quick {
		appsList = append(appsList, app4CC)
	}
	for _, a := range appsList {
		row := []string{a.name}
		var want uint64
		for i, mb := range []int{4, 16, 64, 256, 1024} {
			c, err := cluster.New(g, cluster.Config{
				NumNodes: o.Nodes, ThreadsPerSocket: o.Threads, MiniBatch: mb,
				SequentialNodes: true,
			})
			if err != nil {
				return nil, err
			}
			r, err := runOnCluster(c, apps.KGraphPi, a)
			c.Close()
			if err != nil {
				return nil, err
			}
			if i == 0 {
				want = r.Count
			} else if r.Count != want {
				return nil, fmt.Errorf("ablation-minibatch: size changed count")
			}
			row = append(row, elapsedStr(r.Elapsed))
		}
		t.AddRow(row...)
	}
	t.AddNote("the paper uses 64; tiny units pay claim overhead, huge units lose balance at chunk tails")
	return t, nil
}

// runAblationTransport measures what request multiplexing buys. Same cluster,
// same TCP sockets, same protocol, same task schedule — only the in-flight
// window differs: window 1 admits one exchange at a time per connection, so
// concurrent fetches to one peer head-of-line block; window 16 (the default)
// pipelines them on one socket.
func runAblationTransport(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:     "ablation-transport",
		Title:  "in-flight window 1 vs 16 on the TCP fabric (k-GraphPi)",
		Header: []string{"App", "G.", "window 1", "window 16", "speedup", "peak in-flight"},
	}
	graphs := []string{"lj"}
	if !o.Quick {
		graphs = append(graphs, "uk")
	}
	appsList := []appSpec{appTC}
	if !o.Quick {
		appsList = append(appsList, app4CC)
	}
	for _, a := range appsList {
		for _, abbr := range graphs {
			d, err := GetDataset(abbr)
			if err != nil {
				return nil, err
			}
			g := d.Generate(o.Scale)
			run := func(window int) (cluster.Result, error) {
				// Two sockets per machine so several workers fetch from the
				// same remote peer at once — the contention multiplexing is
				// built to remove.
				c, err := cluster.New(g, cluster.Config{
					NumNodes: o.Nodes, Sockets: 2, ThreadsPerSocket: o.Threads,
					Transport: cluster.TransportTCP, InFlight: window,
				})
				if err != nil {
					return cluster.Result{}, err
				}
				defer c.Close()
				return runOnCluster(c, apps.KGraphPi, a)
			}
			one, err := run(1)
			if err != nil {
				return nil, err
			}
			wide, err := run(16)
			if err != nil {
				return nil, err
			}
			if one.Count != wide.Count {
				return nil, fmt.Errorf("ablation-transport: in-flight window changed count")
			}
			t.AddRow(a.name, abbr, elapsedStr(one.Elapsed), elapsedStr(wide.Elapsed),
				FmtSpeedup(one.Elapsed, wide.Elapsed),
				fmt.Sprintf("%d", wide.Summary.InFlightPeak))
		}
	}
	t.AddNote("window = most requests outstanding per connection; peak in-flight = most concurrent outstanding requests on any node at window 16")
	return t, nil
}

// runAblationOblivious reproduces the paper's §1 motivation: the gap between
// pattern-aware enumeration and Arabesque-style pattern-oblivious
// enumeration with isomorphism checks.
func runAblationOblivious(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:     "ablation-oblivious",
		Title:  "pattern-aware vs pattern-oblivious 3/4-motif counting",
		Header: []string{"G.", "k", "aware", "oblivious", "slowdown", "subgraphs enumerated"},
	}
	graphs := []string{"mc"}
	if !o.Quick {
		graphs = append(graphs, "pt")
	}
	ks := []int{3}
	if !o.Quick {
		ks = append(ks, 4)
	}
	threads := o.Threads * 2
	for _, abbr := range graphs {
		d, err := GetDataset(abbr)
		if err != nil {
			return nil, err
		}
		g := d.Generate(o.Scale)
		for _, k := range ks {
			pats := pattern.ConnectedPatterns(k)
			// Pattern-aware: one plan per motif, induced, single machine for
			// a like-for-like comparison.
			awareStart := time.Now()
			var awareCounts []uint64
			for _, pat := range pats {
				pl := plan.MustCompile(pat, plan.Options{
					Style: plan.StyleGraphPi, Induced: true, Stats: plan.StatsOf(g),
				})
				awareCounts = append(awareCounts, single.ParallelCount(pl, g, threads))
			}
			awareElapsed := time.Since(awareStart)

			obl, err := oblivious.CountPatterns(g, pats, k, threads)
			if err != nil {
				return nil, err
			}
			for i := range pats {
				if awareCounts[i] != obl.Counts[i] {
					return nil, fmt.Errorf("ablation-oblivious %s k=%d: count mismatch on %v: %d vs %d",
						abbr, k, pats[i], awareCounts[i], obl.Counts[i])
				}
			}
			t.AddRow(abbr, fmt.Sprintf("%d", k),
				FmtDur(awareElapsed), FmtDur(obl.Elapsed),
				FmtSpeedup(obl.Elapsed, awareElapsed),
				FmtCount(obl.Enumerated))
		}
	}
	t.AddNote("pattern-oblivious systems visit every connected subgraph and pay a canonical-form check each — the paper's reason to focus on pattern-aware enumeration")
	return t, nil
}

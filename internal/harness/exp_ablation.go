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
	register("ablation-pipeline", "Strict vs non-strict circulant pipelining (extra)", runAblationPipeline)
	register("ablation-minibatch", "Mini-batch size sweep (extra)", runAblationMiniBatch)
	register("ablation-oblivious", "Pattern-aware vs pattern-oblivious enumeration (extra)", runAblationOblivious)
	register("ablation-transport", "In-flight window 1 vs 16 on the TCP fabric (extra)", runAblationTransport)
}

// runAblationPipeline quantifies what the paper's non-strict pipelining
// (fire every circulant batch's fetch at chunk seal) buys over strict
// stop-and-go fetching.
func runAblationPipeline(x *exhibit) (*Table, error) {
	t := x.table("circulant pipelining (k-GraphPi)", "App", "G.", "non-strict", "strict", "speedup", "net wait ratio")
	graphs := []string{"lj"}
	if !x.Quick {
		graphs = append(graphs, "uk", "fr")
	}
	strict := plainConfig(x.Nodes, x.Threads)
	strict.StrictPipeline = true
	for _, a := range []appSpec{appTC, app4CC} {
		for _, abbr := range graphs {
			rs, err := x.row(abbr, a, khuzdul(plainConfig(x.Nodes, x.Threads), "non-strict", apps.KGraphPi),
				khuzdul(strict, "strict", apps.KGraphPi))
			if err != nil {
				return nil, err
			}
			ns, st := rs[0], rs[1]
			t.AddRow(a.name, abbr, FmtDur(ns.Elapsed), FmtDur(st.Elapsed),
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
func runAblationMiniBatch(x *exhibit) (*Table, error) {
	t := x.table("mini-batch size sweep on lj (k-GraphPi)", "App", "mb=4", "mb=16", "mb=64", "mb=256", "mb=1024")
	appsList := []appSpec{appTC}
	if !x.Quick {
		appsList = append(appsList, app4CC)
	}
	var systems []system
	for _, mb := range []int{4, 16, 64, 256, 1024} {
		cfg := plainConfig(x.Nodes, x.Threads)
		cfg.MiniBatch = mb
		systems = append(systems, khuzdul(cfg, fmt.Sprintf("mb=%d", mb), apps.KGraphPi))
	}
	for _, a := range appsList {
		rs, err := x.row("lj", a, systems...)
		if err != nil {
			return nil, err
		}
		row := []string{a.name}
		for _, r := range rs {
			row = append(row, FmtDur(r.Elapsed))
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
func runAblationTransport(x *exhibit) (*Table, error) {
	t := x.table("in-flight window 1 vs 16 on the TCP fabric (k-GraphPi)",
		"App", "G.", "window 1", "window 16", "speedup", "peak in-flight")
	graphs := []string{"lj"}
	appsList := []appSpec{appTC}
	if !x.Quick {
		graphs = append(graphs, "uk")
		appsList = append(appsList, app4CC)
	}
	// Two sockets per machine so several workers fetch from the same remote
	// peer at once — the contention multiplexing is built to remove.
	var systems []system
	for _, window := range []int{1, 16} {
		cfg := plainConfig(x.Nodes, x.Threads)
		cfg.SequentialNodes, cfg.Sockets = false, 2
		cfg.Transport, cfg.InFlight = cluster.TransportTCP, window
		systems = append(systems, khuzdul(cfg, fmt.Sprintf("window %d", window), apps.KGraphPi))
	}
	for _, a := range appsList {
		for _, abbr := range graphs {
			rs, err := x.row(abbr, a, systems...)
			if err != nil {
				return nil, err
			}
			one, wide := rs[0], rs[1]
			t.AddRow(a.name, abbr, FmtDur(one.Elapsed), FmtDur(wide.Elapsed),
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
func runAblationOblivious(x *exhibit) (*Table, error) {
	t := x.table("pattern-aware vs pattern-oblivious 3/4-motif counting",
		"G.", "k", "aware", "oblivious", "slowdown", "subgraphs enumerated")
	graphs := []string{"mc"}
	ks := []int{3}
	if !x.Quick {
		graphs = append(graphs, "pt")
		ks = append(ks, 4)
	}
	threads := x.Threads * 2
	for _, abbr := range graphs {
		g, err := x.graph(abbr)
		if err != nil {
			return nil, err
		}
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
			for i, pat := range pats {
				row := fmt.Sprintf("induced %v on %s", pat, abbr)
				if err := x.check(row, "pattern-aware", awareCounts[i]); err != nil {
					return nil, err
				}
				if err := x.check(row, "pattern-oblivious", obl.Counts[i]); err != nil {
					return nil, err
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

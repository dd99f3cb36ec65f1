package harness

import (
	"fmt"
	"time"

	"khuzdul/internal/oblivious"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
	"khuzdul/internal/single"
)

// Ablation experiment beyond the paper's tables/figures: the pattern-aware
// vs pattern-oblivious method gap (§1). The design choices of §4.3
// (non-strict pipelining), §6 (the 64-embedding mini-batch) and the TCP
// in-flight window are constants; EXPERIMENTS.md records the measurements
// behind them.

func init() {
	register("ablation-oblivious", "Pattern-aware vs pattern-oblivious enumeration (extra)", runAblationOblivious)
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

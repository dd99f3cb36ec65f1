package harness

import (
	"fmt"
	"time"

	"khuzdul/internal/apps"
	"khuzdul/internal/cache"
	"khuzdul/internal/cluster"
	"khuzdul/internal/graph"
	"khuzdul/internal/single"
)

func init() {
	register("fig10", "Comparison with aDFS (TC)", runFig10)
	register("fig11", "Speedup from vertical computation sharing", runFig11)
	register("fig12", "Effect of horizontal data sharing", runFig12)
	register("fig13", "Inter-node scalability (lj)", runFig13)
	register("fig14", "Intra-node scalability and COST", runFig14)
	register("fig15", "Runtime breakdown: G-thinker vs k-Automine", runFig15)
	register("fig16", "Cache replacement policies", runFig16)
	register("fig17", "Varying cache size", runFig17)
	register("fig18", "Varying chunk size", runFig18)
	register("fig19", "Network bandwidth utilization", runFig19)
}

// runFig10 reproduces Figure 10: TC against the moving-computation-to-data
// baseline.
func runFig10(x *exhibit) (*Table, error) {
	t := x.table("TC vs aDFS-style baseline", "G.", "aDFS", "k-Automine", "k-GraphPi", "aDFS traffic", "Khuzdul traffic")
	graphs := []string{"sk", "ok"}
	if !x.Quick {
		graphs = append(graphs, "fr")
	}
	for _, abbr := range graphs {
		rs, err := x.row(abbr, appTC, aDFS(x.Nodes, x.Threads),
			khuzdul(cachedConfig(x.Nodes, x.Threads), "", apps.KAutomine, apps.KGraphPi))
		if err != nil {
			return nil, err
		}
		ra, rka, rkg := rs[0], rs[1], rs[2]
		t.AddRow(abbr, FmtDur(ra.Elapsed), FmtDur(rka.Elapsed), FmtDur(rkg.Elapsed),
			FmtBytes(ra.Summary.BytesSent), FmtBytes(rka.Summary.BytesSent))
	}
	t.AddNote("paper: Khuzdul systems beat aDFS by up to an order of magnitude with fewer cores; carried edge lists inflate aDFS traffic")
	return t, nil
}

// runFig11 reproduces Figure 11: the VCS ablation.
func runFig11(x *exhibit) (*Table, error) {
	t := x.table("vertical computation sharing speedup (k-GraphPi)", "App", "G.", "VCS on", "VCS off", "speedup")
	graphs := []string{"mc", "pt", "lj"}
	appsList := []appSpec{app4CC}
	if !x.Quick {
		graphs = append(graphs, "fr")
		appsList = append(appsList, app5CC)
	}
	// Both plans run on one cluster; only the compile option differs.
	vcs := system{[]string{"k-GraphPi (VCS on)", "k-GraphPi (VCS off)"}, func(g *graph.Graph, a appSpec) ([]cluster.Result, error) {
		out := make([]cluster.Result, 2)
		return out, withCluster(g, cachedConfig(x.Nodes, x.Threads), func(c *cluster.Cluster) error {
			for i, opts := range []apps.CompileOptions{{}, {DisableVCS: true}} {
				pl, err := apps.Compile(apps.KGraphPi, a.pattern(), g, opts)
				if err == nil {
					out[i], err = c.Count(pl)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
	}}
	for _, a := range appsList {
		for _, abbr := range graphs {
			rs, err := x.row(abbr, a, vcs)
			if err != nil {
				return nil, err
			}
			on, off := rs[0].Elapsed, rs[1].Elapsed
			t.AddRow(a.name, abbr, FmtDur(on), FmtDur(off), FmtSpeedup(off, on))
		}
	}
	t.AddNote("paper: 2.10x average (up to 4.44x); weakest on pt where extensions are already cheap")
	return t, nil
}

// runFig12 reproduces Figure 12: the HDS ablation (normalized traffic and
// communication time).
func runFig12(x *exhibit) (*Table, error) {
	t := x.table("horizontal data sharing (normalized to HDS off)",
		"App", "G.", "norm traffic", "norm comm time", "traffic on/off")
	graphs := []string{"mc", "pt", "lj"}
	appsList := []appSpec{app4CC}
	if !x.Quick {
		graphs = append(graphs, "fr")
		appsList = append(appsList, app5CC)
	}
	noHDS := plainConfig(x.Nodes, x.Threads)
	noHDS.DisableHDS = true
	for _, a := range appsList {
		for _, abbr := range graphs {
			rs, err := x.row(abbr, a, khuzdul(plainConfig(x.Nodes, x.Threads), "HDS on", apps.KGraphPi),
				khuzdul(noHDS, "HDS off", apps.KGraphPi))
			if err != nil {
				return nil, err
			}
			on, off := rs[0].Summary, rs[1].Summary
			t.AddRow(a.name, abbr,
				fmt.Sprintf("%.3f", ratio(on.BytesSent, off.BytesSent)),
				fmt.Sprintf("%.3f", ratio(uint64(on.Breakdown.Network), uint64(off.Breakdown.Network))),
				fmt.Sprintf("%s/%s", FmtBytes(on.BytesSent), FmtBytes(off.BytesSent)))
		}
	}
	t.AddNote("paper: HDS cuts traffic 70.5%% and critical-path communication 67.8%% on average; weakest on less-skewed pt")
	return t, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 1
	}
	return float64(a) / float64(b)
}

// runFig13 reproduces Figure 13: inter-node scalability on lj.
func runFig13(x *exhibit) (*Table, error) {
	t := x.table("inter-node scalability on lj (runtime per node count)",
		"App", "System", "1", "2", "4", "8", "8-node speedup")
	appsList := []appSpec{appTC, app3MC, app4CC}
	if !x.Quick {
		appsList = append(appsList, app5CC)
	}
	for _, a := range appsList {
		var kg, repl []time.Duration
		for _, nn := range []int{1, 2, 4, 8} {
			rs, err := x.row("lj", a, khuzdul(cachedConfig(nn, x.Threads), fmt.Sprintf("%d nodes", nn), apps.KGraphPi),
				replicatedGraphPi(nn, x.Threads))
			if err != nil {
				return nil, err
			}
			kg, repl = append(kg, rs[0].ModeledElapsed), append(repl, rs[1].ModeledElapsed)
		}
		t.AddRow(a.name, "k-GraphPi", FmtDur(kg[0]), FmtDur(kg[1]), FmtDur(kg[2]), FmtDur(kg[3]), FmtSpeedup(kg[0], kg[3]))
		t.AddRow(a.name, "GraphPi(repl)", FmtDur(repl[0]), FmtDur(repl[1]), FmtDur(repl[2]), FmtDur(repl[3]),
			FmtSpeedup(repl[0], repl[3]))
	}
	t.AddNote("paper: k-GraphPi reaches 6.77x average on 8 nodes vs GraphPi's 4.04x (coarse static partitioning limits the latter)")
	t.AddNote("modeled makespans (single-core host); GraphPi's static blocks expose hub imbalance, Khuzdul's dynamic mini-batches do not")
	return t, nil
}

// runFig14 reproduces Figure 14: intra-node scalability plus the COST
// metric (cores needed to beat the best single-thread implementation).
func runFig14(x *exhibit) (*Table, error) {
	t := x.table("intra-node scalability on lj + COST",
		"App", "1", "2", "4", "8", "16", "best 1-thread ref", "COST(cores)")
	appsList := []appSpec{appTC, app3MC}
	if !x.Quick {
		appsList = append(appsList, app4CC)
	}
	cores := []int{1, 2, 4, 8, 16}
	for _, a := range appsList {
		var times []time.Duration
		for _, nc := range cores {
			rs, err := x.row("lj", a, khuzdul(cachedConfig(1, nc), fmt.Sprintf("%d threads", nc), apps.KAutomine))
			if err != nil {
				return nil, err
			}
			times = append(times, rs[0].ModeledElapsed)
		}
		// Reference: fastest single-thread run among the single-machine
		// systems (the McSherry COST baseline).
		refs, err := x.row("lj", a, singleMachine(single.AutomineIH(), 1),
			singleMachine(single.PeregrineLike(), 1), singleMachine(single.PangolinLike(), 1))
		if err != nil {
			return nil, err
		}
		ref := time.Duration(1<<62 - 1)
		for _, r := range refs {
			ref = min(ref, r.ModeledElapsed)
		}
		cost := "-"
		for i, nc := range cores {
			if times[i] <= ref {
				cost = fmt.Sprintf("%d", nc)
				break
			}
		}
		t.AddRow(a.name, FmtDur(times[0]), FmtDur(times[1]), FmtDur(times[2]),
			FmtDur(times[3]), FmtDur(times[4]), FmtDur(ref), cost)
	}
	t.AddNote("paper: 10.7-11.6x speedup at 16 cores; COST of 6-8 cores")
	t.AddNote("modeled makespans; serial per-chunk scheduling bounds the speedup (Amdahl), like the paper's reserved communication cores")
	return t, nil
}

// runFig15 reproduces Figure 15: the runtime breakdown comparison.
func runFig15(x *exhibit) (*Table, error) {
	t := x.table("runtime breakdown (percent of measured category time)",
		"System", "App", "G.", "compute%", "network%", "scheduler%", "cache%")
	appsList := []appSpec{appTC, app4CC}
	if !x.Quick {
		appsList = []appSpec{appTC, app3MC, app4CC, app5CC}
	}
	for _, a := range appsList {
		for _, abbr := range []string{"mc", "pt", "lj"} {
			rs, err := x.row(abbr, a, gThinker(x.Nodes, x.Threads),
				khuzdul(cachedConfig(x.Nodes, x.Threads), "", apps.KAutomine))
			if err != nil {
				return nil, err
			}
			for i, name := range []string{"G-thinker", "k-Automine"} {
				cp, np, sp, ca := rs[i].Summary.Breakdown.Percentages()
				t.AddRow(name, a.name, abbr, pct(cp), pct(np), pct(sp), pct(ca))
			}
		}
	}
	t.AddNote("paper: G-thinker spends 41%%/45%% in cache/scheduler; k-Automine raises compute to 59%% average")
	return t, nil
}

func pct(v float64) string { return fmt.Sprintf("%.1f", v) }

// runFig16 reproduces Figure 16: cache replacement policy comparison.
func runFig16(x *exhibit) (*Table, error) {
	t := x.table("cache policies (k-GraphPi, normalized to STATIC)", "Workload", "Policy", "norm traffic", "norm runtime")
	workloads := []workload{{appTC, "lj"}, {app4CC, "lj"}}
	if !x.Quick {
		workloads = append(workloads, workload{app3MC, "lj"}, workload{app5CC, "lj"},
			workload{appTC, "fr"}, workload{app4CC, "fr"})
	}
	policies := []cache.Policy{cache.Static, cache.FIFO, cache.LIFO, cache.LRU, cache.MRU}
	var systems []system
	for _, pol := range policies {
		cfg := cachedConfig(x.Nodes, x.Threads)
		cfg.CachePolicy = pol
		systems = append(systems, khuzdul(cfg, pol.String(), apps.KGraphPi))
	}
	for _, w := range workloads {
		rs, err := x.row(w.abbr, w.a, systems...)
		if err != nil {
			return nil, err
		}
		for j, r := range rs {
			t.AddRow(w.String(), policies[j].String(),
				fmt.Sprintf("%.3f", ratio(r.Summary.BytesSent, rs[0].Summary.BytesSent)),
				fmt.Sprintf("%.3f", float64(r.Elapsed)/float64(rs[0].Elapsed)))
		}
	}
	t.AddNote("paper: STATIC sometimes loses a little traffic to FIFO/LRU yet wins runtime by ~10x — replacement bookkeeping dominates")
	return t, nil
}

// runFig17 reproduces Figure 17: the cache size sweep.
func runFig17(x *exhibit) (*Table, error) {
	t := x.table("cache size sweep (k-GraphPi, normalized to 1% cache)",
		"Workload", "cache/graph", "norm traffic", "hit rate%", "norm runtime")
	workloads := []workload{{appTC, "lj"}}
	if !x.Quick {
		workloads = append(workloads, workload{app4CC, "lj"}, workload{appTC, "uk"}, workload{app4CC, "fr"})
	}
	fracs := []float64{0.01, 0.05, 0.10, 0.20, 0.30, 0.50}
	var systems []system
	for _, f := range fracs {
		cfg := cachedConfig(x.Nodes, x.Threads)
		cfg.CacheFraction = f
		systems = append(systems, khuzdul(cfg, fmt.Sprintf("cache %.0f%%", 100*f), apps.KGraphPi))
	}
	for _, w := range workloads {
		rs, err := x.row(w.abbr, w.a, systems...)
		if err != nil {
			return nil, err
		}
		for j, r := range rs {
			t.AddRow(w.String(),
				fmt.Sprintf("%.0f%%", 100*fracs[j]),
				fmt.Sprintf("%.3f", ratio(r.Summary.BytesSent, rs[0].Summary.BytesSent)),
				fmt.Sprintf("%.1f", 100*r.Summary.CacheHitRate()),
				fmt.Sprintf("%.3f", float64(r.Elapsed)/float64(rs[0].Elapsed)))
		}
	}
	t.AddNote("paper: traffic falls and hit rate rises with size, runtime flattens past the point where communication is hidden")
	return t, nil
}

// runFig18 reproduces Figure 18: the chunk size sweep.
func runFig18(x *exhibit) (*Table, error) {
	t := x.table("chunk size sweep on lj (k-GraphPi, chunk capacity in embeddings)",
		"App", "2^6", "2^8", "2^10", "2^12", "2^14", "2^16")
	appsList := []appSpec{appTC, app4CC}
	if !x.Quick {
		appsList = []appSpec{appTC, app3MC, app4CC, app5CC}
	}
	var systems []system
	for _, cs := range []int{1 << 6, 1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16} {
		cfg := cachedConfig(x.Nodes, x.Threads)
		cfg.ChunkSize = cs
		systems = append(systems, khuzdul(cfg, fmt.Sprintf("chunk %d", cs), apps.KGraphPi))
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
	t.AddNote("paper: larger chunks help (more parallelism, more in-chunk reuse) until memory pressure; the trend should fall left to right")
	return t, nil
}

// runFig19 reproduces Figure 19: network bandwidth utilization.
func runFig19(x *exhibit) (*Table, error) {
	t := x.table("network utilization (k-GraphPi, reference bandwidth 1 GB/s aggregate)",
		"App", "G.", "traffic", "runtime", "utilization%")
	const refBandwidth = 1 << 30 // 1 GB/s reference aggregate fabric bandwidth
	graphs := []string{"mc", "pt", "lj"}
	appsList := []appSpec{appTC, app4CC}
	if !x.Quick {
		graphs = append(graphs, "fr")
		appsList = []appSpec{appTC, app3MC, app4CC, app5CC}
	}
	for _, a := range appsList {
		for _, abbr := range graphs {
			rs, err := x.row(abbr, a, khuzdul(cachedConfig(x.Nodes, x.Threads), "", apps.KGraphPi))
			if err != nil {
				return nil, err
			}
			r := rs[0]
			t.AddRow(a.name, abbr, FmtBytes(r.Summary.BytesSent), FmtDur(r.Elapsed),
				fmt.Sprintf("%.1f", 100*r.Summary.NetworkUtilization(refBandwidth, r.Elapsed)))
		}
	}
	t.AddNote("paper: mostly compute-bound, network under 50%% utilized; pt is the outlier with poor request locality")
	return t, nil
}

package harness

import (
	"fmt"

	"khuzdul/internal/apps"
	"khuzdul/internal/cluster"
	"khuzdul/internal/fsm"
	"khuzdul/internal/graph"
	"khuzdul/internal/gthinker"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
	"khuzdul/internal/replicated"
	"khuzdul/internal/single"
)

func init() {
	register(Experiment{ID: "table2", Title: "k-Automine/k-GraphPi vs GraphPi (replicated) vs G-thinker, distributed", Run: runTable2})
	register(Experiment{ID: "table3", Title: "Single-node k-Automine vs single-machine systems", Run: runTable3})
	register(Experiment{ID: "table4", Title: "FSM performance", Run: runTable4})
	register(Experiment{ID: "table5", Title: "Large-scale graphs (orientation on)", Run: runTable5})
	register(Experiment{ID: "table6", Title: "Static data cache: traffic and runtime", Run: runTable6})
	register(Experiment{ID: "table7", Title: "NUMA-aware support", Run: runTable7})
}

// runTable2 reproduces Table 2: the headline distributed comparison.
func runTable2(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:    "table2",
		Title: "distributed GPM comparison",
		Header: []string{"App", "G.", "k-Automine", "k-GraphPi", "GraphPi(repl)", "G-thinker",
			"kA/G-th", "kGP/G-th"},
	}
	graphs := []string{"mc", "pt", "lj"}
	appsList := []appSpec{appTC, app3MC, app4CC}
	if !o.Quick {
		graphs = append(graphs, "fr")
		appsList = append(appsList, app5CC)
	}
	for _, a := range appsList {
		for _, abbr := range graphs {
			if a.kind == "cc" && a.k == 5 && (abbr == "fr" || abbr == "uk") {
				// 5-CC on the biggest presets is disproportionately heavy;
				// the paper itself trims combinations (Table 2 omits uk/tw
				// for 5-CC).
				if abbr == "fr" && o.Scale > 0.5 {
					continue
				}
			}
			d, err := GetDataset(abbr)
			if err != nil {
				return nil, err
			}
			g := d.Generate(o.Scale)
			c, err := defaultCluster(g, o.Nodes, o.Threads)
			if err != nil {
				return nil, err
			}
			ka, err := runOnCluster(c, apps.KAutomine, a)
			if err != nil {
				c.Close()
				return nil, err
			}
			kg, err := runOnCluster(c, apps.KGraphPi, a)
			c.Close()
			if err != nil {
				return nil, err
			}
			var repl replicated.Result
			if a.kind == "mc" {
				repl, err = replicated.CountMotifs(g, a.k, replicated.Config{NumNodes: o.Nodes, ThreadsPerNode: o.Threads})
			} else {
				repl, err = replicated.Count(g, a.pattern(), replicated.Config{NumNodes: o.Nodes, ThreadsPerNode: o.Threads})
			}
			if err != nil {
				return nil, err
			}
			gth, err := runGThinker(g, a, gthinker.Config{
				NumNodes: o.Nodes, ThreadsPerNode: o.Threads, CacheBytes: g.SizeBytes() / 8,
				Sequential: true,
			})
			if err != nil {
				return nil, err
			}
			if ka.Count != kg.Count || ka.Count != repl.Count || ka.Count != gth.Count {
				return nil, fmt.Errorf("table2 %s/%s: count mismatch kA=%d kGP=%d repl=%d gth=%d",
					a.name, abbr, ka.Count, kg.Count, repl.Count, gth.Count)
			}
			t.AddRow(a.name, abbr,
				elapsedStr(ka.ModeledElapsed), elapsedStr(kg.ModeledElapsed),
				elapsedStr(repl.ModeledElapsed), elapsedStr(gth.ModeledElapsed),
				FmtSpeedup(gth.ModeledElapsed, ka.ModeledElapsed),
				FmtSpeedup(gth.ModeledElapsed, kg.ModeledElapsed))
		}
	}
	t.AddNote("paper: k-Automine/k-GraphPi beat G-thinker by 17.7x/20.3x average, and beat replicated GraphPi on all but tiny workloads")
	t.AddNote("runtimes are modeled cluster makespans from measured busy times (host has fewer cores than simulated workers; see DESIGN.md)")
	t.AddNote("datasets are scaled synthetic stand-ins (scale=%.2f, %d nodes)", o.Scale, o.Nodes)
	return t, nil
}

// runTable3 reproduces Table 3: single-node efficiency vs single-machine
// systems.
func runTable3(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:     "table3",
		Title:  "single-node comparison",
		Header: []string{"App", "G.", "k-Automine(1)", "AutomineIH", "Peregrine", "Pangolin"},
	}
	graphs := []string{"mc", "pt", "lj"}
	appsList := []appSpec{appTC, app3MC, app4CC}
	if !o.Quick {
		appsList = append(appsList, app5CC)
	}
	threads := o.Threads * 2 // single machine gets the whole node's workers
	singles := []*single.Engine{single.AutomineIH(), single.PeregrineLike(), single.PangolinLike()}
	for _, a := range appsList {
		for _, abbr := range graphs {
			d, err := GetDataset(abbr)
			if err != nil {
				return nil, err
			}
			g := d.Generate(o.Scale)
			c, err := defaultCluster(g, 1, threads)
			if err != nil {
				return nil, err
			}
			ka, err := runOnCluster(c, apps.KAutomine, a)
			c.Close()
			if err != nil {
				return nil, err
			}
			row := []string{a.name, abbr, elapsedStr(ka.Elapsed)}
			for _, sys := range singles {
				var res single.Result
				if a.kind == "mc" {
					_, res, err = sys.CountMotifs(g, a.k, threads)
				} else {
					res, err = sys.CountPattern(g, a.pattern(), false, threads)
				}
				if err != nil {
					return nil, err
				}
				if res.Count != ka.Count {
					return nil, fmt.Errorf("table3 %s/%s: %s count %d != k-Automine %d",
						a.name, abbr, sys.Name(), res.Count, ka.Count)
				}
				row = append(row, elapsedStr(res.Elapsed))
			}
			t.AddRow(row...)
		}
	}
	t.AddNote("paper: k-Automine is comparable to single-machine systems; Pangolin wins TC on skewed graphs via orientation")
	t.AddNote("only k-Automine counts TC's and 3-MC's triangle level against a mark set per parent; AutomineIH, Peregrine and Pangolin run plan.Executor, which never counts and so never probes")
	return t, nil
}

// runTable4 reproduces Table 4: FSM on one node and the full cluster.
func runTable4(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:    "table4",
		Title: "FSM performance (MNI support, patterns up to 3 edges)",
		Header: []string{"G.", "Threshold", "k-Automine(1)", "k-Automine(8)",
			"AutomineIH", "Peregrine", "Fractal-like(8)", "#frequent"},
	}
	graphs := []string{"mc"}
	if !o.Quick {
		graphs = append(graphs, "pt")
	}
	threads := o.Threads * 2
	for _, abbr := range graphs {
		d, err := GetDataset(abbr)
		if err != nil {
			return nil, err
		}
		g := d.Generate(o.Scale)
		n := uint64(g.NumVertices())
		// Thresholds scale with |V| the way the paper's do (3K-5K on 96K
		// vertices ≈ n/32..n/19); slightly higher fractions keep the
		// frequent set small enough for repeated cross-system runs.
		for _, th := range []uint64{n / 10, n / 12, n / 14} {
			cfg := fsm.Config{MinSupport: th, MaxEdges: 3, Style: plan.StyleAutomine}

			c1, err := cluster.New(g, cluster.Config{
				NumNodes: 1, ThreadsPerSocket: threads, SequentialNodes: true,
			})
			if err != nil {
				return nil, err
			}
			r1, err := fsm.Mine(c1, cfg)
			c1.Close()
			if err != nil {
				return nil, err
			}
			c8, err := cluster.New(g, cluster.Config{
				NumNodes: o.Nodes, ThreadsPerSocket: o.Threads, SequentialNodes: true,
			})
			if err != nil {
				return nil, err
			}
			r8, err := fsm.Mine(c8, cfg)
			c8.Close()
			if err != nil {
				return nil, err
			}
			rIH, err := fsm.MineSingle(g, cfg, threads)
			if err != nil {
				return nil, err
			}
			cfgP := cfg
			cfgP.Style = plan.StyleGraphPi
			rPer, err := fsm.MineSingle(g, cfgP, threads)
			if err != nil {
				return nil, err
			}
			// Fractal replicates the graph on every machine; its aggregate
			// parallelism is nodes × threads over one shared candidate loop.
			rFr, err := fsm.MineSingle(g, cfg, o.Nodes*o.Threads)
			if err != nil {
				return nil, err
			}
			if len(r1.Frequent) != len(r8.Frequent) || len(r1.Frequent) != len(rIH.Frequent) {
				return nil, fmt.Errorf("table4 %s th=%d: frequent-set size mismatch %d/%d/%d",
					abbr, th, len(r1.Frequent), len(r8.Frequent), len(rIH.Frequent))
			}
			t.AddRow(abbr, fmt.Sprintf("%d", th),
				elapsedStr(r1.ModeledElapsed), elapsedStr(r8.ModeledElapsed),
				elapsedStr(rIH.ModeledElapsed), elapsedStr(rPer.ModeledElapsed),
				elapsedStr(rFr.ModeledElapsed),
				fmt.Sprintf("%d", len(r1.Frequent)))
		}
	}
	t.AddNote("paper: distributed k-Automine beats all single-node systems and Fractal; single-node k-Automine pays per-pattern engine startup")
	t.AddNote("runtimes are modeled makespans from measured busy times (the host has fewer cores than simulated workers; see DESIGN.md)")
	t.AddNote("only k-Automine filters a labeled level's shared set by label once per parent run; AutomineIH, Peregrine and Fractal-like run plan.Executor, which tests every child's candidates")
	return t, nil
}

// runTable5 reproduces Table 5: TC and 4-CC on the massive-graph presets
// with the orientation optimization, 18 simulated nodes vs one big machine.
func runTable5(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:     "table5",
		Title:  "large-scale graphs (orientation preprocessing)",
		Header: []string{"G.", "|V|/|E|", "App", "k-Automine(18)", "AutomineIH(1)", "speedup"},
	}
	graphs := []string{"cl"}
	scale := o.Scale
	if o.Quick {
		scale = o.Scale / 4
	} else {
		graphs = append(graphs, "uk14", "wdc")
	}
	for _, abbr := range graphs {
		d, err := GetDataset(abbr)
		if err != nil {
			return nil, err
		}
		g := d.Generate(scale)
		dag := graph.Orient(g)
		for _, a := range []appSpec{appTC, app4CC} {
			c, err := cluster.New(dag, cluster.Config{
				NumNodes: 18, ThreadsPerSocket: o.Threads,
				CacheFraction: 0.04, CacheDegreeThreshold: 8,
			})
			if err != nil {
				return nil, err
			}
			k := 3
			if a.kind == "cc" {
				k = a.k
			}
			ka, err := apps.OrientedCliqueCount(c, k, apps.KAutomine)
			c.Close()
			if err != nil {
				return nil, err
			}
			ih, err := single.AutomineIHOriented().CountPattern(g, pattern.Clique(k), false, o.Threads*2)
			if err != nil {
				return nil, err
			}
			if ka.Count != ih.Count {
				return nil, fmt.Errorf("table5 %s/%s: %d != %d", abbr, a.name, ka.Count, ih.Count)
			}
			t.AddRow(abbr,
				fmt.Sprintf("%s/%s", FmtCount(uint64(g.NumVertices())), FmtCount(g.NumEdges())),
				a.name, elapsedStr(ka.ModeledElapsed), elapsedStr(ih.ModeledElapsed),
				FmtSpeedup(ih.ModeledElapsed, ka.ModeledElapsed))
		}
	}
	t.AddNote("paper: k-Automine on 18 nodes beats a 64-core 1TB machine by 3.2x average; graphs exceed single-node memory there")
	t.AddNote("modeled makespans: 18 nodes with T threads vs one machine with 2T threads; the paper's additional memory-capacity advantage cannot be shown at laptop scale")
	return t, nil
}

// runTable6 reproduces Table 6: the static cache's traffic and runtime
// effect.
func runTable6(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:     "table6",
		Title:  "static data cache effect (k-GraphPi)",
		Header: []string{"App", "G.", "traffic(cache)", "traffic(none)", "time(cache)", "time(none)"},
	}
	type combo struct {
		a    appSpec
		abbr string
	}
	combos := []combo{{appTC, "pt"}, {appTC, "lj"}, {app4CC, "pt"}, {app4CC, "lj"}}
	if !o.Quick {
		combos = append(combos, combo{appTC, "uk"}, combo{appTC, "fr"},
			combo{app4CC, "fr"}, combo{app5CC, "pt"}, combo{app5CC, "lj"})
	}
	for _, cb := range combos {
		d, err := GetDataset(cb.abbr)
		if err != nil {
			return nil, err
		}
		g := d.Generate(o.Scale)
		withCache, err := defaultCluster(g, o.Nodes, o.Threads)
		if err != nil {
			return nil, err
		}
		rc, err := runOnCluster(withCache, apps.KGraphPi, cb.a)
		withCache.Close()
		if err != nil {
			return nil, err
		}
		noCache, err := cluster.New(g, cluster.Config{
			NumNodes: o.Nodes, ThreadsPerSocket: o.Threads, ChunkSize: experimentChunkSize,
			SequentialNodes: true,
		})
		if err != nil {
			return nil, err
		}
		rn, err := runOnCluster(noCache, apps.KGraphPi, cb.a)
		noCache.Close()
		if err != nil {
			return nil, err
		}
		if rc.Count != rn.Count {
			return nil, fmt.Errorf("table6 %s/%s: cache changed count", cb.a.name, cb.abbr)
		}
		t.AddRow(cb.a.name, cb.abbr,
			FmtBytes(rc.Summary.BytesSent), FmtBytes(rn.Summary.BytesSent),
			elapsedStr(rc.Elapsed), elapsedStr(rn.Elapsed))
	}
	t.AddNote("paper: cache cuts traffic sharply (57.7TB→487GB for uk-TC); runtime gains appear where communication is not already hidden")
	return t, nil
}

// runTable7 reproduces Table 7: NUMA-aware support on a single node.
func runTable7(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:     "table7",
		Title:  "NUMA-aware support (single node, 2 sockets)",
		Header: []string{"App", "G.", "with NUMA", "no NUMA", "speedup"},
	}
	graphs := []string{"pt", "lj"}
	appsList := []appSpec{app4CC}
	if !o.Quick {
		graphs = append(graphs, "fr")
		appsList = append(appsList, app5CC)
	}
	for _, a := range appsList {
		for _, abbr := range graphs {
			d, err := GetDataset(abbr)
			if err != nil {
				return nil, err
			}
			g := d.Generate(o.Scale)
			// Same total worker count: 2 sockets × T vs 1 socket × 2T.
			numa, err := cluster.New(g, cluster.Config{
				NumNodes: 1, Sockets: 2, ThreadsPerSocket: o.Threads,
				CacheFraction: 0.1, CacheDegreeThreshold: 8,
			})
			if err != nil {
				return nil, err
			}
			rn, err := runOnCluster(numa, apps.KGraphPi, a)
			numa.Close()
			if err != nil {
				return nil, err
			}
			flat, err := cluster.New(g, cluster.Config{
				NumNodes: 1, Sockets: 1, ThreadsPerSocket: 2 * o.Threads,
				CacheFraction: 0.1, CacheDegreeThreshold: 8,
			})
			if err != nil {
				return nil, err
			}
			rf, err := runOnCluster(flat, apps.KGraphPi, a)
			flat.Close()
			if err != nil {
				return nil, err
			}
			if rn.Count != rf.Count {
				return nil, fmt.Errorf("table7 %s/%s: NUMA changed count", a.name, abbr)
			}
			t.AddRow(a.name, abbr, elapsedStr(rn.Elapsed), elapsedStr(rf.Elapsed),
				FmtSpeedup(rf.Elapsed, rn.Elapsed))
		}
	}
	t.AddNote("paper: 1.26x average gain; here the measurable effect is reduced shared-structure contention plus accounted cross-socket traffic (%s)", "see DESIGN.md")
	return t, nil
}

package harness

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"

	"khuzdul/internal/apps"
	"khuzdul/internal/cluster"
	"khuzdul/internal/fsm"
	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
	"khuzdul/internal/single"
)

func init() {
	register("table2", "k-Automine/k-GraphPi vs GraphPi (replicated) vs G-thinker, distributed", runTable2)
	register("table3", "Single-node k-Automine vs single-machine systems", runTable3)
	register("table4", "FSM performance", runTable4)
	register("table5", "Large-scale graphs (orientation on)", runTable5)
	register("table6", "Static data cache: traffic and runtime", runTable6)
	register("table7", "NUMA-aware support", runTable7)
}

// runTable2 reproduces Table 2: the headline distributed comparison.
func runTable2(x *exhibit) (*Table, error) {
	t := x.table("distributed GPM comparison",
		"App", "G.", "k-Automine", "k-GraphPi", "GraphPi(repl)", "G-thinker", "kA/G-th", "kGP/G-th")
	graphs := []string{"mc", "pt", "lj"}
	appsList := []appSpec{appTC, app3MC, app4CC}
	if !x.Quick {
		graphs = append(graphs, "fr")
		appsList = append(appsList, app5CC)
	}
	for _, a := range appsList {
		for _, abbr := range graphs {
			// 5-CC on the biggest preset is disproportionately heavy; the
			// paper itself trims combinations (Table 2 omits uk/tw for 5-CC).
			if a == app5CC && abbr == "fr" && x.Scale > 0.5 {
				continue
			}
			rs, err := x.row(abbr, a,
				khuzdul(cachedConfig(x.Nodes, x.Threads), "", apps.KAutomine, apps.KGraphPi),
				replicatedGraphPi(x.Nodes, x.Threads), gThinker(x.Nodes, x.Threads))
			if err != nil {
				return nil, err
			}
			ka, kg, repl, gth := rs[0].ModeledElapsed, rs[1].ModeledElapsed, rs[2].ModeledElapsed, rs[3].ModeledElapsed
			t.AddRow(a.name, abbr, FmtDur(ka), FmtDur(kg), FmtDur(repl), FmtDur(gth),
				FmtSpeedup(gth, ka), FmtSpeedup(gth, kg))
		}
	}
	t.AddNote("paper: k-Automine/k-GraphPi beat G-thinker by 17.7x/20.3x average, and beat replicated GraphPi on all but tiny workloads")
	t.AddNote("runtimes are modeled cluster makespans from measured busy times (host has fewer cores than simulated workers; see DESIGN.md)")
	t.AddNote("datasets are scaled synthetic stand-ins (scale=%.2f, %d nodes)", x.Scale, x.Nodes)
	return t, nil
}

// runTable3 reproduces Table 3: single-node efficiency vs single-machine
// systems.
func runTable3(x *exhibit) (*Table, error) {
	t := x.table("single-node comparison", "App", "G.", "k-Automine(1)", "AutomineIH", "Peregrine", "Pangolin")
	appsList := []appSpec{appTC, app3MC, app4CC}
	if !x.Quick {
		appsList = append(appsList, app5CC)
	}
	threads := x.Threads * 2 // single machine gets the whole node's workers
	systems := []system{khuzdul(cachedConfig(1, threads), "", apps.KAutomine)}
	for _, e := range []*single.Engine{single.AutomineIH(), single.PeregrineLike(), single.PangolinLike()} {
		systems = append(systems, singleMachine(e, threads))
	}
	for _, a := range appsList {
		for _, abbr := range []string{"mc", "pt", "lj"} {
			rs, err := x.row(abbr, a, systems...)
			if err != nil {
				return nil, err
			}
			row := []string{a.name, abbr}
			for _, r := range rs {
				row = append(row, FmtDur(r.Elapsed))
			}
			t.AddRow(row...)
		}
	}
	t.AddNote("paper: k-Automine is comparable to single-machine systems; Pangolin wins TC on skewed graphs via orientation")
	t.AddNote("only k-Automine counts TC's and 3-MC's triangle level against a mark set per parent; AutomineIH, Peregrine and Pangolin run plan.Executor, which never counts and so never probes")
	return t, nil
}

// runTable4 reproduces Table 4: FSM on one node and the full cluster. Every
// system's frequent set, canonical code to MNI support, is cross-checked.
func runTable4(x *exhibit) (*Table, error) {
	t := x.table("FSM performance (MNI support, patterns up to 3 edges)",
		"G.", "Threshold", "k-Automine(1)", "k-Automine(8)", "AutomineIH", "Peregrine", "Fractal-like(8)", "#frequent")
	graphs := []string{"mc"}
	if !x.Quick {
		graphs = append(graphs, "pt")
	}
	threads := x.Threads * 2
	for _, abbr := range graphs {
		g, err := x.graph(abbr)
		if err != nil {
			return nil, err
		}
		n := uint64(g.NumVertices())
		// Thresholds scale with |V| the way the paper's do (3K-5K on 96K
		// vertices ≈ n/32..n/19); slightly higher fractions keep the
		// frequent set small enough for repeated cross-system runs.
		for _, th := range []uint64{n / 10, n / 12, n / 14} {
			cfg := fsm.Config{MinSupport: th, MaxEdges: 3, Style: plan.StyleAutomine}
			peregrine := cfg
			peregrine.Style = plan.StyleGraphPi
			onCluster := func(cc cluster.Config) func() (fsm.Result, error) {
				return func() (r fsm.Result, err error) {
					err = withCluster(g, cc, func(c *cluster.Cluster) (err error) { r, err = fsm.Mine(c, cfg); return err })
					return r, err
				}
			}
			mineSingle := func(fc fsm.Config, threads int) func() (fsm.Result, error) {
				return func() (fsm.Result, error) { return fsm.MineSingle(g, fc, threads) }
			}
			row := []string{abbr, fmt.Sprintf("%d", th)}
			var frequent int
			for _, s := range []struct {
				label string
				mine  func() (fsm.Result, error)
			}{
				{"k-Automine(1)", onCluster(plainConfig(1, threads))},
				{"k-Automine(8)", onCluster(plainConfig(x.Nodes, x.Threads))},
				{"AutomineIH", mineSingle(cfg, threads)},
				{"Peregrine", mineSingle(peregrine, threads)},
				// Fractal replicates the graph on every machine; its aggregate
				// parallelism is nodes × threads over one shared candidate loop.
				{"Fractal-like(8)", mineSingle(cfg, x.Nodes*x.Threads)},
			} {
				r, err := s.mine()
				if err == nil {
					err = x.check(fmt.Sprintf("FSM th=%d on %s", th, abbr), s.label, frequentSet(r))
				}
				if err != nil {
					return nil, err
				}
				row = append(row, FmtDur(r.ModeledElapsed))
				frequent = len(r.Frequent)
			}
			t.AddRow(append(row, fmt.Sprintf("%d", frequent))...)
		}
	}
	t.AddNote("paper: distributed k-Automine beats all single-node systems and Fractal; single-node k-Automine pays per-pattern engine startup")
	t.AddNote("runtimes are modeled makespans from measured busy times (the host has fewer cores than simulated workers; see DESIGN.md)")
	t.AddNote("only k-Automine filters a labeled level's shared set by label once per parent run; AutomineIH, Peregrine and Fractal-like run plan.Executor, which tests every child's candidates")
	return t, nil
}

// frequentSet is the answer Table 4 cross-checks: the size of an FSM
// result's frequent set and a digest of its sorted canonical code → MNI
// support pairs, so a failure stays one line however many patterns differ.
func frequentSet(r fsm.Result) string {
	pairs := make([]string, len(r.Frequent))
	for i, fp := range r.Frequent {
		pairs[i] = fmt.Sprintf("%q:%d", pattern.CanonicalCode(fp.Pattern), fp.Support)
	}
	sort.Strings(pairs)
	return fmt.Sprintf("%d patterns (sha256 %x)", len(pairs), sha256.Sum256([]byte(strings.Join(pairs, "\n"))))
}

// runTable5 reproduces Table 5: TC and 4-CC on the massive-graph presets
// with the orientation optimization, 18 simulated nodes vs one big machine.
func runTable5(x *exhibit) (*Table, error) {
	t := x.table("large-scale graphs (orientation preprocessing)",
		"G.", "|V|/|E|", "App", "k-Automine(18)", "AutomineIH(1)", "speedup")
	graphs := []string{"cl"}
	if x.Quick {
		x.Scale /= 4
	} else {
		graphs = append(graphs, "uk14", "wdc")
	}
	cfg := plainConfig(18, x.Threads)
	cfg.CacheFraction = 0.04
	cfg.CacheDegreeThreshold = 8
	for _, abbr := range graphs {
		g, err := x.graph(abbr)
		if err != nil {
			return nil, err
		}
		dag := graph.Orient(g)
		oriented := one("k-Automine(18)", func(_ *graph.Graph, a appSpec) (r cluster.Result, err error) {
			err = withCluster(dag, cfg, func(c *cluster.Cluster) (err error) {
				r, err = apps.OrientedCliqueCount(c, a.pattern().NumVertices(), apps.KAutomine)
				return err
			})
			return r, err
		})
		for _, a := range []appSpec{appTC, app4CC} {
			rs, err := x.row(abbr, a, oriented, singleMachine(single.AutomineIHOriented(), x.Threads*2))
			if err != nil {
				return nil, err
			}
			ka, ih := rs[0].ModeledElapsed, rs[1].ModeledElapsed
			t.AddRow(abbr, fmt.Sprintf("%s/%s", FmtCount(uint64(g.NumVertices())), FmtCount(g.NumEdges())),
				a.name, FmtDur(ka), FmtDur(ih), FmtSpeedup(ih, ka))
		}
	}
	t.AddNote("paper: k-Automine on 18 nodes beats a 64-core 1TB machine by 3.2x average; graphs exceed single-node memory there")
	t.AddNote("modeled makespans: 18 nodes with T threads vs one machine with 2T threads; the paper's additional memory-capacity advantage cannot be shown at laptop scale")
	return t, nil
}

// runTable6 reproduces Table 6: the static cache's traffic and runtime
// effect.
func runTable6(x *exhibit) (*Table, error) {
	t := x.table("static data cache effect (k-GraphPi)",
		"App", "G.", "traffic(cache)", "traffic(none)", "time(cache)", "time(none)")
	workloads := []workload{{appTC, "pt"}, {appTC, "lj"}, {app4CC, "pt"}, {app4CC, "lj"}}
	if !x.Quick {
		workloads = append(workloads, workload{appTC, "uk"}, workload{appTC, "fr"},
			workload{app4CC, "fr"}, workload{app5CC, "pt"}, workload{app5CC, "lj"})
	}
	noCache := cachedConfig(x.Nodes, x.Threads)
	noCache.CacheFraction, noCache.CacheDegreeThreshold = 0, 0
	for _, w := range workloads {
		rs, err := x.row(w.abbr, w.a, khuzdul(cachedConfig(x.Nodes, x.Threads), "", apps.KGraphPi),
			khuzdul(noCache, "no cache", apps.KGraphPi))
		if err != nil {
			return nil, err
		}
		rc, rn := rs[0], rs[1]
		t.AddRow(w.a.name, w.abbr,
			FmtBytes(rc.Summary.BytesSent), FmtBytes(rn.Summary.BytesSent),
			FmtDur(rc.Elapsed), FmtDur(rn.Elapsed))
	}
	t.AddNote("paper: cache cuts traffic sharply (57.7TB→487GB for uk-TC); runtime gains appear where communication is not already hidden")
	return t, nil
}

// runTable7 reproduces Table 7: NUMA-aware support on a single node.
func runTable7(x *exhibit) (*Table, error) {
	t := x.table("NUMA-aware support (single node, 2 sockets)", "App", "G.", "with NUMA", "no NUMA", "speedup")
	graphs := []string{"pt", "lj"}
	appsList := []appSpec{app4CC}
	if !x.Quick {
		graphs = append(graphs, "fr")
		appsList = append(appsList, app5CC)
	}
	// Same total worker count: 2 sockets × T vs 1 socket × 2T.
	numa := cachedConfig(1, x.Threads)
	numa.ChunkSize, numa.SequentialNodes = 0, false
	flat := numa
	numa.Sockets = 2
	flat.Sockets, flat.ThreadsPerSocket = 1, 2*x.Threads
	for _, a := range appsList {
		for _, abbr := range graphs {
			rs, err := x.row(abbr, a, khuzdul(numa, "NUMA", apps.KGraphPi), khuzdul(flat, "flat", apps.KGraphPi))
			if err != nil {
				return nil, err
			}
			rn, rf := rs[0].Elapsed, rs[1].Elapsed
			t.AddRow(a.name, abbr, FmtDur(rn), FmtDur(rf), FmtSpeedup(rf, rn))
		}
	}
	t.AddNote("paper: 1.26x average gain; here the measurable effect is reduced shared-structure contention plus accounted cross-socket traffic (%s)", "see DESIGN.md")
	return t, nil
}

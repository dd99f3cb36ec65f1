// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§7) at a reduced scale. Each BenchmarkTableN/BenchmarkFigN
// runs the corresponding harness experiment end-to-end — workload
// generation, all systems under comparison, result verification — and
// reports the rendered table through -v logging. For full-scale runs use
// cmd/khuzdul-bench.
package khuzdul_test

import (
	"testing"

	"khuzdul"
	"khuzdul/internal/apps"
	"khuzdul/internal/cluster"
	"khuzdul/internal/harness"
)

// benchOpts are the reduced-scale settings used by the benchmark suite.
func benchOpts(scale float64) harness.Options {
	return harness.Options{Scale: scale, Nodes: 8, Threads: 2, Quick: true}
}

// runExperiment executes one harness experiment b.N times.
func runExperiment(b *testing.B, id string, scale float64) {
	b.Helper()
	e, err := harness.GetExperiment(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts(scale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab.String())
			b.ReportMetric(float64(len(tab.Rows)), "rows")
		}
	}
}

// BenchmarkTable2 regenerates Table 2: k-Automine/k-GraphPi vs GraphPi
// (replicated) vs G-thinker on the distributed cluster.
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2", 0.4) }

// BenchmarkTable3 regenerates Table 3: single-node comparison against
// AutomineIH, Peregrine-like and Pangolin-like engines.
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3", 0.4) }

// BenchmarkTable4 regenerates Table 4: FSM across thresholds and systems.
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4", 0.25) }

// BenchmarkTable5 regenerates Table 5: massive-graph TC and 4-CC with
// orientation on an 18-node cluster.
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5", 0.5) }

// BenchmarkTable6 regenerates Table 6: static-cache traffic and runtime.
func BenchmarkTable6(b *testing.B) { runExperiment(b, "table6", 0.4) }

// BenchmarkTable7 regenerates Table 7: NUMA-aware support.
func BenchmarkTable7(b *testing.B) { runExperiment(b, "table7", 0.4) }

// BenchmarkFig10 regenerates Figure 10: comparison with the aDFS-style
// moving-computation-to-data baseline.
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10", 0.3) }

// BenchmarkFig11 regenerates Figure 11: vertical computation sharing.
func BenchmarkFig11(b *testing.B) { runExperiment(b, "fig11", 0.4) }

// BenchmarkFig12 regenerates Figure 12: horizontal data sharing.
func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12", 0.4) }

// BenchmarkFig13 regenerates Figure 13: inter-node scalability.
func BenchmarkFig13(b *testing.B) { runExperiment(b, "fig13", 0.4) }

// BenchmarkFig14 regenerates Figure 14: intra-node scalability and COST.
func BenchmarkFig14(b *testing.B) { runExperiment(b, "fig14", 0.4) }

// BenchmarkFig15 regenerates Figure 15: runtime breakdown of G-thinker vs
// k-Automine.
func BenchmarkFig15(b *testing.B) { runExperiment(b, "fig15", 0.3) }

// BenchmarkFig16 regenerates Figure 16: cache replacement policies.
func BenchmarkFig16(b *testing.B) { runExperiment(b, "fig16", 0.4) }

// BenchmarkFig17 regenerates Figure 17: cache size sweep.
func BenchmarkFig17(b *testing.B) { runExperiment(b, "fig17", 0.4) }

// BenchmarkFig18 regenerates Figure 18: chunk size sweep.
func BenchmarkFig18(b *testing.B) { runExperiment(b, "fig18", 0.4) }

// BenchmarkFig19 regenerates Figure 19: network bandwidth utilization.
func BenchmarkFig19(b *testing.B) { runExperiment(b, "fig19", 0.4) }

// BenchmarkAblationOblivious measures the pattern-aware vs pattern-oblivious
// enumeration gap (the paper's §1 motivation).
func BenchmarkAblationOblivious(b *testing.B) { runExperiment(b, "ablation-oblivious", 0.3) }

// BenchmarkAblationChaos measures the resilience subsystem: retry/deadline
// overhead when healthy, and exact-count recovery under injected transient
// errors and a permanent node crash.
func BenchmarkAblationChaos(b *testing.B) { runExperiment(b, "ablation-chaos", 0.3) }

// BenchmarkEngineTriangles measures end-to-end engine throughput for
// triangle counting on a fixed skewed graph (not tied to a paper exhibit;
// useful for regression tracking).
func BenchmarkEngineTriangles(b *testing.B) {
	g := khuzdul.RMAT(20_000, 150_000, 5)
	eng, err := khuzdul.Open(g, khuzdul.Config{NumNodes: 4, ThreadsPerSocket: 2, CacheFraction: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Triangles()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Count), "triangles")
		}
	}
}

// BenchmarkEngineCliquesOriented measures oriented triangle counting, the
// Table 5 inner loop: symmetry breaking is replaced by the DAG orientation.
func BenchmarkEngineCliquesOriented(b *testing.B) {
	dag := khuzdul.Orient(khuzdul.RMAT(30_000, 250_000, 5))
	c, err := cluster.New(dag, cluster.Config{NumNodes: 4, ThreadsPerSocket: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := apps.OrientedCliqueCount(c, 3, apps.KAutomine); err != nil {
			b.Fatal(err)
		}
	}
}

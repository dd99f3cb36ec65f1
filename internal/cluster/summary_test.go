package cluster

import (
	"reflect"
	"testing"

	"khuzdul/internal/fault"
	"khuzdul/internal/graph"
	"khuzdul/internal/leakcheck"
	"khuzdul/internal/metrics"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// summaryExempt names the Summary fields no run writes. KernelPivot is always
// 0: the engine never selects the pivot kernel, and the field stays only
// because the benchmark's trace reads it.
var summaryExempt = map[string]bool{"KernelPivot": true}

// TestSummaryEveryCounterMoves is the written half of the metrics surface:
// every Summary field — each per-node counter and each breakdown category —
// must read non-zero in the merged Summary of a few short runs that between
// them take every path a counter sits on. A counter whose only write is
// dropped reads 0 here. (TestSummarizeCoversEveryNodeCounter in metrics is
// the surfaced half: every node counter reaches the Summary.)
func TestSummaryEveryCounterMoves(t *testing.T) {
	leakcheck.Check(t)
	var merged metrics.Summary
	count := func(c *Cluster, g *graph.Graph, pat *pattern.Pattern) {
		t.Helper()
		pl := mustCompile(t, pat, g, plan.Options{Style: plan.StyleGraphPi})
		res, err := c.Count(pl)
		if err != nil {
			t.Fatal(err)
		}
		if want := plan.CountGraph(pl, g); res.Count != want {
			t.Fatalf("%d matches, want %d", res.Count, want)
		}
		merged.Merge(res.Summary)
	}

	// TCP with corrupted and severed exchanges, two sockets per node and a
	// static cache: the wire, cross-socket and cache counters. The triangle
	// probes, the diamond reads its stored intersections through parent
	// pointers, and the 4-clique runs the dense pass.
	g := graph.RMAT(600, 4800, 0.57, 0.143, 0.143, 20230325)
	cfg := chaosConfig(&fault.Profile{Seed: 19, CorruptRate: 0.05, DropRate: 0.05}, TransportTCP)
	cfg.Sockets, cfg.CacheFraction, cfg.CacheDegreeThreshold = 2, 0.10, 8
	c := mustCluster(t, g, cfg)
	for _, pat := range []*pattern.Pattern{pattern.Triangle(), pattern.Diamond(), pattern.Clique(4)} {
		count(c, g, pat)
	}

	// Transient errors and a crash: retries, timeouts, the breaker and
	// recovery.
	small := graph.RMATDefault(150, 900, 47)
	crash := &fault.Profile{Seed: 11, ErrorRate: 0.05, Crashes: []fault.Crash{{Node: 1, After: 10}}}
	count(mustCluster(t, small, chaosConfig(crash, TransportChan)), small, pattern.Clique(4))

	// A 60x straggler under speculation: ranges re-executed, and a win for
	// one of them. Which copy finishes first is a race, so the straggler runs
	// again until a speculative copy wins, a few times at most.
	cfg = chaosConfig(&fault.Profile{Seed: 37, Slowdowns: []fault.Slowdown{{Node: 1, Factor: 60}}}, TransportChan)
	cfg.Speculate = true
	slow := mustCluster(t, small, cfg)
	for i := 0; i < 5 && merged.SpeculationWins == 0; i++ {
		count(slow, small, pattern.Clique(4))
	}

	for _, name := range zeroFields(reflect.ValueOf(merged), "") {
		t.Errorf("Summary.%s is 0 after every run: no path writes it", name)
	}
}

// zeroFields lists the exported numeric fields under v that read 0, by dotted
// path, descending into nested structs and skipping summaryExempt.
func zeroFields(v reflect.Value, prefix string) []string {
	var out []string
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() || summaryExempt[f.Name] {
			continue
		}
		fv := v.Field(i)
		if fv.Kind() == reflect.Struct {
			out = append(out, zeroFields(fv, prefix+f.Name+".")...)
		} else if fv.IsZero() {
			out = append(out, prefix+f.Name)
		}
	}
	return out
}

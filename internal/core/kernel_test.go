package core_test

import (
	"testing"

	"khuzdul/internal/core"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"

	"khuzdul/internal/graph"
)

// TestEngineKernelCountersFlow drives the full counter path — dispatcher →
// scratch → extendRound drain → metrics.Node → Summarize — and checks the
// pairwise kernels stay exact and reach the ledger under the distributed
// engine.
func TestEngineKernelCountersFlow(t *testing.T) {
	g := graph.RMATDefault(120, 900, 13)

	// clique(4) without VCS recomputes its 3-list intersection pairwise.
	cl := plan.MustCompile(pattern.Clique(4),
		plan.Options{Style: plan.StyleGraphPi, DisableVCS: true, Stats: plan.StatsOf(g)})
	want := plan.BruteForceCount(g, pattern.Clique(4), false)
	got, met := runCluster(t, g, cl, 2, core.Config{Threads: 2})
	if got != want {
		t.Fatalf("clique(4) without VCS: engine %d, brute force %d", got, want)
	}
	if s := met.Summarize(); s.KernelMerge+s.KernelGallop == 0 {
		t.Errorf("pairwise kernels never counted: %+v", s)
	}

	// The ledger is the dispatcher's, not the sink's: a count-only triangle
	// run (runCluster's CountSink, last level counted) and a materializing
	// one enter a kernel on the same calls. The count-only run's last level is
	// probed (plan.Level.Probe): a child probing its siblings' mark set enters
	// KernelProbe, or KernelGallop where the materializing run gallops too, in
	// place of the merge or gallop the materializing run enters there. So the
	// totals agree, neither sorted kernel runs more often under counting, and
	// only the count-only run probes.
	tri := plan.MustCompile(pattern.Triangle(),
		plan.Options{Style: plan.StyleGraphPi, DisableVCS: true, Stats: plan.StatsOf(g)})
	if !tri.Level(2).Probe() {
		t.Fatalf("triangle's last level not probed: %v", tri)
	}
	wantTri := plan.BruteForceCount(g, pattern.Triangle(), false)
	cfg := core.Config{Threads: 1}
	counted, cm := runClusterSink(t, g, tri, 1, cfg, sinkCount)
	built, bm := runClusterSink(t, g, tri, 1, cfg, sinkBuild)
	if counted != wantTri || built != wantTri {
		t.Fatalf("triangle: count-only %d, materializing %d, brute force %d", counted, built, wantTri)
	}
	c, b := cm.Summarize(), bm.Summarize()
	if c.KernelMerge+c.KernelGallop+c.KernelProbe == 0 {
		t.Error("count-only run entered nothing in the kernel ledger")
	}
	if c.KernelMerge+c.KernelGallop+c.KernelProbe != b.KernelMerge+b.KernelGallop ||
		c.KernelMerge > b.KernelMerge || c.KernelGallop > b.KernelGallop {
		t.Errorf("ledger differs: count-only merge/gallop/probe %d/%d/%d, materializing merge/gallop %d/%d",
			c.KernelMerge, c.KernelGallop, c.KernelProbe, b.KernelMerge, b.KernelGallop)
	}
	if c.KernelProbe == 0 || b.KernelProbe != 0 {
		t.Errorf("probe kernels: count-only %d, materializing %d; want some, and none", c.KernelProbe, b.KernelProbe)
	}
}

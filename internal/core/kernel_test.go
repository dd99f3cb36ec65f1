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
// specialized kernels both fire and stay exact under the distributed engine.
func TestEngineKernelCountersFlow(t *testing.T) {
	g := graph.RMATDefault(120, 900, 13)

	// Pivot: clique(4) without VCS recomputes its 3-list intersection, which
	// the compiler hints HintPivot.
	cl := plan.MustCompile(pattern.Clique(4),
		plan.Options{Style: plan.StyleGraphPi, DisableVCS: true, Stats: plan.StatsOf(g)})
	want := plan.BruteForceCount(g, pattern.Clique(4), false)
	got, met := runCluster(t, g, cl, 2, core.Config{Threads: 2})
	if got != want {
		t.Fatalf("clique(4) with pivot kernel: engine %d, brute force %d", got, want)
	}
	if s := met.Summarize(); s.KernelPivot == 0 {
		t.Errorf("no pivot invocations surfaced in metrics: %+v", s)
	}

	// Bitmap: a forced tiny hub threshold promotes every keyed list.
	tri := plan.MustCompile(pattern.Triangle(),
		plan.Options{Style: plan.StyleGraphPi, DisableVCS: true, Stats: plan.StatsOf(g)})
	wantTri := plan.BruteForceCount(g, pattern.Triangle(), false)
	gotTri, met2 := runCluster(t, g, tri, 2, core.Config{Threads: 2, HubThreshold: 1})
	if gotTri != wantTri {
		t.Fatalf("triangle with forced bitmap kernel: engine %d, brute force %d", gotTri, wantTri)
	}
	if s2 := met2.Summarize(); s2.KernelBitmap == 0 {
		t.Errorf("no bitmap invocations surfaced in metrics: %+v", s2)
	}

	// A threshold above every degree disables hub promotion outright.
	_, met3 := runCluster(t, g, tri, 1, core.Config{Threads: 1, HubThreshold: 1 << 30})
	if s3 := met3.Summarize(); s3.KernelBitmap != 0 {
		t.Errorf("bitmap fired with threshold above max degree: %+v", s3)
	}
	if s3 := met3.Summarize(); s3.KernelMerge+s3.KernelGallop == 0 {
		t.Errorf("pairwise kernels never counted: %+v", met3.Summarize())
	}

	// The ledger is the dispatcher's, not the sink's: a count-only triangle
	// run (runCluster's CountSink, last level counted) and a materializing
	// one make the same kernel choices call for call, on one thread where
	// the hub two-touch order is deterministic.
	for _, hub := range []uint32{0, 2} {
		cfg := core.Config{Threads: 1, HubThreshold: hub}
		counted, cm := runClusterSink(t, g, tri, 1, cfg, sinkCount)
		built, bm := runClusterSink(t, g, tri, 1, cfg, sinkBuild)
		if counted != wantTri || built != wantTri {
			t.Fatalf("triangle hub=%d: count-only %d, materializing %d, brute force %d", hub, counted, built, wantTri)
		}
		c, b := cm.Summarize(), bm.Summarize()
		if c.KernelMerge+c.KernelGallop+c.KernelBitmap == 0 {
			t.Errorf("hub=%d: count-only run entered nothing in the kernel ledger", hub)
		}
		if c.KernelMerge != b.KernelMerge || c.KernelGallop != b.KernelGallop || c.KernelBitmap != b.KernelBitmap || c.KernelPivot != b.KernelPivot {
			t.Errorf("hub=%d: ledger differs: count-only merge/gallop/bitmap/pivot %d/%d/%d/%d, materializing %d/%d/%d/%d", hub,
				c.KernelMerge, c.KernelGallop, c.KernelBitmap, c.KernelPivot, b.KernelMerge, b.KernelGallop, b.KernelBitmap, b.KernelPivot)
		}
	}
}

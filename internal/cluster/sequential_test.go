package cluster

import (
	"testing"

	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

func TestSequentialNodesIdenticalResults(t *testing.T) {
	// Sequential machine execution must change nothing observable except
	// timing: same counts, same traffic, same per-batch fetch structure.
	g := graph.RMATDefault(200, 1200, 401)
	pl := mustCompile(t, pattern.Clique(4), g, plan.Options{Style: plan.StyleGraphPi})
	// No cache and one thread per machine: static-cache admission and chunk
	// fill order depend on scheduling, which legitimately perturbs traffic
	// by a few collisions; with deterministic per-engine execution the
	// traffic must be byte-identical.
	conc := mustCluster(t, g, Config{NumNodes: 4, ThreadsPerSocket: 1})
	seq := mustCluster(t, g, Config{NumNodes: 4, ThreadsPerSocket: 1, SequentialNodes: true})
	a, err := conc.Count(pl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := seq.Count(pl)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != b.Count {
		t.Fatalf("counts differ: %d vs %d", a.Count, b.Count)
	}
	if a.Summary.BytesSent != b.Summary.BytesSent {
		t.Fatalf("traffic differs: %d vs %d", a.Summary.BytesSent, b.Summary.BytesSent)
	}
	if b.ModeledElapsed <= 0 {
		t.Fatal("no modeled makespan")
	}
}

func TestModeledBelowTotalWork(t *testing.T) {
	// The modeled makespan must never exceed the sum of busy times (it is a
	// max over machines of per-machine fractions).
	g := graph.RMATDefault(150, 900, 409)
	pl := mustCompile(t, pattern.Triangle(), g, plan.Options{Style: plan.StyleGraphPi})
	c := mustCluster(t, g, Config{NumNodes: 4, ThreadsPerSocket: 2, SequentialNodes: true})
	r, err := c.Count(pl)
	if err != nil {
		t.Fatal(err)
	}
	var totalBusy = r.Summary.Breakdown.Total()
	if r.ModeledElapsed > totalBusy {
		t.Fatalf("modeled %v exceeds total busy %v", r.ModeledElapsed, totalBusy)
	}
}

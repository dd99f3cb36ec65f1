package service

import (
	"errors"
	"sync"
	"testing"
	"time"

	"khuzdul/internal/cluster"
	"khuzdul/internal/fault"
	"khuzdul/internal/graph"
	"khuzdul/internal/leakcheck"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// TestServiceChaosSoak is the self-healing acceptance scenario: a resident
// server keeps answering a concurrent query stream while the fault
// schedule crashes a node, slows another, and corrupts and errors a slice
// of all traffic. Every query must either succeed with a count
// bit-identical to the fault-free baseline or fail with a classified
// sentinel — and no query may outlive its deadline. Afterwards the server
// must still be healthy: the crash cost exactly one re-partition and a
// health probe names the dead node.
func TestServiceChaosSoak(t *testing.T) {
	leakcheck.Check(t)
	g := graph.RMATDefault(150, 900, 47)
	specs := []Spec{
		{Pattern: "triangle"},
		{Pattern: "K4"},
		{Pattern: "3:0-1,1-2"},
	}
	want := make([]uint64, len(specs))
	for i, s := range specs {
		pat, err := pattern.Parse(s.Pattern)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = plan.BruteForceCount(g, pat, s.Induced)
	}

	prof := &fault.Profile{
		Seed:        13,
		ErrorRate:   0.03,
		CorruptRate: 0.02,
		Crashes:     []fault.Crash{{Node: 2, After: 40}},
		Slowdowns:   []fault.Slowdown{{Node: 1, Factor: 3}},
	}
	ccfg := cluster.Config{
		NumNodes:         4,
		ThreadsPerSocket: 2,
		ChunkSize:        8,
		Fault:            prof,
		FetchTimeout:     50 * time.Millisecond,
		FetchRetries:     5,
		RetryBackoff:     200 * time.Microsecond,
	}
	cl, err := cluster.New(g, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv, err := New(cl, Config{MaxConcurrent: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const (
		workers          = 3
		queriesPerWorker = 5
		deadline         = 30 * time.Second
		// deadlineSlack allows for the final range boundary and result
		// delivery after the deadline timer fires.
		deadlineSlack = 5 * time.Second
	)
	type verdict struct {
		spec    int
		out     Outcome
		err     error
		elapsed time.Duration
	}
	verdicts := make([][]verdict, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli, err := Dial(srv.Addr(), 0)
			if err != nil {
				verdicts[w] = []verdict{{err: err}}
				return
			}
			defer cli.Close()
			for i := 0; i < queriesPerWorker; i++ {
				si := (w + i) % len(specs)
				spec := specs[si]
				spec.Deadline = deadline
				start := time.Now()
				out, err := cli.Run(spec)
				verdicts[w] = append(verdicts[w], verdict{
					spec: si, out: out, err: err, elapsed: time.Since(start),
				})
			}
		}(w)
	}
	wg.Wait()

	var ok, failed int
	for w, vs := range verdicts {
		for i, v := range vs {
			if v.elapsed > deadline+deadlineSlack {
				t.Errorf("worker %d query %d outlived its deadline: %v > %v", w, i, v.elapsed, deadline+deadlineSlack)
			}
			switch {
			case v.err == nil:
				ok++
				if v.out.Count != want[v.spec] {
					t.Errorf("worker %d query %d (%s): count %d, want fault-free %d",
						w, i, specs[v.spec].Pattern, v.out.Count, want[v.spec])
				}
			case errors.Is(v.err, ErrQueryFailed),
				errors.Is(v.err, ErrRejected),
				errors.Is(v.err, ErrDeadlineExceeded):
				// Classified, retryable outcomes under chaos.
				failed++
			default:
				t.Errorf("worker %d query %d: unclassified error %v", w, i, v.err)
			}
		}
	}
	if ok == 0 {
		t.Fatal("no query succeeded during the soak")
	}
	t.Logf("soak: %d ok, %d classified failures across %d queries", ok, failed, workers*queriesPerWorker)

	// The crash must have cost exactly one resident re-partition, shared by
	// every query that tripped over it.
	if n := cl.Repartitions(); n != 1 {
		t.Errorf("Repartitions() = %d after the soak's single crash, want exactly 1", n)
	}

	// The server keeps serving: a fresh client gets exact answers with no
	// fresh recovery, and a health probe names the dead node.
	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	out, err := cli.Run(Spec{Pattern: "triangle", Deadline: deadline})
	if err != nil {
		t.Fatalf("post-soak query: %v", err)
	}
	if out.Count != want[0] {
		t.Fatalf("post-soak count = %d, want %d", out.Count, want[0])
	}
	h, err := cli.Health()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range h.SuspectNodes {
		if n == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("health SuspectNodes = %v, want to include crashed node 2", h.SuspectNodes)
	}
	if h.Draining {
		t.Error("health reports draining on a live server")
	}
}

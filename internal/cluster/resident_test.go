package cluster

import (
	"slices"
	"sync"
	"testing"

	"khuzdul/internal/fault"
	"khuzdul/internal/graph"
	"khuzdul/internal/leakcheck"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// TestResidentCrashTwoConcurrentQueries is the resident-failover scenario:
// two queries are in flight on one cluster when a node crashes. Both must
// complete with exact counts, the re-partition must happen exactly once
// (the queries share one adoption, serialized under the adoption lock),
// and a query submitted afterwards must reuse the adopted topology — no
// fresh recovery round, still exact.
func TestResidentCrashTwoConcurrentQueries(t *testing.T) {
	leakcheck.Check(t)
	g := graph.RMATDefault(150, 900, 47)
	pl4 := mustCompile(t, pattern.Clique(4), g, plan.Options{Style: plan.StyleGraphPi})
	pl3 := mustCompile(t, pattern.Triangle(), g, plan.Options{Style: plan.StyleGraphPi})
	want4 := plan.BruteForceCount(g, pattern.Clique(4), false)
	want3 := plan.BruteForceCount(g, pattern.Triangle(), false)

	prof := &fault.Profile{Seed: 11, Crashes: []fault.Crash{{Node: 1, After: 10}}}
	c := mustCluster(t, g, chaosConfig(prof, TransportChan))

	var wg sync.WaitGroup
	results := make([]Result, 2)
	errs := make([]error, 2)
	plans := []*plan.Plan{pl4, pl3}
	for i, pl := range plans {
		wg.Add(1)
		go func(i int, pl *plan.Plan) {
			defer wg.Done()
			results[i], errs[i] = c.RunWith(pl, countSinks, RunOpts{KeepMetrics: true})
		}(i, pl)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent query %d: %v", i, err)
		}
	}
	if results[0].Count != want4 {
		t.Errorf("K4 count under crash = %d, want %d", results[0].Count, want4)
	}
	if results[1].Count != want3 {
		t.Errorf("triangle count under crash = %d, want %d", results[1].Count, want3)
	}
	if rounds := results[0].RecoveryRounds + results[1].RecoveryRounds; rounds == 0 {
		t.Error("neither concurrent query reported a recovery round despite the crash")
	}
	if n := c.Repartitions(); n != 1 {
		t.Errorf("Repartitions() = %d after one crash under two queries, want exactly 1", n)
	}
	dead := c.DeadNodes()
	found := false
	for _, n := range dead {
		if n == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("DeadNodes() = %v, want to include crashed node 1", dead)
	}

	// A later query reuses the adopted topology: no recovery round, no new
	// re-partition, count still exact.
	res, err := c.RunWith(pl3, countSinks, RunOpts{KeepMetrics: true})
	if err != nil {
		t.Fatalf("post-adoption query: %v", err)
	}
	if res.Count != want3 {
		t.Errorf("post-adoption count = %d, want %d", res.Count, want3)
	}
	if res.RecoveryRounds != 0 {
		t.Errorf("post-adoption query took %d recovery rounds, want 0 (topology already adopted)", res.RecoveryRounds)
	}
	if n := c.Repartitions(); n != 1 {
		t.Errorf("Repartitions() = %d after post-adoption query, want still 1", n)
	}
}

// TestResidentAdoptionCanceledQuery: a query whose cancel fires during
// recovery must return ErrRunCanceled promptly instead of finishing the
// recovery on the caller's time.
func TestResidentRecoveryHonorsCancel(t *testing.T) {
	leakcheck.Check(t)
	g := graph.RMATDefault(150, 900, 47)
	pl := mustCompile(t, pattern.Clique(4), g, plan.Options{Style: plan.StyleGraphPi})
	prof := &fault.Profile{Seed: 11, Crashes: []fault.Crash{{Node: 1, After: 10}}}
	c := mustCluster(t, g, chaosConfig(prof, TransportChan))
	cancel := make(chan struct{})
	close(cancel) // canceled before the run starts: the earliest boundary
	if _, err := c.RunWith(pl, countSinks, RunOpts{Cancel: cancel}); err == nil {
		t.Fatal("canceled run completed cleanly")
	}
}

// TestResidentLaterFailureOneRecoveryRound: a resident cluster survives a
// crash, adopts the failover topology, and keeps serving until a partition
// opens. The run that trips over the partition must recover in exactly one
// round: recovery fetches through the cluster's own retry layer, so the
// breaker verdict the run's fetches reached is the dead set the round routes
// around.
func TestResidentLaterFailureOneRecoveryRound(t *testing.T) {
	leakcheck.Check(t)
	g := graph.RMATDefault(150, 900, 47)
	pl := mustCompile(t, pattern.Clique(4), g, plan.Options{Style: plan.StyleGraphPi})
	want := plan.BruteForceCount(g, pattern.Clique(4), false)
	prof := &fault.Profile{
		Seed:       11,
		Crashes:    []fault.Crash{{Node: 3, After: 10}},
		Partitions: []fault.Partition{{A: []int{0}, B: []int{2}, After: 300}},
	}
	c := mustCluster(t, g, chaosConfig(prof, TransportChan))
	for i := 0; i < 20; i++ {
		res, err := c.RunWith(pl, countSinks, RunOpts{KeepMetrics: true})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.Count != want {
			t.Fatalf("run %d: count = %d, want %d", i, res.Count, want)
		}
		if i == 0 || res.RecoveryRounds == 0 {
			continue // the crash run, or a run before the partition opened
		}
		if res.RecoveryRounds != 1 || !slices.Equal(res.DeadNodes, []int{2, 3}) {
			t.Fatalf("partition run %d: %d recovery rounds, dead %v; want 1 round, dead [2 3]",
				i, res.RecoveryRounds, res.DeadNodes)
		}
		if n := c.Repartitions(); n != 2 {
			t.Fatalf("Repartitions() = %d after a crash and a partition, want 2", n)
		}
		return
	}
	t.Fatal("the partition never forced a recovery")
}

package cluster

import (
	"testing"
	"time"

	"khuzdul/internal/fault"
	"khuzdul/internal/graph"
	"khuzdul/internal/leakcheck"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// chaosConfig is the shared shape of the chaos tests: small chunks so runs
// checkpoint many root ranges, short timeouts so dead-peer detection is fast.
func chaosConfig(prof *fault.Profile, transport Transport) Config {
	return Config{
		NumNodes:         4,
		ThreadsPerSocket: 2,
		ChunkSize:        8,
		Transport:        transport,
		Fault:            prof,
		FetchTimeout:     50 * time.Millisecond,
		FetchRetries:     5,
		RetryBackoff:     200 * time.Microsecond,
	}
}

// TestChaosTransientErrorsExactCounts injects transient fetch errors on every
// connection pair; the retry layer must absorb them all (or task-level
// recovery must mop up retry exhaustion) with counts identical to the
// fault-free run.
func TestChaosTransientErrorsExactCounts(t *testing.T) {
	leakcheck.Check(t)
	g := graph.RMATDefault(150, 900, 47)
	pl := mustCompile(t, pattern.Clique(4), g, plan.Options{Style: plan.StyleGraphPi})
	want := plan.BruteForceCount(g, pattern.Clique(4), false)

	c := mustCluster(t, g, chaosConfig(&fault.Profile{Seed: 7, ErrorRate: 0.2}, TransportChan))
	res, err := c.Count(pl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("count under transient faults = %d, want %d", res.Count, want)
	}
	s := res.Summary
	if s.FaultsInjected == 0 {
		t.Fatal("no faults injected despite 20% error rate")
	}
	if s.FetchRetries == 0 {
		t.Fatal("no retries recorded despite injected errors")
	}
}

// TestChaosCrashRecoveryExactCounts is the headline chaos scenario: transient
// errors everywhere plus one permanent node crash mid-run. The run must
// complete with counts identical to the fault-free run, report the dead node,
// and show recovery work in the metrics.
func TestChaosCrashRecoveryExactCounts(t *testing.T) {
	leakcheck.Check(t)
	g := graph.RMATDefault(150, 900, 47)
	pl := mustCompile(t, pattern.Clique(4), g, plan.Options{Style: plan.StyleGraphPi})
	want := plan.BruteForceCount(g, pattern.Clique(4), false)

	for name, transport := range map[string]Transport{"chan": TransportChan, "tcp": TransportTCP} {
		t.Run(name, func(t *testing.T) {
			prof := &fault.Profile{
				Seed:      11,
				ErrorRate: 0.05,
				Crashes:   []fault.Crash{{Node: 1, After: 10}},
			}
			c := mustCluster(t, g, chaosConfig(prof, transport))
			res, err := c.Count(pl)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("count under crash = %d, want %d", res.Count, want)
			}
			if res.RecoveryRounds == 0 {
				t.Fatal("crash run reported no recovery rounds")
			}
			found := false
			for _, n := range res.DeadNodes {
				if n == 1 {
					found = true
				}
			}
			if !found {
				t.Fatalf("DeadNodes = %v, want to include crashed node 1", res.DeadNodes)
			}
			s := res.Summary
			if s.RecoveredRoots == 0 {
				t.Fatal("no recovered roots recorded")
			}
			if s.FetchTimeouts == 0 {
				t.Fatal("no fetch timeouts recorded despite a hung crashed node")
			}
			if s.BreakerTrips == 0 {
				t.Fatal("breaker never tripped despite a dead peer")
			}
		})
	}
}

// TestChaosCrashDeterministicGivenSeed repeats the crash scenario with the
// same seed: both runs must converge to the same (correct) count and agree
// on the dead set.
func TestChaosCrashDeterministicGivenSeed(t *testing.T) {
	leakcheck.Check(t)
	g := graph.RMATDefault(120, 700, 41)
	pl := mustCompile(t, pattern.Triangle(), g, plan.Options{Style: plan.StyleGraphPi})
	want := plan.BruteForceCount(g, pattern.Triangle(), false)

	run := func() Result {
		prof := &fault.Profile{Seed: 3, ErrorRate: 0.1, Crashes: []fault.Crash{{Node: 2, After: 5}}}
		c := mustCluster(t, g, chaosConfig(prof, TransportChan))
		res, err := c.Count(pl)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Count != want || b.Count != want {
		t.Fatalf("counts %d, %d, want %d", a.Count, b.Count, want)
	}
	if len(a.DeadNodes) != len(b.DeadNodes) {
		t.Fatalf("dead sets differ across identical seeds: %v vs %v", a.DeadNodes, b.DeadNodes)
	}
}

// TestResilientNoFaultsNoEvents turns the resilience layer on without a fault
// profile: results must be untouched and no resilience events recorded.
func TestResilientNoFaultsNoEvents(t *testing.T) {
	leakcheck.Check(t)
	g := graph.RMATDefault(120, 700, 41)
	pl := mustCompile(t, pattern.Clique(4), g, plan.Options{Style: plan.StyleGraphPi})
	want := plan.BruteForceCount(g, pattern.Clique(4), false)

	c := mustCluster(t, g, Config{NumNodes: 4, ThreadsPerSocket: 2, FetchTimeout: 250 * time.Millisecond})
	res, err := c.Count(pl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("resilient healthy count = %d, want %d", res.Count, want)
	}
	if res.RecoveryRounds != 0 || len(res.DeadNodes) != 0 {
		t.Fatalf("healthy run reported recovery: rounds=%d dead=%v", res.RecoveryRounds, res.DeadNodes)
	}
	s := res.Summary
	if s.FetchRetries != 0 || s.FetchTimeouts != 0 || s.BreakerTrips != 0 || s.FaultsInjected != 0 || s.RecoveredRoots != 0 {
		t.Fatalf("healthy run recorded resilience events: %+v", s)
	}
}

// TestChaosWireCorruptionExactCounts flips payload bytes on 5% of exchanges
// over both fabrics. On TCP the CRC actually catches real flipped bytes on the
// wire; the in-process fabric fails the fetch with the same verdict.
// Either way the retry layer must absorb every rejection and the count must be
// bit-identical to the fault-free run.
func TestChaosWireCorruptionExactCounts(t *testing.T) {
	leakcheck.Check(t)
	g := graph.RMATDefault(150, 900, 47)
	pl := mustCompile(t, pattern.Clique(4), g, plan.Options{Style: plan.StyleGraphPi})
	want := plan.BruteForceCount(g, pattern.Clique(4), false)

	for name, transport := range map[string]Transport{"chan": TransportChan, "tcp": TransportTCP} {
		t.Run(name, func(t *testing.T) {
			prof := &fault.Profile{Seed: 19, CorruptRate: 0.05}
			c := mustCluster(t, g, chaosConfig(prof, transport))
			res, err := c.Count(pl)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("count under corruption = %d, want %d", res.Count, want)
			}
			s := res.Summary
			if s.CorruptFrames == 0 {
				t.Fatal("no corrupt frames recorded despite 5% corruption rate")
			}
			if s.FetchRetries == 0 {
				t.Fatal("no retries recorded despite rejected frames")
			}
			if transport == TransportTCP && s.Redials == 0 {
				t.Fatal("TCP fabric never redialed after a poisoned connection")
			}
		})
	}
}

// TestChaosConnectionDropsExactCounts severs 5% of exchanges mid-flight. The
// client sees a torn connection, redials, and retries; counts stay exact.
func TestChaosConnectionDropsExactCounts(t *testing.T) {
	leakcheck.Check(t)
	g := graph.RMATDefault(150, 900, 47)
	pl := mustCompile(t, pattern.Clique(4), g, plan.Options{Style: plan.StyleGraphPi})
	want := plan.BruteForceCount(g, pattern.Clique(4), false)

	for name, transport := range map[string]Transport{"chan": TransportChan, "tcp": TransportTCP} {
		t.Run(name, func(t *testing.T) {
			prof := &fault.Profile{Seed: 23, DropRate: 0.05}
			c := mustCluster(t, g, chaosConfig(prof, transport))
			res, err := c.Count(pl)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("count under drops = %d, want %d", res.Count, want)
			}
			s := res.Summary
			if s.FetchRetries == 0 {
				t.Fatal("no retries recorded despite dropped connections")
			}
			if transport == TransportTCP && s.Redials == 0 {
				t.Fatal("TCP fabric never redialed after a severed connection")
			}
		})
	}
}

// TestChaosPartitionRecoveryExactCounts opens an asymmetric partition mid-run:
// node 0 loses sight of node 1 while every other direction stays healthy.
// Node 0's fetches toward 1 hang into timeouts, the breaker declares 1 dead
// cluster-wide (the consistent-verdict rule), and task-level recovery
// re-executes whatever was pending — with counts still bit-identical.
func TestChaosPartitionRecoveryExactCounts(t *testing.T) {
	leakcheck.Check(t)
	g := graph.RMATDefault(150, 900, 47)
	pl := mustCompile(t, pattern.Clique(4), g, plan.Options{Style: plan.StyleGraphPi})
	want := plan.BruteForceCount(g, pattern.Clique(4), false)

	for name, transport := range map[string]Transport{"chan": TransportChan, "tcp": TransportTCP} {
		t.Run(name, func(t *testing.T) {
			prof := &fault.Profile{
				Seed:       31,
				Partitions: []fault.Partition{{A: []int{0}, B: []int{1}, After: 10}},
			}
			c := mustCluster(t, g, chaosConfig(prof, transport))
			res, err := c.Count(pl)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("count under partition = %d, want %d", res.Count, want)
			}
			if res.RecoveryRounds == 0 {
				t.Fatal("partition run reported no recovery rounds")
			}
			found := false
			for _, n := range res.DeadNodes {
				if n == 1 {
					found = true
				}
			}
			if !found {
				t.Fatalf("DeadNodes = %v, want to include partitioned node 1", res.DeadNodes)
			}
			if res.Summary.FetchTimeouts == 0 {
				t.Fatal("no fetch timeouts recorded despite hung partition traffic")
			}
		})
	}
}

// TestChaosSlowNodeSpeculationExactCounts makes node 1 a 60× straggler and
// turns speculation on: idle survivors re-execute its unfinished suffix, and
// the first-completion-wins reconciliation must keep the count bit-identical
// whether the straggler or the speculative copy finishes first.
func TestChaosSlowNodeSpeculationExactCounts(t *testing.T) {
	leakcheck.Check(t)
	g := graph.RMATDefault(150, 900, 47)
	pl := mustCompile(t, pattern.Clique(4), g, plan.Options{Style: plan.StyleGraphPi})
	want := plan.BruteForceCount(g, pattern.Clique(4), false)

	for name, transport := range map[string]Transport{"chan": TransportChan, "tcp": TransportTCP} {
		t.Run(name, func(t *testing.T) {
			prof := &fault.Profile{
				Seed:      37,
				Slowdowns: []fault.Slowdown{{Node: 1, Factor: 60}},
			}
			cfg := chaosConfig(prof, transport)
			cfg.Speculate = true
			c := mustCluster(t, g, cfg)
			res, err := c.Count(pl)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("count under straggler = %d, want %d", res.Count, want)
			}
			s := res.Summary
			if s.SpeculativeRanges == 0 {
				t.Fatal("no speculative ranges executed against a 60x straggler")
			}
			t.Logf("speculation: %d ranges re-executed, %d wins", s.SpeculativeRanges, s.SpeculationWins)
		})
	}
}

// TestChaosSpeculationHealthyRunExact leaves speculation armed on a fault-free
// run. Natural skew may or may not trigger a speculative copy; either way the
// reconciliation must never double- or under-count.
func TestChaosSpeculationHealthyRunExact(t *testing.T) {
	leakcheck.Check(t)
	g := graph.RMATDefault(150, 900, 47)
	pl := mustCompile(t, pattern.Clique(4), g, plan.Options{Style: plan.StyleGraphPi})
	want := plan.BruteForceCount(g, pattern.Clique(4), false)

	cfg := chaosConfig(nil, TransportChan)
	cfg.Speculate = true
	c := mustCluster(t, g, cfg)
	for i := 0; i < 3; i++ {
		res, err := c.Count(pl)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Fatalf("run %d: healthy speculative count = %d, want %d", i, res.Count, want)
		}
	}
}

// TestChaosKitchenSinkExactCounts is the acceptance scenario: corruption,
// connection drops, transient errors, an asymmetric partition, and a straggler
// all at once, with speculation enabled — over both fabrics, with counts
// bit-identical to the fault-free run.
func TestChaosKitchenSinkExactCounts(t *testing.T) {
	leakcheck.Check(t)
	g := graph.RMATDefault(150, 900, 47)
	pl := mustCompile(t, pattern.Clique(4), g, plan.Options{Style: plan.StyleGraphPi})
	want := plan.BruteForceCount(g, pattern.Clique(4), false)

	for name, transport := range map[string]Transport{"chan": TransportChan, "tcp": TransportTCP} {
		t.Run(name, func(t *testing.T) {
			prof := &fault.Profile{
				Seed:        41,
				ErrorRate:   0.02,
				CorruptRate: 0.02,
				DropRate:    0.02,
				Partitions:  []fault.Partition{{A: []int{2}, B: []int{3}, After: 50}},
				Slowdowns:   []fault.Slowdown{{Node: 1, Factor: 20}},
			}
			cfg := chaosConfig(prof, transport)
			cfg.Speculate = true
			c := mustCluster(t, g, cfg)
			res, err := c.Count(pl)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("kitchen-sink count = %d, want %d", res.Count, want)
			}
			s := res.Summary
			if s.CorruptFrames == 0 {
				t.Fatal("no corrupt frames recorded in the kitchen sink")
			}
			if s.FetchRetries == 0 {
				t.Fatal("no retries recorded in the kitchen sink")
			}
			t.Logf("kitchen sink [%s]: corrupt=%d redials=%d specRanges=%d specWins=%d recovery=%d dead=%v",
				name, s.CorruptFrames, s.Redials, s.SpeculativeRanges, s.SpeculationWins, res.RecoveryRounds, res.DeadNodes)
		})
	}
}

// TestChaosCountAllSurvivesCrash runs motif counting (several plans back to
// back on one cluster) across a crash: the first plan's run kills the node,
// later plans start with the node already dead and must still be exact.
func TestChaosCountAllSurvivesCrash(t *testing.T) {
	leakcheck.Check(t)
	g := graph.RMATDefault(100, 500, 43)
	plans := inducedMotifPlans(t, 3, g)
	var want uint64
	for _, pat := range pattern.ConnectedPatterns(3) {
		want += plan.BruteForceCount(g, pat, true)
	}
	prof := &fault.Profile{Seed: 5, ErrorRate: 0.02, Crashes: []fault.Crash{{Node: 3, After: 10}}}
	c := mustCluster(t, g, chaosConfig(prof, TransportChan))
	_, combined, err := c.CountAll(plans)
	if err != nil {
		t.Fatal(err)
	}
	if combined.Count != want {
		t.Fatalf("motif total under crash = %d, want %d", combined.Count, want)
	}
	if len(combined.DeadNodes) == 0 {
		t.Fatal("no dead nodes reported across motif runs")
	}
}

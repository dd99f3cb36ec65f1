package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"khuzdul/internal/fault"
	"khuzdul/internal/graph"
	"khuzdul/internal/leakcheck"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// fsmSizedGraph is the shape of the benchmark's fsm-mc-8n input: 1.6 k
// vertices, ~9.5 k edges, mild skew, four labels — a graph whose runs hold a
// few hundred embeddings, so what a run costs is what it sets up.
func fsmSizedGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	g0 := graph.RMAT(1600, 9600, 0.40, 0.20, 0.20, 20230331)
	g, err := g0.WithLabels(graph.RandomLabels(g0.NumVertices(), 4, 20230332))
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestBaseRootsMatchPartition holds the one-pass split cluster.New memoizes
// equal to the per-slot scans it replaced: recovery indexes checkpoint
// prefixes into these lists, so they must be the identical lists.
func TestBaseRootsMatchPartition(t *testing.T) {
	g := graph.RMATDefault(300, 1500, 5)
	for _, sockets := range []int{1, 2} {
		c := mustCluster(t, g, Config{NumNodes: 3, Sockets: sockets})
		for node := 0; node < 3; node++ {
			for socket := 0; socket < sockets; socket++ {
				want := c.locals[node].OwnedVertices()
				if sockets > 1 {
					want = c.locals[node].SocketVertices(socket)
				}
				if got := c.rootsOf(nil, node, socket); !slices.Equal(got, want) {
					t.Fatalf("sockets=%d node %d socket %d: %d roots, want %d", sockets, node, socket, len(got), len(want))
				}
			}
		}
	}
}

// poolCase is one plan with its oracle count.
type poolCase struct {
	name string
	pl   *plan.Plan
	want uint64
}

// poolCases compiles plans that use an engine's recycled memory differently:
// three to five levels, stored intersections or none, induced subtraction,
// star levels that carry no list column, a labeled pattern.
func poolCases(t *testing.T, g *graph.Graph) []poolCase {
	t.Helper()
	stats := plan.StatsOf(g)
	specs := []struct {
		name string
		pat  *pattern.Pattern
		opts plan.Options
	}{
		{"triangle", pattern.Triangle(), plan.Options{Style: plan.StyleGraphPi}},
		{"clique4-vcs", pattern.Clique(4), plan.Options{Style: plan.StyleGraphPi}},
		{"clique4-novcs", pattern.Clique(4), plan.Options{Style: plan.StyleGraphPi, DisableVCS: true}},
		{"clique5", pattern.Clique(5), plan.Options{Style: plan.StyleGraphPi}},
		{"wedge-induced", pattern.PathP(3), plan.Options{Style: plan.StyleGraphPi, Induced: true}},
		{"star4", pattern.StarP(4), plan.Options{Style: plan.StyleGraphPi}},
		{"diamond-induced", pattern.Diamond(), plan.Options{Style: plan.StyleGraphPi, Induced: true}},
		{"tailed-triangle-automine", pattern.TailedTriangle(), plan.Options{Style: plan.StyleAutomine}},
		{"triangle-labeled", pattern.Triangle().WithLabels([]graph.Label{0, 1, 1}), plan.Options{Style: plan.StyleGraphPi}},
		{"path4-labeled", pattern.PathP(4).WithLabels([]graph.Label{0, 1, 0, 2}),
			plan.Options{Style: plan.StyleAutomine, DisableSymmetryBreak: true}},
	}
	cases := make([]poolCase, 0, len(specs))
	for _, s := range specs {
		opts := s.opts
		opts.Stats = stats
		pl, err := plan.Compile(s.pat, opts)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		cases = append(cases, poolCase{s.name, pl, plan.CountGraph(pl, g)})
	}
	return cases
}

// TestPooledMemoryExactAcrossRuns alternates plans of different depth and
// column use back to back and then concurrently on one cluster, at a chunk
// size of 8 and at the default: every run draws chunks and workers some
// other plan, level and chunk size left in the pools, and every count must
// equal the reference executor's.
func TestPooledMemoryExactAcrossRuns(t *testing.T) {
	leakcheck.Check(t)
	g0 := graph.RMATDefault(220, 1500, 61)
	g, err := g0.WithLabels(graph.RandomLabels(g0.NumVertices(), 3, 62))
	if err != nil {
		t.Fatal(err)
	}
	cases := poolCases(t, g)
	for _, chunkSize := range []int{8, 0} {
		t.Run(fmt.Sprintf("chunk%d", chunkSize), func(t *testing.T) {
			c := mustCluster(t, g, Config{
				NumNodes: 4, ThreadsPerSocket: 2, ChunkSize: chunkSize,
				CacheFraction: 0.1, CacheDegreeThreshold: 8, SharedCache: true,
			})
			for round := 0; round < 2; round++ {
				for _, pc := range cases {
					res, err := c.Count(pc.pl)
					if err != nil {
						t.Fatalf("%s: %v", pc.name, err)
					}
					if res.Count != pc.want {
						t.Fatalf("round %d %s: count %d, want %d", round, pc.name, res.Count, pc.want)
					}
				}
			}
			var wg sync.WaitGroup
			for i := 0; i < 3*len(cases); i++ {
				pc := cases[(i*7)%len(cases)]
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := c.RunWith(pc.pl, countSinks, RunOpts{KeepMetrics: true})
					if err != nil {
						t.Errorf("concurrent %s: %v", pc.name, err)
						return
					}
					if res.Count != pc.want {
						t.Errorf("concurrent %s: count %d, want %d", pc.name, res.Count, pc.want)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestFailedRunDoesNotPoisonPool runs, side by side and round after round, a
// cluster that loses a machine mid-run, one whose straggler is canceled by a
// winning speculative copy, one whose caller cancels, and a healthy one. The
// engines that fail or are canceled keep their memory; everything the others
// draw from the shared pools must still give exact counts, and under -race no
// late fetch of a failed engine may touch memory a clean run holds.
func TestFailedRunDoesNotPoisonPool(t *testing.T) {
	leakcheck.Check(t)
	g := graph.RMATDefault(150, 900, 47)
	pl, err := plan.Compile(pattern.Clique(4), plan.Options{Style: plan.StyleGraphPi, Stats: plan.StatsOf(g)})
	if err != nil {
		t.Fatal(err)
	}
	want := plan.CountGraph(pl, g)

	healthy := mustCluster(t, g, chaosConfig(nil, TransportChan))
	roomy := mustCluster(t, g, Config{NumNodes: 4, ThreadsPerSocket: 2})
	for round := 0; round < 3; round++ {
		crash := chaosConfig(&fault.Profile{
			Seed: int64(11 + round), ErrorRate: 0.05,
			Crashes: []fault.Crash{{Node: 1, After: 10}},
		}, TransportChan)
		slow := chaosConfig(&fault.Profile{
			Seed: int64(37 + round), Slowdowns: []fault.Slowdown{{Node: 1, Factor: 60}},
		}, TransportChan)
		slow.Speculate = true
		crashed, straggling := mustCluster(t, g, crash), mustCluster(t, g, slow)

		exact := func(name string, c *Cluster, opts RunOpts) func() error {
			return func() error {
				res, err := c.RunWith(pl, countSinks, opts)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				if res.Count != want {
					return fmt.Errorf("%s: count %d, want %d", name, res.Count, want)
				}
				return nil
			}
		}
		cancel := make(chan struct{})
		runs := []func() error{
			exact("crash", crashed, RunOpts{}),
			exact("speculation", straggling, RunOpts{}),
			exact("healthy chunk 8", healthy, RunOpts{KeepMetrics: true}),
			exact("healthy default chunk", roomy, RunOpts{}),
			func() error {
				// Canceled while it runs: it either stops with ErrRunCanceled
				// or had already finished, exactly.
				close(cancel)
				res, err := healthy.RunWith(pl, countSinks, RunOpts{Cancel: cancel, KeepMetrics: true})
				if errors.Is(err, ErrRunCanceled) || (err == nil && res.Count == want) {
					return nil
				}
				return fmt.Errorf("caller cancel: count %d err %v", res.Count, err)
			},
		}
		errs := make([]error, len(runs))
		var wg sync.WaitGroup
		for i, run := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = run()
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Errorf("round %d: %v", round, err)
			}
		}
		// After the failures, alone: the pools hold what the clean engines
		// and the recovery rounds returned.
		for name, c := range map[string]*Cluster{"healthy": healthy, "roomy": roomy, "crashed": crashed} {
			if err := exact(name+" after failures", c, RunOpts{})(); err != nil {
				t.Errorf("round %d: %v", round, err)
			}
		}
	}
}

// steadyStateBudget bounds what one Cluster.Count of a triangle on the
// fsm-sized graph over 8 nodes may allocate, averaged over the runs that
// follow two warm-up runs. With every chunk preallocated per engine the run
// allocated 7.6 MB; recycled, it settles at ~170 KB of per-run bookkeeping
// (sources, sinks, scratch, fetch requests and replies) after the pooled
// chunks have grown to the size the heaviest engine needs, which takes two
// or three runs more — the average measured here is ~250 KB. Preallocating a
// single column per engine again (8 × 128 KB) would exceed the budget.
const steadyStateBudget = 1 << 20

// TestRunSteadyStateBytes holds the per-run allocation floor: a run pays for
// the memory it fills, not for the memory an engine could fill.
func TestRunSteadyStateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g := fsmSizedGraph(t)
	c := mustCluster(t, g, Config{NumNodes: 8, ThreadsPerSocket: 1})
	pl, err := plan.Compile(pattern.Triangle(), plan.Options{Style: plan.StyleGraphPi, Stats: plan.StatsOf(g)})
	if err != nil {
		t.Fatal(err)
	}
	want := plan.CountGraph(pl, g)
	count := func() {
		res, err := c.Count(pl)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Fatalf("count %d, want %d", res.Count, want)
		}
	}
	count()
	count()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		count()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d B allocated per run", perRun)
	if perRun > steadyStateBudget {
		t.Fatalf("a warm run allocated %d B, budget %d B", perRun, steadyStateBudget)
	}
}

// BenchmarkRunSmallGraph is the per-run floor: one triangle count on the
// fsm-sized graph over 8 nodes, where set-up and tear-down outweigh the
// exploration. B/op and allocs/op are the numbers to watch.
func BenchmarkRunSmallGraph(b *testing.B) {
	g := fsmSizedGraph(b)
	c, err := New(g, Config{NumNodes: 8, ThreadsPerSocket: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	pl, err := plan.Compile(pattern.Triangle(), plan.Options{Style: plan.StyleGraphPi, Stats: plan.StatsOf(g)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Count(pl)
		if err != nil {
			b.Fatal(err)
		}
		if res.Count == 0 {
			b.Fatal("no triangles")
		}
	}
}

package cluster

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"khuzdul/internal/cache"
	"khuzdul/internal/core"
	"khuzdul/internal/fault"
	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

func mustCluster(t *testing.T, g *graph.Graph, cfg Config) *Cluster {
	t.Helper()
	c, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// countSinks is the sink factory of a counting run.
func countSinks(node, socket int) core.Sink { return &core.CountSink{} }

// mustCompile compiles pat with g's degree statistics driving the schedule,
// as the applications compile it.
func mustCompile(t *testing.T, pat *pattern.Pattern, g *graph.Graph, opts plan.Options) *plan.Plan {
	t.Helper()
	opts.Stats = plan.StatsOf(g)
	pl, err := plan.Compile(pat, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// inducedMotifPlans compiles an induced GraphPi-style plan for every
// connected size-k pattern.
func inducedMotifPlans(t *testing.T, k int, g *graph.Graph) []*plan.Plan {
	t.Helper()
	var plans []*plan.Plan
	for _, pat := range pattern.ConnectedPatterns(k) {
		plans = append(plans, mustCompile(t, pat, g, plan.Options{Style: plan.StyleGraphPi, Induced: true}))
	}
	return plans
}

func TestClusterCountMatchesBruteForce(t *testing.T) {
	g := graph.RMATDefault(120, 700, 41)
	for _, cfg := range []Config{
		{NumNodes: 1},
		{NumNodes: 4, ThreadsPerSocket: 2},
		{NumNodes: 8, ThreadsPerSocket: 2, CacheFraction: 0.1, CacheDegreeThreshold: 4},
		{NumNodes: 3, Sockets: 2, ThreadsPerSocket: 2},
	} {
		c := mustCluster(t, g, cfg)
		for _, pat := range []*pattern.Pattern{pattern.Triangle(), pattern.Clique(4)} {
			pl := mustCompile(t, pat, g, plan.Options{Style: plan.StyleGraphPi})
			want := plan.BruteForceCount(g, pat, false)
			res, err := c.Count(pl)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Errorf("cfg=%+v %v: count %d, want %d", cfg, pat, res.Count, want)
			}
			if res.Elapsed <= 0 {
				t.Errorf("non-positive elapsed")
			}
		}
	}
}

// TestFoldedCountExactOrLoud: a folded star tail counts in one step what
// enumeration visits one by one, so it can reach counts enumeration never
// could. One that fits is exact — C(20000, 4) 4-stars on a star graph, found
// in one pass over the roots; one past uint64 — C(20000, 5) — fails the run
// instead of wrapping.
func TestFoldedCountExactOrLoud(t *testing.T) {
	g := graph.Star(20001)
	c := mustCluster(t, g, Config{NumNodes: 2, ThreadsPerSocket: 2})
	pl := mustCompile(t, pattern.StarP(5), g, plan.Options{Style: plan.StyleAutomine})
	const want = 20000 * 19999 * 19998 * 19997 / 24
	res, err := c.Count(pl)
	if err != nil || res.Count != want {
		t.Fatalf("4-stars = %d, %v; want %d", res.Count, err, uint64(want))
	}
	if res.Summary.Extensions != uint64(g.NumVertices()) {
		t.Errorf("%d extensions, want one per root", res.Summary.Extensions)
	}
	pl = mustCompile(t, pattern.StarP(6), g, plan.Options{Style: plan.StyleAutomine})
	if res, err := c.Count(pl); !errors.Is(err, core.ErrCountOverflow) {
		t.Fatalf("5-stars = %d, %v; want ErrCountOverflow", res.Count, err)
	}
}

func TestClusterTCPTransportSameResult(t *testing.T) {
	g := graph.RMATDefault(100, 500, 43)
	pl := mustCompile(t, pattern.Clique(4), g, plan.Options{Style: plan.StyleAutomine})
	chanC := mustCluster(t, g, Config{NumNodes: 3, ThreadsPerSocket: 2})
	tcpC := mustCluster(t, g, Config{NumNodes: 3, ThreadsPerSocket: 2, Transport: TransportTCP})
	a, err := chanC.Count(pl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tcpC.Count(pl)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != b.Count {
		t.Fatalf("chan=%d tcp=%d", a.Count, b.Count)
	}
	if a.Summary.BytesSent != b.Summary.BytesSent {
		t.Fatalf("traffic differs: chan=%d tcp=%d", a.Summary.BytesSent, b.Summary.BytesSent)
	}
}

func TestClusterNUMAMatchesNonNUMA(t *testing.T) {
	g := graph.RMATDefault(150, 900, 47)
	pl := mustCompile(t, pattern.Clique(4), g, plan.Options{Style: plan.StyleGraphPi})
	single := mustCluster(t, g, Config{NumNodes: 2, Sockets: 1, ThreadsPerSocket: 2})
	numa := mustCluster(t, g, Config{NumNodes: 2, Sockets: 2, ThreadsPerSocket: 1})
	a, err := single.Count(pl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := numa.Count(pl)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != b.Count {
		t.Fatalf("NUMA changed count: %d vs %d", a.Count, b.Count)
	}
	if b.Summary.CrossSocketFetches == 0 {
		t.Fatal("NUMA mode recorded no cross-socket fetches")
	}
	if a.Summary.CrossSocketFetches != 0 {
		t.Fatal("single-socket mode recorded cross-socket fetches")
	}
}

func TestClusterMetricsResetBetweenRuns(t *testing.T) {
	g := graph.RMATDefault(80, 400, 53)
	pl := mustCompile(t, pattern.Triangle(), g, plan.Options{Style: plan.StyleGraphPi})
	c := mustCluster(t, g, Config{NumNodes: 4, ThreadsPerSocket: 2})
	r1, err := c.Count(pl)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Count(pl)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Count != r2.Count {
		t.Fatalf("repeat runs disagree: %d vs %d", r1.Count, r2.Count)
	}
	// Within 2x: a second run must not accumulate the first run's traffic.
	if r2.Summary.BytesSent > 2*r1.Summary.BytesSent {
		t.Fatalf("metrics accumulated across runs: %d then %d",
			r1.Summary.BytesSent, r2.Summary.BytesSent)
	}
}

func TestClusterCachePoliciesAllCorrect(t *testing.T) {
	g := graph.RMATDefault(150, 900, 59)
	pl := mustCompile(t, pattern.Clique(4), g, plan.Options{Style: plan.StyleGraphPi})
	want := plan.BruteForceCount(g, pattern.Clique(4), false)
	for _, pol := range []cache.Policy{cache.Static, cache.FIFO, cache.LIFO, cache.LRU, cache.MRU} {
		c := mustCluster(t, g, Config{
			NumNodes: 4, ThreadsPerSocket: 2,
			CacheFraction: 0.05, CachePolicy: pol, CacheDegreeThreshold: 2,
		})
		res, err := c.Count(pl)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Errorf("policy %v: count %d, want %d", pol, res.Count, want)
		}
	}
}

func TestClusterCountAllMotifs(t *testing.T) {
	g := graph.RMATDefault(60, 300, 61)
	plans := inducedMotifPlans(t, 3, g)
	c := mustCluster(t, g, Config{NumNodes: 2, ThreadsPerSocket: 2})
	per, combined, err := c.CountAll(plans)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 2 { // wedge + triangle
		t.Fatalf("3-motif plans = %d, want 2", len(per))
	}
	var want uint64
	for _, pat := range pattern.ConnectedPatterns(3) {
		want += plan.BruteForceCount(g, pat, true)
	}
	if combined.Count != want {
		t.Fatalf("3-motif total = %d, want %d", combined.Count, want)
	}
}

func TestClusterOrientedCliqueCounting(t *testing.T) {
	// Orientation (Pangolin-style, used for Table 5): count cliques on the
	// DAG without symmetry-breaking restrictions.
	g := graph.RMATDefault(120, 700, 67)
	dag := graph.Orient(g)
	for _, k := range []int{3, 4} {
		pl := mustCompile(t, pattern.Clique(k), dag, plan.Options{Style: plan.StyleAutomine, DisableSymmetryBreak: true})
		c := mustCluster(t, dag, Config{NumNodes: 3, ThreadsPerSocket: 2})
		res, err := c.Count(pl)
		if err != nil {
			t.Fatal(err)
		}
		want := plan.BruteForceCount(g, pattern.Clique(k), false)
		if res.Count != want {
			t.Errorf("oriented %d-clique = %d, want %d", k, res.Count, want)
		}
	}
}

func TestClusterEdgeLabeledPattern(t *testing.T) {
	// The edge-label extension must hold end-to-end through the distributed
	// engine: counts match brute force and sum correctly across labels.
	g := graph.RMATDefault(90, 500, 71).WithRandomEdgeLabels(2, 5)
	c := mustCluster(t, g, Config{NumNodes: 3, ThreadsPerSocket: 2})
	var sum uint64
	for la := graph.Label(0); la < 2; la++ {
		pat := pattern.Triangle()
		// One triangle pattern per "all edges labeled la" choice plus the
		// mixed ones; here: uniform label la on all three edges.
		pat.SetEdgeLabel(0, 1, la)
		pat.SetEdgeLabel(1, 2, la)
		pat.SetEdgeLabel(0, 2, la)
		pl := mustCompile(t, pat, g, plan.Options{Style: plan.StyleGraphPi})
		res, err := c.Count(pl)
		if err != nil {
			t.Fatal(err)
		}
		want := plan.BruteForceCount(g, pat, false)
		if res.Count != want {
			t.Errorf("uniform label %d: %d, want %d", la, res.Count, want)
		}
		sum += res.Count
	}
	all := mustCompile(t, pattern.Triangle(), g, plan.Options{Style: plan.StyleGraphPi})
	res, err := c.Count(all)
	if err != nil {
		t.Fatal(err)
	}
	if sum > res.Count {
		t.Fatalf("uniform-label triangles %d exceed total %d", sum, res.Count)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	g := graph.Path(4)
	if _, err := New(g, Config{NumNodes: 2, Transport: Transport(99)}); err == nil {
		t.Fatal("want error for unknown transport")
	}
	c, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Config().NumNodes != 1 || c.Config().Sockets != 1 {
		t.Fatalf("defaults not applied: %+v", c.Config())
	}
}

// TestConfigValidate: every setting New cannot honor is refused up front with
// ErrInvalidConfig and names its field; the zero value and the ordinary
// non-zero settings are accepted.
func TestConfigValidate(t *testing.T) {
	for name, tc := range map[string]struct {
		cfg   Config
		field string
	}{
		"NaN cache":           {Config{CacheFraction: math.NaN()}, "CacheFraction"},
		"+Inf cache":          {Config{CacheFraction: math.Inf(1)}, "CacheFraction"},
		"-Inf cache":          {Config{CacheFraction: math.Inf(-1)}, "CacheFraction"},
		"negative cache":      {Config{CacheFraction: -0.1}, "CacheFraction"},
		"negative nodes":      {Config{NumNodes: -3}, "NumNodes"},
		"negative sockets":    {Config{Sockets: -1}, "Sockets"},
		"negative threads":    {Config{ThreadsPerSocket: -1}, "ThreadsPerSocket"},
		"negative chunk":      {Config{ChunkSize: -8}, "ChunkSize"},
		"negative retries":    {Config{FetchRetries: -1}, "FetchRetries"},
		"negative timeout":    {Config{FetchTimeout: -time.Millisecond}, "FetchTimeout"},
		"negative backoff":    {Config{RetryBackoff: -time.Millisecond}, "RetryBackoff"},
		"unknown transport":   {Config{Transport: TransportTCP + 1}, "Transport"},
		"negative transport":  {Config{Transport: -1}, "Transport"},
		"unknown policy":      {Config{CachePolicy: cache.MRU + 1}, "CachePolicy"},
		"negative policy":     {Config{CachePolicy: -1}, "CachePolicy"},
		"sequential spec":     {Config{Speculate: true, SequentialNodes: true}, "Speculate"},
		"fault crash node":    {Config{NumNodes: 4, Fault: &fault.Profile{Crashes: []fault.Crash{{Node: 7, After: 100}}}}, "Fault"},
		"fault default nodes": {Config{Fault: &fault.Profile{Crashes: []fault.Crash{{Node: 1}}}}, "Fault"},
		"fault negative node": {Config{NumNodes: 4, Fault: &fault.Profile{Crashes: []fault.Crash{{Node: -1}}}}, "Fault"},
		"fault partition A":   {Config{NumNodes: 4, Fault: &fault.Profile{Partitions: []fault.Partition{{A: []int{4}, B: []int{0}}}}}, "Fault"},
		"fault partition B":   {Config{NumNodes: 4, Fault: &fault.Profile{Partitions: []fault.Partition{{A: []int{0}, B: []int{1, 9}}}}}, "Fault"},
		"fault slow node":     {Config{NumNodes: 4, Fault: &fault.Profile{Slowdowns: []fault.Slowdown{{Node: 4, Factor: 2}}}}, "Fault"},
		"fault slow factor":   {Config{NumNodes: 4, Fault: &fault.Profile{Slowdowns: []fault.Slowdown{{Node: 1, Factor: 0}}}}, "Fault"},
		"fault error rate":    {Config{Fault: &fault.Profile{ErrorRate: 1.5}}, "Fault"},
		"fault corrupt rate":  {Config{Fault: &fault.Profile{CorruptRate: -0.1}}, "Fault"},
		"fault drop rate":     {Config{Fault: &fault.Profile{DropRate: math.NaN()}}, "Fault"},
		"fault latency":       {Config{Fault: &fault.Profile{MaxLatency: -time.Millisecond}}, "Fault"},
	} {
		err := tc.cfg.Validate()
		if !errors.Is(err, ErrInvalidConfig) || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate = %v, want ErrInvalidConfig naming %s", name, err, tc.field)
		}
		if _, err := New(graph.Path(4), tc.cfg); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: New = %v, want ErrInvalidConfig", name, err)
		}
	}
	for _, cfg := range []Config{{}, {
		NumNodes: 8, Sockets: 2, ThreadsPerSocket: 4, ChunkSize: 64, CacheFraction: 1,
		CachePolicy: cache.MRU, Transport: TransportTCP,
		FetchTimeout: time.Second, FetchRetries: 3, RetryBackoff: time.Millisecond,
		Fault: &fault.Profile{
			ErrorRate: 1, CorruptRate: 0.5, MaxLatency: time.Millisecond,
			Crashes:    []fault.Crash{{Node: 7}},
			Partitions: []fault.Partition{{A: []int{0}, B: []int{7}}},
			Slowdowns:  []fault.Slowdown{{Node: 7, Factor: 0.5}},
		},
	}} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
}

package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"khuzdul/internal/cache"
	"khuzdul/internal/comm"
	"khuzdul/internal/core"
	"khuzdul/internal/graph"
	"khuzdul/internal/leakcheck"
	"khuzdul/internal/metrics"
	"khuzdul/internal/partition"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// testSource implements core.DataSource over a partitioned graph and a
// fabric. It is a miniature of what internal/cluster provides.
type testSource struct {
	local  *partition.Local
	fabric comm.Fabric
	met    *metrics.Node
}

func (s *testSource) Classify(v graph.VertexID) (core.Locality, int) {
	owner := s.local.Assignment().Owner(v)
	if owner == s.local.Node() {
		return core.LocalityLocal, owner
	}
	return core.LocalityRemote, owner
}

func (s *testSource) LocalList(v graph.VertexID) []graph.VertexID {
	return s.local.MustNeighbors(v)
}

func (s *testSource) CrossSocketList(v graph.VertexID) []graph.VertexID {
	panic("testSource has one socket")
}

func (s *testSource) Fetch(owner int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	return s.fabric.Fetch(s.local.Node(), owner, ids)
}

func (s *testSource) NumNodes() int           { return s.local.Assignment().NumNodes() }
func (s *testSource) LocalNode() int          { return s.local.Node() }
func (s *testSource) Roots() []graph.VertexID { return s.local.OwnedVertices() }

// runCluster executes one engine per node over a local fabric and returns
// the total match count and the metrics.
func runCluster(t *testing.T, g *graph.Graph, pl *plan.Plan, numNodes int, cfg core.Config) (uint64, *metrics.Cluster) {
	t.Helper()
	return runClusterSink(t, g, pl, numNodes, cfg, sinkCount)
}

// sinkMode is how runClusterSink's engines take their matches.
type sinkMode int

const (
	// sinkCount: a *CountSink, so the engine only counts: the last level is
	// counted without being built, and a plan's star tail folds.
	sinkCount sinkMode = iota
	// sinkBuild: a sink that takes every embedding, which keeps the engine
	// off the count-only path.
	sinkBuild
	// sinkVerify: sinkBuild that also checks each embedding it takes is a
	// match of the plan's pattern in the graph: distinct vertices, and every
	// pattern edge present (unlabeled patterns only).
	sinkVerify
)

// runClusterSink is runCluster with a choice of sink.
func runClusterSink(t *testing.T, g *graph.Graph, pl *plan.Plan, numNodes int, cfg core.Config, mode sinkMode) (uint64, *metrics.Cluster) {
	t.Helper()
	var labelOf plan.LabelFunc
	if g.Labeled() {
		labelOf = g.Label
	}
	return runClusterLabels(t, g, pl, labelOf, numNodes, cfg, mode)
}

// runClusterLabels is runClusterSink with the engines' vertex-label oracle
// given: nil for none, or one that observes the label tests.
func runClusterLabels(t *testing.T, g *graph.Graph, pl *plan.Plan, labelOf plan.LabelFunc, numNodes int, cfg core.Config, mode sinkMode) (uint64, *metrics.Cluster) {
	t.Helper()
	asg := partition.NewAssignment(numNodes, 1)
	met := metrics.NewCluster(numNodes)
	servers := make([]comm.Server, numNodes)
	locals := make([]*partition.Local, numNodes)
	for node := 0; node < numNodes; node++ {
		locals[node] = partition.NewLocal(g, asg, node)
		l := locals[node]
		servers[node] = comm.ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
			out := make([][]graph.VertexID, len(ids))
			for i, id := range ids {
				out[i] = l.MustNeighbors(id)
			}
			return out
		})
	}
	fabric := comm.NewLocal(servers, met)
	defer fabric.Close()

	ext := core.NewPlanExtender(pl, labelOf)
	if g.EdgeLabeled() {
		ext.EdgeLabelOf = plan.EdgeLabelOracle(g)
	}
	var total atomic.Uint64
	var wg sync.WaitGroup
	errs := make([]error, numNodes)
	for node := 0; node < numNodes; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			src := &testSource{local: locals[node], fabric: fabric, met: met.Nodes[node]}
			count := &core.CountSink{}
			var sink core.Sink = count
			switch mode {
			case sinkBuild:
				sink = &core.FuncSink{F: func([]graph.VertexID) { total.Add(1) }}
			case sinkVerify:
				sink = &core.FuncSink{F: func(emb []graph.VertexID) {
					total.Add(1)
					if err := checkEmbedding(g, pl, emb); err != nil {
						t.Error(err)
					}
				}}
			}
			c := cfg
			c.Metrics = met.Nodes[node]
			eng := core.NewEngine(ext, src, sink, c)
			errs[node] = eng.Run()
			total.Add(count.Count())
		}(node)
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}
	return total.Load(), met
}

// checkEmbedding reports why emb, in matching-order positions, is not a
// match of pl's pattern in g, or nil when it is.
func checkEmbedding(g *graph.Graph, pl *plan.Plan, emb []graph.VertexID) error {
	if len(emb) != pl.K {
		return fmt.Errorf("embedding %v has %d vertices, want %d", emb, len(emb), pl.K)
	}
	for i := 0; i < pl.K; i++ {
		for j := 0; j < i; j++ {
			if emb[i] == emb[j] {
				return fmt.Errorf("embedding %v repeats a vertex", emb)
			}
			if pl.Pattern.HasEdge(pl.Order[i], pl.Order[j]) && !g.HasEdge(emb[i], emb[j]) {
				return fmt.Errorf("embedding %v misses the edge between positions %d and %d", emb, j, i)
			}
		}
	}
	return nil
}

func TestEngineSingleNodeMatchesPlan(t *testing.T) {
	g := graph.RMATDefault(120, 600, 7)
	for _, pat := range []*pattern.Pattern{
		pattern.Triangle(), pattern.Clique(4), pattern.CycleP(4),
		pattern.PathP(4), pattern.House(), pattern.Clique(5),
	} {
		pl := plan.MustCompile(pat, plan.Options{Style: plan.StyleGraphPi})
		want := plan.CountGraph(pl, g)
		got, _ := runCluster(t, g, pl, 1, core.Config{Threads: 1})
		if got != want {
			t.Errorf("%v: engine %d, plan executor %d", pat, got, want)
		}
	}
}

func TestEngineMultiNodeMatchesBruteForce(t *testing.T) {
	g := graph.RMATDefault(90, 450, 11)
	for _, nodes := range []int{2, 3, 5} {
		for _, pat := range []*pattern.Pattern{
			pattern.Triangle(), pattern.Clique(4), pattern.CycleP(4), pattern.TailedTriangle(),
		} {
			pl := plan.MustCompile(pat, plan.Options{Style: plan.StyleGraphPi})
			want := plan.BruteForceCount(g, pat, false)
			got, met := runCluster(t, g, pl, nodes, core.Config{Threads: 2, HDS: true})
			if got != want {
				t.Errorf("%v on %d nodes: engine %d, brute force %d", pat, nodes, got, want)
			}
			if nodes > 1 && met.Summarize().BytesSent == 0 {
				t.Errorf("%v on %d nodes: no network traffic recorded", pat, nodes)
			}
		}
	}
}

func TestEngineInducedMatching(t *testing.T) {
	g := graph.RMATDefault(70, 350, 13)
	for _, pat := range []*pattern.Pattern{pattern.CycleP(4), pattern.PathP(4), pattern.StarP(4)} {
		pl := plan.MustCompile(pat, plan.Options{Style: plan.StyleAutomine, Induced: true})
		want := plan.BruteForceCount(g, pat, true)
		got, _ := runCluster(t, g, pl, 3, core.Config{Threads: 2})
		if got != want {
			t.Errorf("induced %v: engine %d, brute force %d", pat, got, want)
		}
	}
}

func TestEngineTinyChunksForcePauseResume(t *testing.T) {
	// Chunk capacity far below the embedding population exercises the
	// BFS-DFS pause/resume machinery.
	g := graph.RMATDefault(80, 500, 3)
	pl := plan.MustCompile(pattern.Clique(4), plan.Options{Style: plan.StyleGraphPi})
	want := plan.CountGraph(pl, g)
	for _, chunkSize := range []int{1, 2, 7, 64} {
		got, _ := runCluster(t, g, pl, 2, core.Config{ChunkSize: chunkSize, Threads: 1})
		if got != want {
			t.Errorf("chunk=%d: got %d, want %d", chunkSize, got, want)
		}
	}
}

func TestEngineHDSCorrectAndSaves(t *testing.T) {
	g := graph.RMATDefault(200, 1400, 5)
	pl := plan.MustCompile(pattern.Clique(4), plan.Options{Style: plan.StyleGraphPi})
	want := plan.CountGraph(pl, g)

	gotOff, metOff := runCluster(t, g, pl, 4, core.Config{HDS: false, Threads: 2})
	gotOn, metOn := runCluster(t, g, pl, 4, core.Config{HDS: true, Threads: 2})
	if gotOff != want || gotOn != want {
		t.Fatalf("HDS changed counts: off=%d on=%d want=%d", gotOff, gotOn, want)
	}
	off, on := metOff.Summarize(), metOn.Summarize()
	if on.HDSHits == 0 {
		t.Fatal("HDS recorded no hits on a skewed graph")
	}
	if on.BytesSent >= off.BytesSent {
		t.Fatalf("HDS did not reduce traffic: on=%d off=%d", on.BytesSent, off.BytesSent)
	}
}

func TestEngineStaticCacheCorrectAndSaves(t *testing.T) {
	g := graph.RMATDefault(200, 1400, 9)
	pl := plan.MustCompile(pattern.Triangle(), plan.Options{Style: plan.StyleGraphPi})
	want := plan.CountGraph(pl, g)

	gotOff, metOff := runCluster(t, g, pl, 4, core.Config{Threads: 2})
	// One shared cache would be wrong (caches are per machine); runCluster
	// passes one Config to all nodes, so use a fresh runCluster variant via
	// per-node caches below in cluster tests. Here a single node's cache
	// still must not change counts.
	c := cache.NewStatic(1<<20, 2)
	gotOn, metOn := runCluster(t, g, pl, 4, core.Config{Threads: 2, Cache: c})
	if gotOff != want || gotOn != want {
		t.Fatalf("cache changed counts: off=%d on=%d want=%d", gotOff, gotOn, want)
	}
	off, on := metOff.Summarize(), metOn.Summarize()
	if on.CacheHits == 0 {
		t.Fatal("cache recorded no hits")
	}
	if on.BytesSent >= off.BytesSent {
		t.Fatalf("cache did not reduce traffic: on=%d off=%d", on.BytesSent, off.BytesSent)
	}
}

func TestEngineManyThreads(t *testing.T) {
	g := graph.RMATDefault(150, 900, 15)
	pl := plan.MustCompile(pattern.Clique(4), plan.Options{Style: plan.StyleGraphPi})
	want := plan.CountGraph(pl, g)
	for _, threads := range []int{2, 4, 8} {
		got, _ := runCluster(t, g, pl, 2, core.Config{Threads: threads, HDS: true})
		if got != want {
			t.Errorf("threads=%d: got %d, want %d", threads, got, want)
		}
	}
}

// embSink collects embeddings for verification.
type embSink struct {
	mu   sync.Mutex
	embs [][]graph.VertexID
}

func (s *embSink) OnMatches(prefix, last []graph.VertexID) {
	s.mu.Lock()
	for _, v := range last {
		s.embs = append(s.embs, append(append([]graph.VertexID(nil), prefix...), v))
	}
	s.mu.Unlock()
}

func TestEngineEmitsValidEmbeddings(t *testing.T) {
	g := graph.RMATDefault(60, 300, 19)
	pat := pattern.Triangle()
	pl := plan.MustCompile(pat, plan.Options{Style: plan.StyleGraphPi})
	asg := partition.NewAssignment(1, 1)
	local := partition.NewLocal(g, asg, 0)
	fabric := comm.NewLocal([]comm.Server{comm.ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
		panic("single node should not fetch")
	})}, nil)
	src := &testSource{local: local, fabric: fabric}
	sink := &embSink{}
	eng := core.NewEngine(core.NewPlanExtender(pl, nil), src, sink, core.Config{Threads: 2})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := plan.CountGraph(pl, g)
	if uint64(len(sink.embs)) != want {
		t.Fatalf("emitted %d embeddings, want %d", len(sink.embs), want)
	}
	for _, emb := range sink.embs {
		for a := 0; a < 3; a++ {
			for b := a + 1; b < 3; b++ {
				if !g.HasEdge(emb[a], emb[b]) {
					t.Fatalf("emitted non-triangle %v", emb)
				}
			}
		}
	}
}

// stopSource closes stop on its n-th list read: a stop raised at a fixed
// point of the exploration, wherever the engine happens to look for it.
type stopSource struct {
	core.DataSource
	stop  chan struct{}
	n     int64
	reads atomic.Int64
}

func (s *stopSource) LocalList(v graph.VertexID) []graph.VertexID {
	if s.reads.Add(1) == s.n {
		close(s.stop)
	}
	return s.DataSource.LocalList(v)
}

// TestEngineCancelMidRange pins the cancelpoll fix: a stop raised after
// exploration of a range has begun must still stop the engine (process reads
// Config.Stop at batch boundaries). The old engine only checked at range
// boundaries, so a single-range run could never be canceled.
func TestEngineCancelMidRange(t *testing.T) {
	g := graph.RMATDefault(120, 700, 7)
	pl := plan.MustCompile(pattern.Clique(4), plan.Options{Style: plan.StyleGraphPi})
	asg := partition.NewAssignment(1, 1)
	local := partition.NewLocal(g, asg, 0)
	fabric := comm.NewLocal([]comm.Server{comm.ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
		panic("single node should not fetch")
	})}, nil)
	defer fabric.Close()
	// The first list read is the root chunk's, after Run's range boundary
	// was passed. ChunkSize far above the root count keeps the whole run in
	// one range, so only the reads inside the range can observe the stop.
	src := &stopSource{DataSource: &testSource{local: local, fabric: fabric}, stop: make(chan struct{}), n: 1}
	cfg := core.Config{Threads: 1, ChunkSize: 1 << 20, Stop: src.stop, OnRangeDone: func(start, end int) {
		t.Errorf("range [%d, %d) committed after the stop", start, end)
	}}
	eng := core.NewEngine(core.NewPlanExtender(pl, nil), src, &core.CountSink{}, cfg)
	if err := eng.Run(); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("Run = %v, want ErrCanceled", err)
	}
}

// blockedSource holds every remote fetch until the test ends and reports
// when the first one began.
type blockedSource struct {
	*testSource
	fetching, release chan struct{}
	once              sync.Once
}

func (s *blockedSource) Fetch(owner int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	s.once.Do(func() { close(s.fetching) })
	<-s.release
	return nil, errors.New("blocked source: released")
}

// TestEngineStopAbandonsBlockedFetch: a stop raised while the engine waits
// for a fetch that never answers must end Run at once, under both pipeline
// schedules — the engine, not the fabric, owns the wait. An engine that only
// polls its stop at boundaries stays parked until the fetch is released.
func TestEngineStopAbandonsBlockedFetch(t *testing.T) {
	g := graph.RMATDefault(150, 900, 61)
	pl := plan.MustCompile(pattern.Clique(4), plan.Options{Style: plan.StyleGraphPi})
	local := partition.NewLocal(g, partition.NewAssignment(2, 1), 0)
	for _, strict := range []bool{false, true} {
		t.Run(fmt.Sprintf("strict=%v", strict), func(t *testing.T) {
			leakcheck.Check(t)
			src := &blockedSource{testSource: &testSource{local: local},
				fetching: make(chan struct{}), release: make(chan struct{})}
			t.Cleanup(func() { close(src.release) })
			stop := make(chan struct{})
			eng := core.NewEngine(core.NewPlanExtender(pl, nil), src, &core.CountSink{},
				core.Config{Threads: 2, StrictPipeline: strict, HDS: true, Stop: stop})
			done := make(chan error, 1)
			go func() { done <- eng.Run() }()
			<-src.fetching
			time.Sleep(20 * time.Millisecond) // let the engine park in its wait
			close(stop)
			stopped := time.Now()
			select {
			case err := <-done:
				if !errors.Is(err, core.ErrCanceled) {
					t.Fatalf("Run = %v, want ErrCanceled", err)
				}
				if took := time.Since(stopped); took > 250*time.Millisecond {
					t.Fatalf("Run returned %v after the stop, want under 250ms", took)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Run still waiting for its fetch 5s after the stop")
			}
		})
	}
}

func TestEngineLabeledPattern(t *testing.T) {
	g0 := graph.RMATDefault(100, 500, 23)
	g, err := g0.WithLabels(graph.RandomLabels(100, 3, 42))
	if err != nil {
		t.Fatal(err)
	}
	pat := pattern.PathP(3).WithLabels([]graph.Label{0, 1, 2})
	pl := plan.MustCompile(pat, plan.Options{Style: plan.StyleGraphPi})
	want := plan.BruteForceCount(g, pat, false)
	got, _ := runCluster(t, g, pl, 3, core.Config{Threads: 2})
	if got != want {
		t.Fatalf("labeled path: engine %d, brute force %d", got, want)
	}
}

func TestEngineMetricsPopulated(t *testing.T) {
	g := graph.RMATDefault(150, 900, 31)
	pl := plan.MustCompile(pattern.Clique(4), plan.Options{Style: plan.StyleGraphPi})
	_, met := runCluster(t, g, pl, 3, core.Config{Threads: 2, HDS: true})
	s := met.Summarize()
	if s.Extensions == 0 {
		t.Error("no extensions recorded")
	}
	if s.Fetches == 0 {
		t.Error("no fetches recorded")
	}
	if s.Matches == 0 {
		t.Error("no matches recorded")
	}
	if s.Breakdown.Compute == 0 {
		t.Error("no compute time recorded")
	}
}

func TestEngineVCSOffStillCorrect(t *testing.T) {
	g := graph.RMATDefault(100, 600, 37)
	for _, disable := range []bool{false, true} {
		pl := plan.MustCompile(pattern.Clique(5), plan.Options{Style: plan.StyleGraphPi, DisableVCS: disable})
		want := plan.CountGraph(pl, g)
		got, _ := runCluster(t, g, pl, 3, core.Config{Threads: 2})
		if got != want {
			t.Errorf("VCS disable=%v: got %d, want %d", disable, got, want)
		}
	}
}

func TestEngineStrictPipelineCorrect(t *testing.T) {
	g := graph.RMATDefault(150, 900, 61)
	pl := plan.MustCompile(pattern.Clique(4), plan.Options{Style: plan.StyleGraphPi})
	want := plan.CountGraph(pl, g)
	got, met := runCluster(t, g, pl, 4, core.Config{Threads: 2, StrictPipeline: true, HDS: true})
	if got != want {
		t.Fatalf("strict pipeline: %d, want %d", got, want)
	}
	if met.Summarize().BytesSent == 0 {
		t.Fatal("no traffic under strict pipelining")
	}
}

func TestPropertyEngineMatchesBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 15 + rng.Intn(40)
		g := graph.Uniform(n, uint64(rng.Intn(5*n)), rng.Int63())
		pats := []*pattern.Pattern{
			pattern.Triangle(), pattern.CycleP(4), pattern.Clique(4), pattern.PathP(4),
		}
		pat := pats[rng.Intn(len(pats))]
		induced := rng.Intn(2) == 0
		nodes := 1 + rng.Intn(4)
		chunk := 1 << uint(rng.Intn(8))
		pl := plan.MustCompile(pat, plan.Options{Style: plan.StyleGraphPi, Induced: induced})
		want := plan.BruteForceCount(g, pat, induced)
		var got uint64
		tt := &testing.T{}
		got, _ = runCluster(tt, g, pl, nodes, core.Config{Threads: 2, ChunkSize: chunk, HDS: rng.Intn(2) == 0})
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

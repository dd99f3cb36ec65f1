package main

import (
	"fmt"
	"time"

	"khuzdul/internal/apps"
	"khuzdul/internal/cluster"
	"khuzdul/internal/core"
	"khuzdul/internal/fsm"
	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
	"khuzdul/internal/service"
)

// params are the knobs one invocation applies to every workload.
type params struct {
	seed int64
	// scale multiplies every graph's vertex and edge counts (and the FSM
	// support threshold); 1 is the measured size, the smoke test uses 0.05.
	scale float64
}

func (p params) vertices(base int) int {
	if n := int(float64(base) * p.scale); n > 16 {
		return n
	}
	return 16
}

func (p params) edges(base uint64) uint64 {
	if m := uint64(float64(base) * p.scale); m > 32 {
		return m
	}
	return 32
}

// shape is an R-MAT graph preset: the harness datasets' sizes and skews, but
// generated from the invocation's seed instead of the harness's fixed ones.
type shape struct {
	vertices int
	edges    uint64 // requested; dedup leaves fewer
	skew     float64
	labels   int
}

// generate builds the shape's graph for workload number i. Every graph is
// vertex-labeled — unlabeled plans ignore labels, and cluster.run_floor_s
// needs a label no vertex carries.
func (s shape) generate(p params, i int64) (*graph.Graph, error) {
	rest := (1 - s.skew) / 3
	g := graph.RMAT(p.vertices(s.vertices), p.edges(s.edges), s.skew, rest, rest, p.seed+2*i)
	return g.WithLabels(graph.RandomLabels(g.NumVertices(), s.labels, p.seed+2*i+1))
}

// workload is one named input-plus-configuration the benchmark measures.
type workload struct {
	name string
	why  string
	// index separates the workloads' generator seeds; it is spelled out, not
	// the slice position, so reordering the table keeps every graph.
	index  int64
	shape  shape
	config cluster.Config
	// plans compiles what one query counts (engine workloads) or a
	// representative plan for the traced replica (fsm, serve).
	plans func(in *instance) ([]*plan.Plan, error)
	// oracle computes the reference result once, outside every timing.
	oracle func(in *instance) error
	// query runs one complete query and checks it against the reference.
	// Nil for the service workload, whose clients drive queries themselves.
	query func(in *instance) error
	// materialize makes the replica deliver every embedding to a sink, the
	// path FSM's domain sinks take.
	materialize bool
}

// instance is one set-up of a workload: inputs, cluster and (service only)
// the resident server with its clients.
type instance struct {
	w   *workload
	p   params
	g   *graph.Graph
	cl  *cluster.Cluster
	ref *reference

	srv     *service.Server
	clients []*service.Client

	generateS, clusterNewS, setupS float64
}

// reference holds the oracle's results; it depends only on the seeded
// inputs, so repeated set-ups of one invocation share it.
type reference struct {
	counts   map[string]uint64 // plan or pattern name → match count
	frequent map[string]uint64 // canonical pattern code → MNI support
	// patterns is the oracle's frequent list, sorted by edge count, then
	// support descending.
	patterns []fsm.FrequentPattern
	examined int
	// elapsed is the oracle's own run time (plan.ref_count_s).
	elapsed time.Duration
}

const (
	fsmSupport  = 160
	fsmMaxEdges = 3
)

var workloads = []*workload{
	{
		name:  "tc-uk-1n",
		why:   "Triangle count on the skewed uk shape, 1 node x 2 threads, no cache: >=99% compute, the Table-3 engine-tax workload where setops and core do all the work and comm none.",
		index: 0,
		shape: shape{vertices: 30000, edges: 700000, skew: 0.65, labels: 4},
		config: cluster.Config{
			NumNodes: 1, ThreadsPerSocket: 2,
		},
		plans:  patternPlans(false, pattern.Triangle()),
		oracle: countOracle,
		query:  countQuery(func(in *instance) (cluster.Result, error) { return apps.TriangleCount(in.cl, apps.KAutomine) }),
	},
	{
		name:  "cc4-lj-8n-tcp",
		why:   "4-clique on the lj shape, 8 nodes over TCP with a 10% static cache: the full distributed path, network ~60% of busy time, cache and HDS hits, stored VCS intermediates.",
		index: 1,
		shape: shape{vertices: 12000, edges: 108000, skew: 0.57, labels: 8},
		config: cluster.Config{
			NumNodes: 8, ThreadsPerSocket: 1, Transport: cluster.TransportTCP,
			CacheFraction: 0.10, CacheDegreeThreshold: 8,
		},
		plans:  patternPlans(false, pattern.Clique(4)),
		oracle: countOracle,
		query:  countQuery(func(in *instance) (cluster.Result, error) { return apps.CliqueCount(in.cl, 4, apps.KAutomine) }),
	},
	{
		name:  "mc3-pt-8n-tcp",
		why:   "3-motif (induced wedge + triangle) on the mildly skewed pt shape x4, 8 nodes over TCP, no cache: tiny lists, so fetch batching, codec and per-embedding overhead dominate; Subtract beside Intersect.",
		index: 2,
		shape: shape{vertices: 48000, edges: 240000, skew: 0.42, labels: 6},
		config: cluster.Config{
			NumNodes: 8, ThreadsPerSocket: 1, Transport: cluster.TransportTCP,
		},
		plans:  patternPlans(true, pattern.ConnectedPatterns(3)...),
		oracle: countOracle,
		query: countQuery(func(in *instance) (cluster.Result, error) {
			_, total, err := apps.MotifCount(in.cl, 3, apps.KAutomine)
			return total, err
		}),
	},
	{
		name:  "fsm-mc-8n",
		why:   "FSM (MNI support, <=3 edges) on a small 4-label graph, 8 nodes: 286 candidate patterns, each a labeled compile plus a full cluster run into a materializing sink; per-run set-up sits in the loop.",
		index: 3,
		// The mc preset's skew (0.55) put query_s 38% apart between seeds:
		// 3-edge stars cost sum(deg^3), which a heavy tail makes seed-
		// sensitive, and a threshold near the 2-edge supports flips how many
		// candidates are generated. Skew 0.40 and a threshold well below
		// every 2-edge support keep the candidate set at 286 on every seed.
		shape: shape{vertices: 1600, edges: 9600, skew: 0.40, labels: 4},
		config: cluster.Config{
			NumNodes: 8, ThreadsPerSocket: 1,
		},
		plans:       fsmPlans,
		oracle:      fsmOracle,
		query:       fsmQuery,
		materialize: true,
	},
	{
		name:  "serve-mix-lj",
		why:   "Resident query server on the lj shape x0.25, 4 nodes x 2 threads over TCP, shared warm cache: closed loop of 2 clients over six patterns; the submit-admit-run-result path under concurrency.",
		index: 4,
		shape: shape{vertices: 3000, edges: 27000, skew: 0.57, labels: 8},
		config: cluster.Config{
			NumNodes: 4, ThreadsPerSocket: 2, Transport: cluster.TransportTCP,
			CacheFraction: 0.10, CacheDegreeThreshold: 8, SharedCache: true,
		},
		plans:  patternPlans(false, pattern.Clique(4)),
		oracle: serveOracle,
	},
}

// tailQuantile is what query_tail_s reports. The service loop yields hundreds
// of samples and a real queueing tail, so p90. A batch workload runs one
// query at a time — its tail is interference, not queueing — and yields tens
// of samples, too few beyond p90 for it to repeat; it reports the upper
// quartile.
func (w *workload) tailQuantile() float64 {
	if w.query == nil {
		return 0.90
	}
	return 0.75
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// setUp generates the workload's inputs and brings its cluster (and server)
// up. Everything in here is what setup_s times.
func (w *workload) setUp(p params, ref *reference) (*instance, error) {
	in := &instance{w: w, p: p, ref: ref}
	t0 := time.Now()
	g, err := w.shape.generate(p, w.index)
	if err != nil {
		return nil, fmt.Errorf("%s: generate: %w", w.name, err)
	}
	in.g = g
	in.generateS = time.Since(t0).Seconds()

	t1 := time.Now()
	in.cl, err = cluster.New(g, w.config)
	if err != nil {
		return nil, fmt.Errorf("%s: cluster: %w", w.name, err)
	}
	in.clusterNewS = time.Since(t1).Seconds()

	if w.query == nil {
		if err := in.openService(); err != nil {
			in.close()
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	in.setupS = time.Since(t0).Seconds()
	return in, nil
}

func (in *instance) close() {
	in.closeService()
	in.cl.Close()
}

// patternPlans compiles fixed patterns the way the apps package does.
func patternPlans(induced bool, pats ...*pattern.Pattern) func(*instance) ([]*plan.Plan, error) {
	return func(in *instance) ([]*plan.Plan, error) {
		plans := make([]*plan.Plan, 0, len(pats))
		for _, pat := range pats {
			pl, err := apps.Compile(apps.KAutomine, pat, in.g, apps.CompileOptions{Induced: induced})
			if err != nil {
				return nil, err
			}
			plans = append(plans, pl)
		}
		return plans, nil
	}
}

// countOracle sums plan.CountGraph — the single-threaded reference executor
// that shares no code with the engine — over the workload's plans.
func countOracle(in *instance) error {
	plans, err := in.w.plans(in)
	if err != nil {
		return err
	}
	t0 := time.Now()
	var total uint64
	for _, pl := range plans {
		total += plan.CountGraph(pl, in.g)
	}
	in.ref.elapsed = time.Since(t0)
	in.ref.counts = map[string]uint64{"total": total}
	return nil
}

func countQuery(run func(in *instance) (cluster.Result, error)) func(*instance) error {
	return func(in *instance) error {
		res, err := run(in)
		if err != nil {
			return err
		}
		if want := in.ref.counts["total"]; res.Count != want {
			return fmt.Errorf("count %d, oracle %d", res.Count, want)
		}
		if res.RecoveryRounds != 0 {
			return fmt.Errorf("%d recovery rounds on a healthy cluster", res.RecoveryRounds)
		}
		return nil
	}
}

func (in *instance) fsmConfig() fsm.Config {
	sup := uint64(float64(fsmSupport) * in.p.scale)
	if sup < 2 {
		sup = 2
	}
	return fsm.Config{MinSupport: sup, MaxEdges: fsmMaxEdges, Style: plan.StyleAutomine}
}

// fsmOracle mines on one machine with the plan executor, no cluster.
func fsmOracle(in *instance) error {
	t0 := time.Now()
	res, err := fsm.MineSingle(in.g, in.fsmConfig(), 1)
	if err != nil {
		return err
	}
	in.ref.elapsed = time.Since(t0)
	in.ref.examined = res.Examined
	in.ref.patterns = res.Frequent
	in.ref.frequent = make(map[string]uint64, len(res.Frequent))
	for _, fp := range res.Frequent {
		in.ref.frequent[pattern.CanonicalCode(fp.Pattern)] = fp.Support
	}
	// At full size the candidate count says which regime the run is in; far
	// outside it the timings mean something else.
	if in.p.scale == 1 && (res.Examined < 100 || res.Examined > 600) {
		return fmt.Errorf("seed %d examines %d candidate patterns, outside [100, 600]", in.p.seed, res.Examined)
	}
	return nil
}

func fsmQuery(in *instance) error {
	res, err := fsm.Mine(in.cl, in.fsmConfig())
	if err != nil {
		return err
	}
	if res.Examined != in.ref.examined || len(res.Frequent) != len(in.ref.frequent) {
		return fmt.Errorf("examined %d frequent %d, oracle %d and %d",
			res.Examined, len(res.Frequent), in.ref.examined, len(in.ref.frequent))
	}
	for _, fp := range res.Frequent {
		code := pattern.CanonicalCode(fp.Pattern)
		if want, ok := in.ref.frequent[code]; !ok || want != fp.Support {
			return fmt.Errorf("pattern %s support %d, oracle %d (frequent there: %v)", fp.Pattern, fp.Support, want, ok)
		}
	}
	return nil
}

// fsmPlans picks the replica's plan: the best-supported largest frequent
// pattern, compiled exactly as fsm compiles it (no symmetry breaking — MNI
// needs every position image).
func fsmPlans(in *instance) ([]*plan.Plan, error) {
	if len(in.ref.patterns) == 0 {
		return nil, fmt.Errorf("no frequent pattern to trace")
	}
	best := in.ref.patterns[len(in.ref.patterns)-1]
	for _, fp := range in.ref.patterns {
		if fp.Pattern.NumEdges() == best.Pattern.NumEdges() {
			best = fp
			break
		}
	}
	pl, err := plan.Compile(best.Pattern, plan.Options{
		Style: plan.StyleAutomine, DisableSymmetryBreak: true, Stats: plan.StatsOf(in.g),
	})
	if err != nil {
		return nil, err
	}
	return []*plan.Plan{pl}, nil
}

// noopSink takes every embedding and keeps none: the cheapest sink that
// still forces the engine to materialize the last level.
func noopSink() core.Sink { return &core.FuncSink{F: func([]graph.VertexID) {}} }

// floorPlan is a labeled single-edge plan whose label no vertex carries, so
// no root is admitted and a run is pure per-run set-up and tear-down.
func floorPlan() (*plan.Plan, error) {
	const absent = graph.Label(1 << 20)
	pat := pattern.PathP(2).WithLabels([]graph.Label{absent, absent})
	return plan.Compile(pat, plan.Options{Style: plan.StyleAutomine})
}

// Command khuzdul runs one graph pattern mining job on the simulated
// Khuzdul cluster.
//
// Usage examples:
//
//	khuzdul -graph rmat:100000:1000000 -app tc -nodes 8 -threads 4
//	khuzdul -graph preset:lj -app cc -k 5 -system automine
//	khuzdul -graph graph.bin -app pattern -pattern house -induced
//	khuzdul -graph preset:mc -app fsm -support 150
//
// Mining-as-a-service: `khuzdul serve` keeps a cluster resident and answers
// pattern queries over TCP; `khuzdul query` submits one; `khuzdul health`
// probes a running server:
//
//	khuzdul serve -graph preset:lj -addr 127.0.0.1:7747 -window 4 -drain-timeout 10s
//	khuzdul query -addr 127.0.0.1:7747 -pattern house -induced -deadline 30s
//	khuzdul health -addr 127.0.0.1:7747
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"khuzdul"
	"khuzdul/internal/graph"
	"khuzdul/internal/harness"
	"khuzdul/internal/pattern"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			runServe(os.Args[2:])
			return
		case "query":
			runQuery(os.Args[2:])
			return
		case "health":
			runHealth(os.Args[2:])
			return
		}
	}
	runMine()
}

func runMine() {
	var cf clusterFlags
	cf.register(flag.CommandLine)
	flag.StringVar(&cf.cachePol, "cache-policy", "static", "cache policy: static, fifo, lifo, lru, mru")
	flag.UintVar(&cf.cacheDeg, "cache-threshold", 8, "static cache degree admission threshold")
	flag.BoolVar(&cf.noHDS, "no-hds", false, "disable horizontal data sharing")
	flag.StringVar(&cf.faultProf, "fault-profile", "", "deterministic fault injection spec, e.g. seed=7,err=0.05,corrupt=0.01,drop=0.01,partition=0|1@500,slow=2:20,crash=2@500 (empty disables)")
	flag.DurationVar(&cf.fetchTO, "fetch-timeout", 0, "per-fetch-attempt timeout; enables the resilience layer (0 = default 250ms when enabled)")
	flag.IntVar(&cf.retries, "retries", 0, "retry budget per fetch; enables the resilience layer (0 = default 5 when enabled)")
	flag.BoolVar(&cf.speculate, "speculate", false, "re-execute straggler root ranges on idle machines; enables the resilience layer")
	var (
		graphSpec = flag.String("graph", "rmat:10000:100000", "input graph: FILE (.bin or edge list), rmat:N:M[:SEED], uniform:N:M[:SEED], or preset:ABBR")
		app       = flag.String("app", "tc", "application: tc, cc, mc, pattern, fsm")
		k         = flag.Int("k", 4, "pattern size for cc/mc")
		patName   = flag.String("pattern", "triangle", "pattern name for -app pattern")
		induced   = flag.Bool("induced", false, "induced matching semantics for -app pattern")
		system    = flag.String("system", "graphpi", "client system: automine or graphpi")
		support   = flag.Uint64("support", 100, "FSM minimum support")
		maxEdges  = flag.Int("max-edges", 3, "FSM maximum pattern edges")
		labels    = flag.Int("labels", 0, "synthesize N random vertex labels (needed for fsm on unlabeled inputs)")
		explain   = flag.Bool("explain", false, "print the compiled enumeration plan before running")
	)
	flag.Parse()

	cfg, err := validateFlags(*app, *k, *maxEdges, cf, 0, 0)
	if err != nil {
		fatal(err)
	}

	g, err := loadGraph(*graphSpec)
	if err != nil {
		fatal(err)
	}
	if *labels > 0 {
		g, err = g.WithLabels(graph.RandomLabels(g.NumVertices(), *labels, 1))
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("graph: %v\n", g)

	eng, err := khuzdul.Open(g, cfg)
	if err != nil {
		fatal(err)
	}
	defer eng.Close()
	switch strings.ToLower(*system) {
	case "automine":
		eng.SetSystem(khuzdul.Automine)
	case "graphpi":
		eng.SetSystem(khuzdul.GraphPi)
	default:
		fatal(fmt.Errorf("unknown system %q", *system))
	}

	if *explain {
		p, err := explainTarget(*app, *k, *patName)
		if err != nil {
			fatal(err)
		}
		var s string
		switch {
		case p != nil:
			s, err = eng.ExplainPattern(p, *induced)
		case strings.EqualFold(*app, "mc"):
			s, err = eng.ExplainMotifs(*k)
		}
		if err != nil {
			fatal(err)
		}
		if s != "" {
			fmt.Println(s)
		}
	}

	switch strings.ToLower(*app) {
	case "tc":
		report(eng.Triangles())
	case "cc":
		report(eng.Cliques(*k))
	case "mc":
		per, combined, err := eng.Motifs(*k)
		if err != nil {
			fatal(err)
		}
		for _, m := range per {
			fmt.Printf("  %v: %d\n", m.Pattern, m.Count)
		}
		report(combined, nil)
	case "pattern":
		p, err := khuzdul.ParsePattern(*patName)
		if err != nil {
			fatal(err)
		}
		report(eng.CountPattern(p, *induced))
	case "fsm":
		fps, elapsed, err := eng.MineFrequent(*support, *maxEdges)
		if err != nil {
			fatal(err)
		}
		for _, fp := range fps {
			fmt.Printf("  %v support=%d\n", fp.Pattern, fp.Support)
		}
		fmt.Printf("frequent patterns: %d in %v\n", len(fps), elapsed)
	default:
		fatal(fmt.Errorf("unknown app %q", *app))
	}
}

// runServe starts a resident query server: one warm cluster with shared
// static caches, answering pattern queries over TCP until interrupted.
func runServe(args []string) {
	fs := flag.NewFlagSet("khuzdul serve", flag.ExitOnError)
	var cf clusterFlags
	cf.register(fs)
	var (
		graphSpec = fs.String("graph", "rmat:10000:100000", "input graph: FILE (.bin or edge list), rmat:N:M[:SEED], uniform:N:M[:SEED], or preset:ABBR")
		addr      = fs.String("addr", "127.0.0.1:0", "listen address for the query endpoint")
		window    = fs.Int("window", 0, "admission window: queries executing at once (0 = default)")
		budget    = fs.Int("budget", 0, "worker threads per admitted query (0 = threads/window)")
		progress  = fs.Duration("progress", 0, "partial-count streaming interval (0 = default)")
		drainTO   = fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown grace: how long in-flight queries may finish before being hard-canceled")
		deadline  = fs.Duration("query-deadline", 0, "server-side cap on any query's execution time (0 = uncapped)")
	)
	fs.Parse(args)
	cfg, err := validateFlags("", 0, 0, cf, *drainTO, *deadline)
	if err != nil {
		fatal(err)
	}
	// The resident shape: a stream of queries shares the warm static caches.
	cfg.SharedCache = true
	g, err := loadGraph(*graphSpec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph: %v\n", g)
	eng, err := khuzdul.Open(g, cfg)
	if err != nil {
		fatal(err)
	}
	defer eng.Close()
	srv, err := eng.Serve(khuzdul.ServeConfig{
		Addr:             *addr,
		MaxConcurrent:    *window,
		WorkerBudget:     *budget,
		ProgressInterval: *progress,
		QueryDeadline:    *deadline,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("serving queries on %s\n", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("draining (up to %v for in-flight queries)\n", *drainTO)
	if err := srv.Drain(*drainTO); err != nil {
		fatal(err)
	}
	fmt.Println(srv.SummaryLine())
}

// runQuery submits one query to a resident server and prints the result
// (streaming partial counts with -progress).
func runQuery(args []string) {
	fs := flag.NewFlagSet("khuzdul query", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "", "query server address (required)")
		patName  = fs.String("pattern", "triangle", "pattern name or n:u-v,... edge list")
		planID   = fs.Uint("plan", 0, "re-submit a server-side plan ID instead of a pattern")
		induced  = fs.Bool("induced", false, "induced matching semantics")
		system   = fs.String("system", "graphpi", "client system: automine or graphpi")
		progress = fs.Bool("progress", false, "print streamed partial counts")
		timeout  = fs.Duration("timeout", 0, "handshake and per-write timeout (0 = default)")
		deadline = fs.Duration("deadline", 0, "server-side execution deadline for this query (0 = the server's cap, if any)")
	)
	fs.Parse(args)
	if *addr == "" {
		fatal(errors.New("query: -addr is required"))
	}
	if *deadline < 0 {
		fatal(fmt.Errorf("-deadline must not be negative, got %v", *deadline))
	}
	spec := khuzdul.QuerySpec{
		Pattern:  *patName,
		PlanID:   uint32(*planID),
		Induced:  *induced,
		Deadline: *deadline,
	}
	switch strings.ToLower(*system) {
	case "automine":
		spec.System = khuzdul.Automine
	case "graphpi":
		spec.System = khuzdul.GraphPi
	default:
		fatal(fmt.Errorf("unknown system %q", *system))
	}

	cli, err := khuzdul.DialQuery(*addr, *timeout)
	if err != nil {
		fatal(err)
	}
	defer cli.Close()
	q, err := cli.Submit(spec)
	if err != nil {
		fatal(err)
	}
	stop := make(chan struct{})
	if *progress {
		go func() {
			for {
				select {
				case p := <-q.Progress():
					fmt.Printf("progress: %d\n", p)
				case <-stop:
					return
				}
			}
		}()
	}
	out, err := q.Result()
	close(stop)
	switch {
	case errors.Is(err, khuzdul.ErrQueryDraining):
		fmt.Fprintf(os.Stderr, "khuzdul: %v\n", err)
		fmt.Fprintln(os.Stderr, "the server is draining for shutdown; the query never started — resubmit against another replica")
		os.Exit(1)
	case errors.Is(err, khuzdul.ErrQueryRejected):
		fmt.Fprintf(os.Stderr, "khuzdul: %v\n", err)
		fmt.Fprintln(os.Stderr, "the server's admission window is full; the query never started — resubmit when a slot frees")
		os.Exit(1)
	case errors.Is(err, khuzdul.ErrQueryDeadlineExceeded):
		fmt.Fprintf(os.Stderr, "khuzdul: %v\n", err)
		fmt.Fprintln(os.Stderr, "the query's deadline fired mid-run — resubmit with a larger -deadline or ask the operator to raise -query-deadline")
		os.Exit(1)
	case err != nil:
		fatal(err)
	}
	fmt.Printf("count: %d\nelapsed: %v\n", out.Count, out.Elapsed)
	if out.PlanID != 0 {
		fmt.Printf("plan: %d (resubmit with -plan %d to skip compilation)\n", out.PlanID, out.PlanID)
	}
}

// runHealth probes a resident server and prints its fitness: drain state,
// admission load, lifetime counters, and suspected-dead cluster nodes.
func runHealth(args []string) {
	fs := flag.NewFlagSet("khuzdul health", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "", "query server address (required)")
		timeout = fs.Duration("timeout", 0, "handshake and per-write timeout (0 = default)")
	)
	fs.Parse(args)
	if *addr == "" {
		fatal(errors.New("health: -addr is required"))
	}
	cli, err := khuzdul.DialQuery(*addr, *timeout)
	if err != nil {
		fatal(err)
	}
	defer cli.Close()
	h, err := cli.Health()
	if err != nil {
		fatal(err)
	}
	state := "serving"
	if h.Draining {
		state = "draining"
	}
	fmt.Printf("state: %s\nactive queries: %d / %d\nsubmitted: %d\ndeadline exceeded: %d\n",
		state, h.ActiveQueries, h.Window, h.Submitted, h.DeadlineExceeded)
	if len(h.SuspectNodes) > 0 {
		fmt.Printf("suspect nodes: %v (shards re-partitioned onto survivors)\n", h.SuspectNodes)
	} else {
		fmt.Println("suspect nodes: none")
	}
	if h.Draining {
		os.Exit(1)
	}
}

// clusterFlags holds the flag values that configure the simulated cluster.
// Mining runs and `khuzdul serve` share the sizing flags (register); the
// resilience and cache-design flags are the mining run's alone, and serve
// leaves them at their zero value.
type clusterFlags struct {
	nodes, sockets, threads, chunk, retries int
	cacheFrac                               float64
	cacheDeg                                uint
	cachePol, faultProf                     string
	fetchTO                                 time.Duration
	noHDS, tcp, speculate                   bool
}

// register defines the sizing flags on fs.
func (f *clusterFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&f.nodes, "nodes", 8, "simulated machine count")
	fs.IntVar(&f.sockets, "sockets", 1, "NUMA sockets per machine")
	fs.IntVar(&f.threads, "threads", 2, "compute threads per socket")
	fs.IntVar(&f.chunk, "chunk", 0, "chunk capacity in embeddings (0 = default)")
	fs.Float64Var(&f.cacheFrac, "cache", 0.1, "static cache size as fraction of graph size (0 disables)")
	fs.BoolVar(&f.tcp, "tcp", false, "use the loopback TCP fabric between cluster nodes")
}

// validateFlags rejects nonsensical settings up front, before any graph
// loading, and returns the cluster configuration the flags describe — the
// alternative is a partition panic or a silently useless retry budget deep
// inside a run. What only the command line forbids (the job's sizes, zero
// machines, sockets or threads, a threshold that would wrap, negative serve
// durations, an unparsable spec) names the flag; the rest is
// khuzdul.Config.Validate, the check Open applies, which names the field.
// app, k and maxEdges are the mining job's (serve passes "").
func validateFlags(app string, k, maxEdges int, f clusterFlags, drainTO, queryDeadline time.Duration) (khuzdul.Config, error) {
	var cfg khuzdul.Config
	switch {
	case strings.EqualFold(app, "mc"):
		if err := pattern.CheckMotifSize(k); err != nil {
			return cfg, fmt.Errorf("bad -k for -app mc: %w", err)
		}
	case strings.EqualFold(app, "cc"):
		if k < 2 || k > pattern.MaxVertices {
			return cfg, fmt.Errorf("bad -k for -app cc: k must be in [2,%d], got %d", pattern.MaxVertices, k)
		}
	case strings.EqualFold(app, "fsm"):
		if maxEdges < 1 {
			return cfg, fmt.Errorf("bad -max-edges for -app fsm: must be at least 1, got %d", maxEdges)
		}
	}
	for _, c := range []struct {
		flag string
		n    int
	}{{"-nodes", f.nodes}, {"-sockets", f.sockets}, {"-threads", f.threads}} {
		if c.n <= 0 {
			return cfg, fmt.Errorf("%s must be positive, got %d", c.flag, c.n)
		}
	}
	if f.cacheDeg > math.MaxUint32 {
		return cfg, fmt.Errorf("-cache-threshold must be at most %d, got %d", uint32(math.MaxUint32), f.cacheDeg)
	}
	if drainTO < 0 {
		return cfg, fmt.Errorf("-drain-timeout must not be negative, got %v", drainTO)
	}
	if queryDeadline < 0 {
		return cfg, fmt.Errorf("-query-deadline must not be negative, got %v", queryDeadline)
	}
	prof, err := khuzdul.ParseFaultProfile(f.faultProf)
	if err != nil {
		return cfg, fmt.Errorf("bad -fault-profile: %w", err)
	}
	pol, err := khuzdul.ParseCachePolicy(f.cachePol)
	if err != nil {
		return cfg, fmt.Errorf("bad -cache-policy: %w", err)
	}
	cfg = khuzdul.Config{
		NumNodes:             f.nodes,
		Sockets:              f.sockets,
		ThreadsPerSocket:     f.threads,
		ChunkSize:            f.chunk,
		CacheFraction:        f.cacheFrac,
		CachePolicy:          pol,
		CacheDegreeThreshold: uint32(f.cacheDeg),
		DisableHDS:           f.noHDS,
		Fault:                prof,
		FetchTimeout:         f.fetchTO,
		FetchRetries:         f.retries,
		Speculate:            f.speculate,
	}
	if f.tcp {
		cfg.Transport = khuzdul.TransportTCP
	}
	return cfg, cfg.Validate()
}

// explainTarget resolves the single pattern an -explain request refers to
// (nil for multi-pattern apps: mc explains its whole set, fsm prints nothing).
func explainTarget(app string, k int, patName string) (*khuzdul.Pattern, error) {
	switch strings.ToLower(app) {
	case "tc":
		return khuzdul.ParsePattern("triangle")
	case "cc":
		return khuzdul.Clique(k), nil
	case "pattern":
		return khuzdul.ParsePattern(patName)
	default:
		return nil, nil
	}
}

func report(res khuzdul.Result, err error) {
	if err != nil {
		fatal(err)
	}
	s := res.Summary
	fmt.Printf("count: %d\nelapsed: %v\ntraffic: %s\ncache hit rate: %.1f%%\nextensions: %d\n",
		res.Count, res.Elapsed, harness.FmtBytes(s.BytesSent),
		100*s.CacheHitRate(), s.Extensions)
	if s.FaultsInjected > 0 || s.FetchRetries > 0 || res.RecoveryRounds > 0 ||
		s.CorruptFrames > 0 || s.SpeculativeRanges > 0 {
		fmt.Printf("resilience: %d faults injected, %d retries, %d recovery rounds, %d roots recovered, dead nodes %v\n",
			s.FaultsInjected, s.FetchRetries, res.RecoveryRounds, s.RecoveredRoots, res.DeadNodes)
		fmt.Printf("  wire: %d corrupt frames rejected, %d redials\n",
			s.CorruptFrames, s.Redials)
		fmt.Printf("  speculation: %d ranges re-executed, %d wins\n",
			s.SpeculativeRanges, s.SpeculationWins)
	}
	if s.KernelMerge+s.KernelGallop+s.KernelProbe > 0 {
		fmt.Printf("kernels: %d merge, %d gallop", s.KernelMerge, s.KernelGallop)
		if s.KernelProbe > 0 {
			fmt.Printf(", %d probe", s.KernelProbe)
		}
		if s.KernelBitmap > 0 {
			fmt.Printf(", %d bitmap (dense suffix)", s.KernelBitmap)
		}
		fmt.Println()
	}
	if s.PipelinedFetches > 0 || s.InFlightPeak > 0 {
		fmt.Printf("transport: %d TCP fetches, in-flight peak %d\n",
			s.PipelinedFetches, s.InFlightPeak)
	}
}

func loadGraph(spec string) (*khuzdul.Graph, error) {
	switch {
	case strings.HasPrefix(spec, "rmat:"), strings.HasPrefix(spec, "uniform:"):
		parts := strings.Split(spec, ":")
		if len(parts) < 3 {
			return nil, fmt.Errorf("bad graph spec %q (want kind:N:M[:SEED])", spec)
		}
		n, err1 := strconv.Atoi(parts[1])
		m, err2 := strconv.ParseUint(parts[2], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad graph spec %q", spec)
		}
		if n < 0 || n < 2 && m > 0 {
			return nil, fmt.Errorf("bad graph spec %q: %d vertices cannot hold %d edges", spec, n, m)
		}
		seed := int64(42)
		if len(parts) > 3 {
			s, err := strconv.ParseInt(parts[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad seed in %q", spec)
			}
			seed = s
		}
		if strings.HasPrefix(spec, "rmat:") {
			return khuzdul.RMAT(n, m, seed), nil
		}
		return khuzdul.Uniform(n, m, seed), nil
	case strings.HasPrefix(spec, "preset:"):
		d, err := harness.GetDataset(strings.TrimPrefix(spec, "preset:"))
		if err != nil {
			return nil, err
		}
		return d.Generate(1), nil
	default:
		f, err := os.Open(spec)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if strings.HasSuffix(spec, ".bin") {
			return khuzdul.ReadBinary(f)
		}
		return khuzdul.ReadEdgeList(f)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "khuzdul:", err)
	os.Exit(1)
}

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
	"khuzdul/internal/fault"
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
	var (
		graphSpec = flag.String("graph", "rmat:10000:100000", "input graph: FILE (.bin or edge list), rmat:N:M[:SEED], uniform:N:M[:SEED], or preset:ABBR")
		app       = flag.String("app", "tc", "application: tc, cc, mc, pattern, fsm")
		k         = flag.Int("k", 4, "pattern size for cc/mc")
		patName   = flag.String("pattern", "triangle", "pattern name for -app pattern")
		induced   = flag.Bool("induced", false, "induced matching semantics for -app pattern")
		system    = flag.String("system", "graphpi", "client system: automine or graphpi")
		nodes     = flag.Int("nodes", 8, "simulated machine count")
		sockets   = flag.Int("sockets", 1, "NUMA sockets per machine")
		threads   = flag.Int("threads", 2, "compute threads per socket")
		chunk     = flag.Int("chunk", 0, "chunk capacity in embeddings (0 = default)")
		cacheFrac = flag.Float64("cache", 0.1, "static cache size as fraction of graph size (0 disables)")
		cachePol  = flag.String("cache-policy", "static", "cache policy: static, fifo, lifo, lru, mru")
		cacheDeg  = flag.Uint("cache-threshold", 8, "static cache degree admission threshold")
		noHDS     = flag.Bool("no-hds", false, "disable horizontal data sharing")
		tcp       = flag.Bool("tcp", false, "use the loopback TCP fabric")
		inflight  = flag.Int("inflight", 0, "multiplexed requests kept in flight per TCP peer connection (0 = default 16)")
		faultProf = flag.String("fault-profile", "", "deterministic fault injection spec, e.g. seed=7,err=0.05,corrupt=0.01,drop=0.01,partition=0|1@500,slow=2:20,crash=2@500 (empty disables)")
		fetchTO   = flag.Duration("fetch-timeout", 0, "per-fetch-attempt timeout; enables the resilience layer (0 = default 250ms when enabled)")
		retries   = flag.Int("retries", 0, "retry budget per fetch; enables the resilience layer (0 = default 5 when enabled)")
		heartbeat = flag.Bool("heartbeat", false, "run the heartbeat failure detector; enables the resilience layer")
		speculate = flag.Bool("speculate", false, "re-execute straggler root ranges on idle machines; enables the resilience layer")
		support   = flag.Uint64("support", 100, "FSM minimum support")
		maxEdges  = flag.Int("max-edges", 3, "FSM maximum pattern edges")
		labels    = flag.Int("labels", 0, "synthesize N random vertex labels (needed for fsm on unlabeled inputs)")
		explain   = flag.Bool("explain", false, "print the compiled enumeration plan before running")
	)
	flag.Parse()

	if err := validateFlags(*app, *k, *nodes, *sockets, *threads, *retries, *inflight, *cacheFrac, *cacheDeg, *fetchTO, 0, 0, *faultProf); err != nil {
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

	eng, err := khuzdul.Open(g, khuzdul.Config{
		Nodes:                *nodes,
		Sockets:              *sockets,
		Threads:              *threads,
		ChunkSize:            *chunk,
		CacheFraction:        *cacheFrac,
		CachePolicy:          *cachePol,
		CacheDegreeThreshold: uint32(*cacheDeg),
		DisableHDS:           *noHDS,
		TCP:                  *tcp,
		InFlight:             *inflight,
		FaultProfile:         *faultProf,
		FetchTimeout:         *fetchTO,
		FetchRetries:         *retries,
		Heartbeat:            *heartbeat,
		Speculate:            *speculate,
	})
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
	var (
		graphSpec = fs.String("graph", "rmat:10000:100000", "input graph: FILE (.bin or edge list), rmat:N:M[:SEED], uniform:N:M[:SEED], or preset:ABBR")
		nodes     = fs.Int("nodes", 8, "simulated machine count")
		sockets   = fs.Int("sockets", 1, "NUMA sockets per machine")
		threads   = fs.Int("threads", 2, "compute threads per socket")
		chunk     = fs.Int("chunk", 0, "chunk capacity in embeddings (0 = default)")
		cacheFrac = fs.Float64("cache", 0.1, "static cache size as fraction of graph size (0 disables)")
		tcp       = fs.Bool("tcp", false, "use the loopback TCP fabric between cluster nodes")
		addr      = fs.String("addr", "127.0.0.1:0", "listen address for the query endpoint")
		window    = fs.Int("window", 0, "admission window: queries executing at once (0 = default)")
		budget    = fs.Int("budget", 0, "worker threads per admitted query (0 = threads/window)")
		progress  = fs.Duration("progress", 0, "partial-count streaming interval (0 = default)")
		drainTO   = fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown grace: how long in-flight queries may finish before being hard-canceled")
		deadline  = fs.Duration("query-deadline", 0, "server-side cap on any query's execution time (0 = uncapped)")
	)
	fs.Parse(args)
	if err := validateFlags("", 0, *nodes, *sockets, *threads, 0, 0, *cacheFrac, 0, 0, *drainTO, *deadline, ""); err != nil {
		fatal(err)
	}
	g, err := loadGraph(*graphSpec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph: %v\n", g)
	eng, err := khuzdul.Open(g, khuzdul.Config{
		Nodes:         *nodes,
		Sockets:       *sockets,
		Threads:       *threads,
		ChunkSize:     *chunk,
		CacheFraction: *cacheFrac,
		TCP:           *tcp,
		SharedCache:   true,
	})
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

// validateFlags rejects nonsensical application, cluster and resilience
// settings up front, before any graph loading, with errors that name the
// flag — the alternative is a partition panic or a silently useless retry
// budget deep inside a run. app and k are the mining job's (serve passes "").
func validateFlags(app string, k, nodes, sockets, threads, retries, inflight int, cacheFrac float64, cacheThreshold uint, fetchTO, drainTO, queryDeadline time.Duration, faultProf string) error {
	switch {
	case strings.EqualFold(app, "mc"):
		if err := pattern.CheckMotifSize(k); err != nil {
			return fmt.Errorf("bad -k for -app mc: %w", err)
		}
	case strings.EqualFold(app, "cc"):
		if k < 2 || k > pattern.MaxVertices {
			return fmt.Errorf("bad -k for -app cc: k must be in [2,%d], got %d", pattern.MaxVertices, k)
		}
	}
	if nodes <= 0 {
		return fmt.Errorf("-nodes must be positive, got %d", nodes)
	}
	if sockets <= 0 {
		return fmt.Errorf("-sockets must be positive, got %d", sockets)
	}
	if threads <= 0 {
		return fmt.Errorf("-threads must be positive, got %d", threads)
	}
	if retries < 0 {
		return fmt.Errorf("-retries must not be negative, got %d", retries)
	}
	if inflight < 0 {
		return fmt.Errorf("-inflight must not be negative, got %d", inflight)
	}
	if math.IsNaN(cacheFrac) || math.IsInf(cacheFrac, 0) || cacheFrac < 0 {
		return fmt.Errorf("-cache must be a finite, non-negative fraction of the graph size, got %v", cacheFrac)
	}
	if cacheThreshold > math.MaxUint32 {
		return fmt.Errorf("-cache-threshold must be at most %d, got %d", uint32(math.MaxUint32), cacheThreshold)
	}
	if fetchTO < 0 {
		return fmt.Errorf("-fetch-timeout must not be negative, got %v", fetchTO)
	}
	if drainTO < 0 {
		return fmt.Errorf("-drain-timeout must not be negative, got %v", drainTO)
	}
	if queryDeadline < 0 {
		return fmt.Errorf("-query-deadline must not be negative, got %v", queryDeadline)
	}
	if _, err := fault.ParseProfile(faultProf); err != nil {
		return fmt.Errorf("bad -fault-profile: %w", err)
	}
	return nil
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
	fmt.Printf("count: %d\nelapsed: %v\ntraffic: %s\ncache hit rate: %.1f%%\nextensions: %d\n",
		res.Count, res.Elapsed, harness.FmtBytes(res.TrafficBytes),
		100*res.CacheHitRate, res.Extensions)
	if res.FaultsInjected > 0 || res.FetchRetries > 0 || res.RecoveryRounds > 0 ||
		res.CorruptFrames > 0 || res.HeartbeatMisses > 0 || res.SpeculativeRanges > 0 {
		fmt.Printf("resilience: %d faults injected, %d retries, %d recovery rounds, %d roots recovered, dead nodes %v\n",
			res.FaultsInjected, res.FetchRetries, res.RecoveryRounds, res.RecoveredRoots, res.DeadNodes)
		fmt.Printf("  wire: %d corrupt frames rejected, %d redials\n",
			res.CorruptFrames, res.Redials)
		fmt.Printf("  detector: %d heartbeat misses, %d nodes suspected\n",
			res.HeartbeatMisses, res.NodesSuspected)
		fmt.Printf("  speculation: %d ranges re-executed, %d wins\n",
			res.SpeculativeRanges, res.SpeculationWins)
	}
	if res.KernelMerge+res.KernelGallop > 0 {
		fmt.Printf("kernels: %d merge, %d gallop\n", res.KernelMerge, res.KernelGallop)
	}
	if res.PipelinedFetches > 0 || res.InFlightPeak > 0 {
		fmt.Printf("transport: %d pipelined fetches, in-flight peak %d\n",
			res.PipelinedFetches, res.InFlightPeak)
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

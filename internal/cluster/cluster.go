// Package cluster drives the simulated Khuzdul deployment: N machines, each
// holding one 1-D hash partition of the input graph, each running one engine
// instance per NUMA socket, all connected by a communication fabric
// (in-process or TCP loopback). It owns machine lifecycle, per-node caches,
// metric aggregation and result reduction — the pieces MPI plus the paper's
// launcher scripts provide on a real cluster.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"khuzdul/internal/cache"
	"khuzdul/internal/comm"
	"khuzdul/internal/core"
	"khuzdul/internal/fault"
	"khuzdul/internal/graph"
	"khuzdul/internal/metrics"
	"khuzdul/internal/partition"
	"khuzdul/internal/plan"
)

// ErrInvalidConfig marks a Config that New refuses: a negative count, size
// or duration, a non-finite or negative CacheFraction, an unknown Transport
// or CachePolicy, Speculate with SequentialNodes, or a Fault profile the
// cluster cannot honor. It is a configuration error, not a runtime fault:
// nothing ran yet.
var ErrInvalidConfig = errors.New("cluster: invalid config")

// ErrRunCanceled marks a run aborted by its RunOpts.Cancel channel. It is
// deliberate, not a fault: the run bypasses task-level recovery (which would
// re-execute the very work the caller asked to stop) and returns partial
// nothing — canceled counts are meaningless.
var ErrRunCanceled = errors.New("cluster: run canceled")

// Transport selects the communication fabric.
type Transport int

const (
	// TransportChan is the in-process fabric (default).
	TransportChan Transport = iota
	// TransportTCP runs every fetch through loopback TCP sockets.
	TransportTCP
)

// Config describes a simulated cluster. It is the one configuration of a run:
// the public API re-exports it and run.engine derives every engine's
// core.Config from it. Zero is valid everywhere and selects the default; New
// rejects what Validate rejects.
type Config struct {
	// NumNodes is the number of machines (paper default: 8).
	NumNodes int
	// Sockets is the NUMA socket count per machine (paper hardware: 2).
	// 1 disables NUMA support, reproducing the Table 7 baseline.
	Sockets int
	// ThreadsPerSocket is the compute worker count per engine instance.
	ThreadsPerSocket int
	// ChunkSize is the per-level chunk capacity in embeddings.
	ChunkSize int
	// HDS enables horizontal data sharing (default on; Figure 12 ablation).
	DisableHDS bool
	// CacheFraction sizes each machine's static cache as a fraction of the
	// graph size (paper: 5–15%). 0 disables the cache.
	CacheFraction float64
	// CachePolicy selects the cache design (paper default STATIC; FIFO/LIFO/
	// LRU/MRU reproduce Figure 16).
	CachePolicy cache.Policy
	// CacheDegreeThreshold is the static cache admission threshold
	// (paper: 64; scaled presets use lower values).
	CacheDegreeThreshold uint32
	// SharedCache builds the per-socket caches once at cluster construction
	// and reuses them across runs, instead of rebuilding cold caches per
	// run. The resident query service sets this so hub adjacency fetched by
	// one query serves every later query. Safe under concurrent runs — the
	// cache implementations synchronize internally — but hit-rate metrics
	// then mix all concurrent runs' traffic.
	SharedCache bool
	// Transport selects the fabric.
	Transport Transport
	// SequentialNodes runs the simulated machines one after another instead
	// of concurrently. Edge-list serving is passive (executed in the
	// requester's context), so results are identical; per-machine busy-time
	// measurements stop inflating each other on hosts with fewer cores than
	// simulated workers, which makes ModeledElapsed trustworthy. Elapsed
	// then approximates the cluster's total CPU work.
	SequentialNodes bool

	// Fault injects deterministic faults (transient fetch errors, latency,
	// permanent node crashes) into the fabric. Nil disables injection and
	// adds zero overhead. A non-nil profile turns the retry layer on. Its
	// nodes must lie in [0, NumNodes) and its rates in [0,1].
	Fault *fault.Profile
	// FetchTimeout bounds each fetch attempt and turns on the
	// retry/deadline/circuit-breaker fetch layer and task-level recovery,
	// with or without a fault profile (e.g. for real networks). Three
	// consecutive timed-out fetches to one peer declare it dead
	// (comm.RetryConfig's breaker default), and task-level recovery takes
	// over its unfinished source ranges. Setting Fault, FetchRetries or
	// Speculate turns the layer on too, with a 250ms default.
	FetchTimeout time.Duration
	// FetchRetries is the number of retry attempts per fetch after the
	// first (default 5 when the retry layer is on).
	FetchRetries int
	// RetryBackoff is the initial retry backoff; it doubles per attempt
	// with deterministic jitter (default 1ms).
	RetryBackoff time.Duration

	// Speculate enables straggler speculation: the driver samples each
	// engine's completed-root prefix, and once some machines sit idle it
	// re-executes the slowest engine's unfinished roots on an idle machine.
	// Whichever copy completes the tail first wins; counts are reconciled
	// at range granularity so the result is bit-identical to a run without
	// speculation. Requires concurrently running machines (Validate rejects
	// it with SequentialNodes) and counting sinks; turns the retry layer on.
	Speculate bool
}

func (c Config) withDefaults() Config {
	if c.NumNodes <= 0 {
		c.NumNodes = 1
	}
	if c.Sockets <= 0 {
		c.Sockets = 1
	}
	if c.ThreadsPerSocket <= 0 {
		c.ThreadsPerSocket = 1
	}
	if c.CacheDegreeThreshold == 0 {
		c.CacheDegreeThreshold = 64
	}
	// After defaults, the retry layer is on exactly when FetchTimeout > 0.
	if c.Fault != nil || c.FetchTimeout > 0 || c.FetchRetries > 0 || c.Speculate {
		if c.FetchTimeout <= 0 {
			c.FetchTimeout = 250 * time.Millisecond
		}
		if c.FetchRetries <= 0 {
			c.FetchRetries = 5
		}
	}
	return c
}

// Validate reports the first setting New cannot honor, wrapped around
// ErrInvalidConfig and named by its field. Zero is valid everywhere. Fault's
// nodes are checked against the effective node count (NumNodes, or 1 when
// zero).
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		n    int
	}{
		{"NumNodes", c.NumNodes}, {"Sockets", c.Sockets}, {"ThreadsPerSocket", c.ThreadsPerSocket},
		{"ChunkSize", c.ChunkSize}, {"FetchRetries", c.FetchRetries},
	} {
		if f.n < 0 {
			return fmt.Errorf("%w: %s must not be negative, got %d", ErrInvalidConfig, f.name, f.n)
		}
	}
	for _, f := range []struct {
		name string
		d    time.Duration
	}{
		{"FetchTimeout", c.FetchTimeout}, {"RetryBackoff", c.RetryBackoff},
	} {
		if f.d < 0 {
			return fmt.Errorf("%w: %s must not be negative, got %v", ErrInvalidConfig, f.name, f.d)
		}
	}
	switch {
	case math.IsNaN(c.CacheFraction) || math.IsInf(c.CacheFraction, 0) || c.CacheFraction < 0:
		return fmt.Errorf("%w: CacheFraction must be a finite, non-negative fraction of the graph size, got %v",
			ErrInvalidConfig, c.CacheFraction)
	case c.Transport != TransportChan && c.Transport != TransportTCP:
		return fmt.Errorf("%w: unknown Transport %d", ErrInvalidConfig, c.Transport)
	case c.CachePolicy < cache.Static || c.CachePolicy > cache.MRU:
		return fmt.Errorf("%w: unknown CachePolicy %d", ErrInvalidConfig, c.CachePolicy)
	case c.Speculate && c.SequentialNodes:
		return fmt.Errorf("%w: Speculate needs concurrently running machines, not SequentialNodes", ErrInvalidConfig)
	}
	if c.Fault != nil {
		if err := c.Fault.Validate(c.withDefaults().NumNodes); err != nil {
			return fmt.Errorf("%w: Fault: %v", ErrInvalidConfig, err)
		}
	}
	return nil
}

// Cluster is a running simulated deployment over one input graph.
type Cluster struct {
	g      *graph.Graph
	cfg    Config
	asg    partition.Assignment
	locals []*partition.Local
	// baseRoots is each (node, socket) slot's root list under the base
	// assignment; see rootsOf.
	baseRoots [][]graph.VertexID
	met       *metrics.Cluster
	// fabric is the cluster's one fabric stack, built once by New: every
	// engine fetches through it — main engines, recovery engines and
	// speculative copies alike, each routed by its own failover view.
	fabric comm.Fabric
	// injector and resilient are the fault-injection and retry layers of
	// the fabric stack; nil when the config does not turn them on.
	injector  *fault.Injector
	resilient *comm.Resilient
	// scaches, under Config.SharedCache, holds one persistent cache per
	// (node, socket) slot, reused by every run instead of rebuilt cold.
	scaches []cache.Cache
	// adoptMu serializes adopt: concurrent runs whose recoveries converge on
	// the same dead set must share one re-partition.
	adoptMu sync.Mutex
	// fo is the resident failover routing adopted after a successful
	// recovery: subsequent runs route dead machines' shards to survivors
	// from the start instead of re-discovering the crash per run. Each run
	// snapshots the pointer once, so a mid-run adoption by a concurrent
	// run's recovery never changes routing under a running query. Nil until
	// a recovery converges.
	fo atomic.Pointer[failover]
	// repart counts topology adoptions — how many times the resident
	// routing re-partitioned because the dead set changed.
	repart atomic.Uint64
}

// New partitions g across the configured machines and opens the fabric.
func New(g *graph.Graph, cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	asg := partition.NewAssignment(cfg.NumNodes, cfg.Sockets)
	met := metrics.NewCluster(cfg.NumNodes)
	locals := make([]*partition.Local, cfg.NumNodes)
	servers := make([]comm.Server, cfg.NumNodes)
	for node := 0; node < cfg.NumNodes; node++ {
		locals[node] = partition.NewLocal(g, asg, node)
		l := locals[node]
		servers[node] = comm.ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
			out := make([][]graph.VertexID, len(ids))
			for i, id := range ids {
				if l.Owns(id) {
					out[i] = l.MustNeighbors(id)
					continue
				}
				// A vertex this machine does not own under the base
				// assignment: the requester routed it here through a failover
				// view (an adopted topology or a recovery round's), so serve it
				// from the full graph — the stand-in for the re-partitioned
				// shard a survivor reloads after a crash.
				out[i] = g.Neighbors(id)
			}
			return out
		})
	}
	c := &Cluster{g: g, cfg: cfg, asg: asg, locals: locals, baseRoots: baseRootsOf(g, asg), met: met}
	if err := c.buildFabric(servers); err != nil {
		return nil, err
	}
	if cfg.SharedCache {
		if bytesPerSocket := c.cacheBytesPerSocket(); bytesPerSocket > 0 {
			c.scaches = make([]cache.Cache, cfg.NumNodes*cfg.Sockets)
			for i := range c.scaches {
				c.scaches[i] = cache.New(cfg.CachePolicy, bytesPerSocket, cfg.CacheDegreeThreshold)
			}
		}
	}
	return c, nil
}

// buildFabric assembles c.fabric over servers: the base transport, wrapped
// by the fault injector when the profile injects anything, wrapped by the
// retry/deadline/breaker layer when FetchTimeout is set. The transport itself
// gets the injector's corrupt/drop hooks.
func (c *Cluster) buildFabric(servers []comm.Server) error {
	var wire comm.WireFaults // nil unless the profile injects anything
	if c.cfg.Fault != nil && !c.cfg.Fault.Zero() {
		c.injector = fault.NewInjector(*c.cfg.Fault, c.cfg.NumNodes, c.met)
		wire = c.injector
	}
	var fabric comm.Fabric
	if c.cfg.Transport == TransportChan {
		l := comm.NewLocal(servers, c.met)
		l.SetWireFaults(wire)
		fabric = l
	} else { // TransportTCP, the only other transport Validate admits
		t, err := comm.NewTCP(servers, c.met)
		if err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		if c.cfg.FetchTimeout > 0 {
			// Bound every socket operation by the fetch deadline so a hung
			// peer releases the connection promptly.
			t.SetIOTimeout(c.cfg.FetchTimeout)
		}
		t.SetWireFaults(wire)
		fabric = t
	}
	if c.injector != nil {
		fabric = c.injector.Wrap(fabric)
	}
	if c.cfg.FetchTimeout > 0 {
		c.resilient = comm.NewResilient(fabric, c.cfg.NumNodes, comm.RetryConfig{
			Timeout: c.cfg.FetchTimeout,
			Retries: c.cfg.FetchRetries,
			Backoff: c.cfg.RetryBackoff,
			Seed:    seedOf(c.cfg.Fault),
		}, c.met)
		fabric = c.resilient
	}
	c.fabric = fabric
	return nil
}

// seedOf extracts the jitter seed from an optional fault profile.
func seedOf(p *fault.Profile) int64 {
	if p == nil {
		return 0
	}
	return p.Seed
}

// Close releases the fabric.
func (c *Cluster) Close() error { return c.fabric.Close() }

// Graph returns the input graph.
func (c *Cluster) Graph() *graph.Graph { return c.g }

// Config returns the effective configuration.
func (c *Cluster) Config() Config { return c.cfg }

// DeadNodes returns the machines the cluster currently believes dead —
// crashed by fault injection or declared dead by the circuit breaker —
// ascending. The resident query service's health surface reads this.
func (c *Cluster) DeadNodes() []int { return c.deadNodes() }

// Repartitions returns how many times the cluster adopted a new failover
// topology after recovery: concurrent queries that trip over the same crash
// share one re-partition, so under a single node loss this stays at 1 no
// matter how many queries were in flight.
func (c *Cluster) Repartitions() uint64 { return c.repart.Load() }

// Result is the outcome of one distributed run.
type Result struct {
	// Count is the total match count summed over all machines (meaningful
	// when sinks are counting sinks).
	Count uint64
	// Elapsed is the end-to-end wall time of the run. On hosts with fewer
	// cores than simulated workers, wall time approximates total CPU work
	// rather than cluster makespan; use ModeledElapsed for scalability
	// comparisons.
	Elapsed time.Duration
	// ModeledElapsed is the modeled cluster makespan: the slowest machine's
	// critical path assuming its compute parallelizes over its workers and
	// its per-socket scheduling stays serial —
	// max over nodes of (compute/(sockets·threads) + (scheduler+cache)/sockets).
	// Communication is treated as overlapped, which the paper's Figure 19
	// (network far from saturated, compute-bound) justifies. The inputs are
	// measured per-machine busy times, so load imbalance between machines
	// is captured, not assumed.
	ModeledElapsed time.Duration
	// Summary aggregates all machines' metrics.
	Summary metrics.Summary
	// PerNode is each machine's runtime breakdown.
	PerNode []metrics.Breakdown
	// RecoveryRounds is the number of task-level recovery rounds the run
	// needed after fetch failures (0 on a healthy run).
	RecoveryRounds int
	// DeadNodes lists the machines declared dead during the run — crashed by
	// fault injection or declared dead by the circuit breaker — ascending.
	DeadNodes []int
}

// RunOpts tunes one run beyond the cluster-wide Config. The zero value
// reproduces Run's behavior exactly.
type RunOpts struct {
	// Cancel, when non-nil and closed, aborts the run: every engine stops at
	// its next range or batch boundary, or at once if it is waiting for a
	// remote fetch, on any fabric. A fetch it leaves behind finishes in the
	// background. The run returns ErrRunCanceled without entering task-level
	// recovery.
	Cancel <-chan struct{}
	// ThreadsPerSocket overrides Config.ThreadsPerSocket for this run
	// (0 = the configured value). The query service uses it as the
	// per-query worker budget so one heavy query cannot occupy every core.
	ThreadsPerSocket int
	// KeepMetrics skips the per-run metrics reset. Concurrent runs share the
	// cluster's metric store, so a resident service accumulates instead of
	// clobbering; exact counts still come from each run's own sinks.
	KeepMetrics bool
}

// chanClosed reports whether the cancel signal (possibly nil) has fired.
func chanClosed(cancel <-chan struct{}) bool {
	select {
	case <-cancel:
		return true
	default:
		return false
	}
}

// Run executes one plan over the cluster. sinkFactory supplies the
// application sink per (node, socket) engine instance; Run returns once all
// machines finish and aggregates their metrics. Each call resets metrics.
func (c *Cluster) Run(pl *plan.Plan, sinkFactory func(node, socket int) core.Sink) (Result, error) {
	return c.RunWith(pl, sinkFactory, RunOpts{})
}

// cacheBytesPerSocket sizes each engine's cache share from CacheFraction.
func (c *Cluster) cacheBytesPerSocket() uint64 {
	if c.cfg.CacheFraction <= 0 {
		return 0
	}
	total := float64(c.g.SizeBytes()) * c.cfg.CacheFraction
	return uint64(total / float64(c.cfg.Sockets))
}

// RunWith is Run with per-run options: cancellation, a worker budget, and
// metric accumulation. Multiple RunWith calls may execute concurrently on
// one cluster (the query service's whole point); they share the fabric, the
// metric store (use KeepMetrics) and, under Config.SharedCache, the caches.
func (c *Cluster) RunWith(pl *plan.Plan, sinkFactory func(node, socket int) core.Sink, opts RunOpts) (Result, error) {
	if !opts.KeepMetrics {
		// Fresh counters per run so experiments report only their own
		// traffic.
		c.met.Reset()
	}
	r := c.newRun(pl, opts)
	sockets := c.cfg.Sockets
	slots := c.cfg.NumNodes * sockets

	start := time.Now()
	sinks := make([]core.Sink, slots)
	errs := make([]error, slots)
	// Ledgers checkpoint each engine's completed source-vertex prefix (and
	// the count committed there) so task-level recovery can re-execute only
	// unfinished roots. Allocated only under resilience; an entry stays nil
	// for a sink that is not a counting sink, which makes that slot
	// unrecoverable (recovery dedup needs committed-count snapshots).
	var ledgers []*ledger
	if c.resilient != nil {
		ledgers = make([]*ledger, slots)
	}
	for slot := range sinks {
		sinks[slot] = sinkFactory(slot/sockets, slot%sockets)
		if cs, ok := sinks[slot].(*core.CountSink); ok && ledgers != nil {
			ledgers[slot] = &ledger{sink: cs}
		}
	}
	// Straggler speculation needs every slot tracked: reconciling the two
	// copies' counts needs both ledgers.
	var spec *speculator
	if c.cfg.Speculate && allTracked(ledgers) {
		spec = newSpeculator(r, ledgers)
	}
	cacheBytesPerSocket := c.cacheBytesPerSocket()
	var wg sync.WaitGroup
	for slot := range sinks {
		node, socket := slot/sockets, slot%sockets
		t := task{
			node: node, socket: socket, fo: r.fo, roots: c.rootsOf(r.fo, node, socket),
			sink: sinks[slot], stop: r.cancel,
		}
		switch {
		case c.scaches != nil:
			t.cache = c.scaches[slot]
		case cacheBytesPerSocket > 0:
			t.cache = cache.New(c.cfg.CachePolicy, cacheBytesPerSocket, c.cfg.CacheDegreeThreshold)
		}
		if ledgers != nil {
			t.ledger = ledgers[slot]
		}
		if spec != nil {
			// The speculator owns the slot's stop signal: it raises it when
			// the slot's copy wins, and forwards the caller's cancel into it.
			t.stop = spec.stops[slot].ch
		}
		eng := r.engine(t)
		if c.cfg.SequentialNodes {
			errs[slot] = eng.Run()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[slot] = eng.Run()
			if spec != nil {
				spec.slotDone(slot, errs[slot])
			}
		}()
	}
	wg.Wait()
	var overrides map[int]uint64
	if spec != nil {
		overrides = spec.finish(errs)
	}

	// A run aborted by its caller is not a fault: recovery would re-execute
	// exactly the work the caller asked to stop. Any slot error — engine
	// cancellation, an abandoned fetch, or a failure racing the abort — is
	// subsumed by the cancellation verdict.
	if chanClosed(r.cancel) {
		for _, err := range errs {
			if err != nil {
				return Result{}, ErrRunCanceled
			}
		}
		// Every slot finished before observing the cancel: the result is
		// complete and exact, so fall through and return it.
	}

	// Classify failures: a fetch failure caused by a dead peer, exhausted
	// retries or an injected crash is recoverable when every slot has a
	// committed-count checkpoint; anything else aborts the run. A slot
	// stopped by a winning speculative copy is resolved by its override —
	// unless some other slot pushes the run into recovery, which discards
	// speculation and re-executes past each checkpoint instead.
	recovering := false
	for slot, err := range errs {
		if err == nil {
			continue
		}
		if _, won := overrides[slot]; won && errors.Is(err, core.ErrCanceled) {
			continue
		}
		if (recoverableError(err) || errors.Is(err, core.ErrCanceled)) && allTracked(ledgers) {
			recovering = true
			continue
		}
		return Result{}, fmt.Errorf("cluster: node %d socket %d: %w", slot/sockets, slot%sockets, err)
	}

	res := Result{}
	if recovering {
		rec, err := r.recover(ledgers, errs)
		if err != nil {
			return Result{}, err
		}
		res.Count = rec.count
		res.RecoveryRounds = rec.rounds
		res.DeadNodes = rec.dead
	} else {
		for slot, s := range sinks {
			// A speculation-won slot's sink holds only the straggler's
			// partial count (plus uncommitted work past its last boundary);
			// the reconciled override is the slot's exact total.
			if n, ok := overrides[slot]; ok {
				res.Count += n
				continue
			}
			if cs, ok := s.(*core.CountSink); ok {
				res.Count += cs.Count()
			}
		}
		if c.resilient != nil {
			res.DeadNodes = c.deadNodes()
		}
	}
	res.Elapsed = time.Since(start)
	res.Summary = c.met.Summarize()
	workers := sockets * r.threads
	for _, n := range c.met.Nodes {
		b := n.Breakdown()
		res.PerNode = append(res.PerNode, b)
		modeled := b.Compute/time.Duration(workers) +
			(b.Scheduler+b.Cache)/time.Duration(sockets)
		if modeled > res.ModeledElapsed {
			res.ModeledElapsed = modeled
		}
	}
	return res, nil
}

// Count runs a plan with counting sinks — the common case.
func (c *Cluster) Count(pl *plan.Plan) (Result, error) {
	return c.Run(pl, func(node, socket int) core.Sink { return &core.CountSink{} })
}

// CountAll runs several plans sequentially (e.g. motif counting over all
// size-k patterns), returning per-plan results plus the combined totals.
func (c *Cluster) CountAll(pls []*plan.Plan) ([]Result, Result, error) {
	var results []Result
	var combined Result
	for _, pl := range pls {
		r, err := c.Count(pl)
		if err != nil {
			return nil, Result{}, err
		}
		results = append(results, r)
		combined.Count += r.Count
		combined.Elapsed += r.Elapsed
		combined.ModeledElapsed += r.ModeledElapsed
		// Summary.Merge owns the per-field combination rule (counters add,
		// peaks max): the hand-rolled list this replaces had silently
		// dropped the NUMA counters, PeakEmbeddings and the breakdown.
		combined.Summary.Merge(r.Summary)
		combined.RecoveryRounds += r.RecoveryRounds
		combined.DeadNodes = unionNodes(combined.DeadNodes, r.DeadNodes)
	}
	return results, combined, nil
}

// unionNodes merges two ascending node-ID lists without duplicates.
func unionNodes(a, b []int) []int {
	seen := make(map[int]bool, len(a)+len(b))
	var out []int
	for _, lst := range [][]int{a, b} {
		for _, n := range lst {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Ints(out)
	return out
}

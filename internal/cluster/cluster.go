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

// ErrUnknownTransport marks a Config naming a transport the cluster cannot
// build. It is a configuration error, not a runtime fault: nothing ran yet.
var ErrUnknownTransport = errors.New("cluster: unknown transport")

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

// Config describes a simulated cluster.
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
	// InFlight bounds how many multiplexed requests the TCP fabric keeps
	// outstanding per connection (0 = the fabric default). Ignored by the
	// chan transport.
	InFlight int
	// SerialWire pins the TCP fabric's handshake window to the serial
	// protocol generation (≤ v2), disabling request multiplexing — the
	// transport ablation's baseline arm.
	SerialWire bool
	// MiniBatch and FlushSize pass through to the engine.
	MiniBatch int
	FlushSize int
	// HubThreshold, when nonzero, overrides the compiled hub-vertex degree
	// threshold for the engines' bitmap intersection kernel (0 keeps the
	// value derived from the graph's degree histogram at plan compile time).
	HubThreshold uint32
	// StrictPipeline disables the engine's fire-all-fetches-at-seal
	// overlapping (ablation of the paper's §4.3 design choice).
	StrictPipeline bool
	// SequentialNodes runs the simulated machines one after another instead
	// of concurrently. Edge-list serving is passive (executed in the
	// requester's context), so results are identical; per-machine busy-time
	// measurements stop inflating each other on hosts with fewer cores than
	// simulated workers, which makes ModeledElapsed trustworthy. Elapsed
	// then approximates the cluster's total CPU work.
	SequentialNodes bool

	// Fault injects deterministic faults (transient fetch errors, latency,
	// permanent node crashes) into the fabric. Nil disables injection and
	// adds zero overhead. A non-nil profile implies Resilient.
	Fault *fault.Profile
	// Resilient enables the retry/deadline/circuit-breaker fetch layer and
	// task-level recovery even without a fault profile (e.g. for real
	// networks). Implied by Fault, FetchTimeout, FetchRetries or
	// BreakerThreshold being set.
	Resilient bool
	// FetchTimeout bounds each fetch attempt (default 250ms when resilience
	// is enabled).
	FetchTimeout time.Duration
	// FetchRetries is the number of retry attempts per fetch after the
	// first (default 5 when resilience is enabled).
	FetchRetries int
	// RetryBackoff is the initial retry backoff; it doubles per attempt
	// with deterministic jitter (default 1ms).
	RetryBackoff time.Duration
	// BreakerThreshold is the number of consecutive timed-out fetches to
	// one peer after which it is declared dead and task-level recovery
	// takes over its unfinished source ranges (default 3).
	BreakerThreshold int

	// Heartbeat runs a failure detector: one goroutine per machine pings
	// every peer over the fabric and declares a peer suspect after
	// HeartbeatMisses consecutive missed pings. Suspicion feeds the retry
	// layer's dead-peer verdicts, so every worker fails fast against a dead
	// machine instead of independently burning its retry budget. Implies
	// Resilient.
	Heartbeat bool
	// HeartbeatInterval is the ping period per (node, peer) pair
	// (default 20ms).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout bounds one ping round trip (default 2×interval).
	HeartbeatTimeout time.Duration
	// HeartbeatMisses is the consecutive-miss threshold for suspicion
	// (default 3).
	HeartbeatMisses int

	// Speculate enables straggler speculation: the driver samples each
	// engine's completed-root prefix, and once some machines sit idle it
	// re-executes the slowest engine's unfinished roots on an idle machine.
	// Whichever copy completes the tail first wins; counts are reconciled
	// at range granularity so the result is bit-identical to a run without
	// speculation. Requires concurrently running machines and counting
	// sinks; implies Resilient.
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
	if c.Fault != nil || c.FetchTimeout > 0 || c.FetchRetries > 0 || c.BreakerThreshold > 0 ||
		c.Heartbeat || c.Speculate {
		c.Resilient = true
	}
	if c.Resilient {
		if c.FetchTimeout <= 0 {
			c.FetchTimeout = 250 * time.Millisecond
		}
		if c.FetchRetries <= 0 {
			c.FetchRetries = 5
		}
		if c.BreakerThreshold <= 0 {
			c.BreakerThreshold = 3
		}
	}
	return c
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
	fabric    comm.Fabric
	// injector and resilient are the fault-injection and retry layers of
	// the fabric stack; nil when resilience is disabled.
	injector  *fault.Injector
	resilient *comm.Resilient
	// detector is the heartbeat failure detector; nil unless Heartbeat is
	// configured. It runs for the cluster's whole lifetime over the
	// original fabric stack.
	detector *comm.Detector
	// scaches, under Config.SharedCache, holds one persistent cache per
	// (node, socket) slot, reused by every run instead of rebuilt cold.
	scaches []cache.Cache
	// recMu serializes task-level recovery: concurrent runs (the query
	// service) must not race two fabric rebuilds.
	recMu sync.Mutex
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
				// assignment: the requester routed it here through an adopted
				// failover topology, so serve it from the full graph — the
				// stand-in for the re-partitioned shard a survivor reloads
				// after a crash.
				out[i] = g.Neighbors(id)
			}
			return out
		})
	}
	c := &Cluster{g: g, cfg: cfg, asg: asg, locals: locals, baseRoots: baseRootsOf(g, asg), met: met}
	fabric, err := c.buildFabric(servers)
	if err != nil {
		return nil, err
	}
	c.fabric = fabric
	if cfg.SharedCache {
		if bytesPerSocket := c.cacheBytesPerSocket(); bytesPerSocket > 0 {
			c.scaches = make([]cache.Cache, cfg.NumNodes*cfg.Sockets)
			for i := range c.scaches {
				c.scaches[i] = cache.New(cfg.CachePolicy, bytesPerSocket, cfg.CacheDegreeThreshold)
			}
		}
	}
	if cfg.Heartbeat {
		// The detector pings through the full fabric stack (including the
		// fault injector) so crashes and partitions are felt exactly as data
		// traffic feels them. A crashed machine's own detector goroutine
		// stops accusing peers — a dead process's timers stop firing.
		var selfDead func(int) bool
		if c.injector != nil {
			selfDead = c.injector.Crashed
		}
		c.detector = comm.NewDetector(c.fabric, cfg.NumNodes, comm.DetectorConfig{
			Interval: cfg.HeartbeatInterval,
			Timeout:  cfg.HeartbeatTimeout,
			Misses:   cfg.HeartbeatMisses,
		}, c.met, selfDead)
		if c.resilient != nil {
			c.resilient.SetSuspector(c.detector.Suspected)
		}
		c.detector.Start()
	}
	return c, nil
}

// buildFabric assembles the fabric stack for one set of servers: the base
// transport, optionally wrapped by the fault injector, optionally wrapped by
// the retry/deadline/breaker layer. The same stack shape is rebuilt for
// recovery rounds, sharing the injector's fault state and the known-dead
// verdicts so crashes persist across rounds.
func (c *Cluster) buildFabric(servers []comm.Server) (comm.Fabric, error) {
	var fabric comm.Fabric
	switch c.cfg.Transport {
	case TransportChan:
		fabric = comm.NewLocal(servers, c.met)
	case TransportTCP:
		t, err := comm.NewTCP(servers, c.met)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		if c.cfg.FetchTimeout > 0 {
			// Bound every socket operation by the fetch deadline so a hung
			// peer releases the connection promptly.
			t.SetIOTimeout(c.cfg.FetchTimeout)
		}
		if c.cfg.InFlight > 0 {
			t.SetInFlight(c.cfg.InFlight)
		}
		if c.cfg.SerialWire {
			t.SetVersionWindow(comm.ProtoVersionMin, comm.ProtoVersionSerialMax)
		}
		fabric = t
	default:
		return nil, fmt.Errorf("%w %d", ErrUnknownTransport, c.cfg.Transport)
	}
	if c.cfg.Fault != nil && !c.cfg.Fault.Zero() {
		if c.injector == nil {
			c.injector = fault.NewInjector(*c.cfg.Fault, c.cfg.NumNodes, c.met)
		}
		fabric = c.injector.Wrap(fabric)
	}
	if c.cfg.Resilient {
		r := comm.NewResilient(fabric, c.cfg.NumNodes, comm.RetryConfig{
			Timeout:          c.cfg.FetchTimeout,
			Retries:          c.cfg.FetchRetries,
			Backoff:          c.cfg.RetryBackoff,
			BreakerThreshold: c.cfg.BreakerThreshold,
			Seed:             seedOf(c.cfg.Fault),
		}, c.met)
		if c.resilient != nil {
			for _, n := range c.resilient.DeadNodes() {
				r.MarkDead(n)
			}
		}
		if c.detector != nil {
			// Fabric rebuilds (recovery rounds) keep consuming the running
			// detector's verdicts.
			r.SetSuspector(c.detector.Suspected)
		}
		c.resilient = r
		fabric = r
	}
	return fabric, nil
}

// seedOf extracts the jitter seed from an optional fault profile.
func seedOf(p *fault.Profile) int64 {
	if p == nil {
		return 0
	}
	return p.Seed
}

// Close stops the failure detector (if any) and releases the fabric.
func (c *Cluster) Close() error {
	if c.detector != nil {
		c.detector.Stop()
	}
	return c.fabric.Close()
}

// Graph returns the input graph.
func (c *Cluster) Graph() *graph.Graph { return c.g }

// Config returns the effective configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Metrics returns the cluster's metric store (reset between runs by Run).
func (c *Cluster) Metrics() *metrics.Cluster { return c.met }

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
	// its next range or batch boundary, and in-flight remote fetches —
	// including their retry backoffs — are abandoned through the resilient
	// layer's FetchCancel. The run returns ErrRunCanceled without entering
	// task-level recovery.
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
	threads := c.cfg.ThreadsPerSocket
	if opts.ThreadsPerSocket > 0 {
		threads = opts.ThreadsPerSocket
	}

	var labelOf plan.LabelFunc
	if c.g.Labeled() {
		labelOf = c.g.Label
	}
	var edgeLabelOf plan.EdgeLabelFunc
	if c.g.EdgeLabeled() {
		edgeLabelOf = plan.EdgeLabelOracle(c.g)
	}

	cacheBytesPerSocket := c.cacheBytesPerSocket()

	// Snapshot the resident failover topology once per run: dead machines'
	// shards route to survivors from the first fetch, and the snapshot keeps
	// routing stable even if a concurrent run's recovery adopts a newer
	// topology mid-run.
	fo := c.fo.Load()

	start := time.Now()
	var wg sync.WaitGroup
	sinks := make([]core.Sink, 0, c.cfg.NumNodes*c.cfg.Sockets)
	errs := make([]error, c.cfg.NumNodes*c.cfg.Sockets)
	// Range trackers checkpoint each engine's completed source-vertex prefix
	// (and the count committed at that point) so task-level recovery can
	// re-execute only unfinished roots. Allocated only under resilience;
	// entries stay nil for sinks that are not counting sinks, which makes
	// that slot unrecoverable (recovery dedup needs committed-count
	// snapshots).
	var trackers []*rangeTracker
	if c.cfg.Resilient {
		trackers = make([]*rangeTracker, c.cfg.NumNodes*c.cfg.Sockets)
	}
	// Straggler speculation needs concurrently running machines (an idle
	// survivor to speculate onto) and full checkpoint tracking; the
	// speculator stays inert when either is missing.
	var spec *speculator
	if c.cfg.Speculate && !c.cfg.SequentialNodes && trackers != nil {
		spec = newSpeculator(c, pl, labelOf, edgeLabelOf)
		spec.fo = fo
	}
	var engines []*core.Engine
	for node := 0; node < c.cfg.NumNodes; node++ {
		for socket := 0; socket < c.cfg.Sockets; socket++ {
			slot := node*c.cfg.Sockets + socket
			var ca cache.Cache
			switch {
			case c.scaches != nil:
				ca = c.scaches[slot]
			case cacheBytesPerSocket > 0:
				ca = cache.New(c.cfg.CachePolicy, cacheBytesPerSocket, c.cfg.CacheDegreeThreshold)
			}
			src := &nodeSource{
				local:  c.locals[node],
				socket: socket,
				fabric: c.fabric,
				met:    c.met.Nodes[node],
				g:      c.g,
				fo:     fo,
				roots:  c.rootsOf(fo, node, socket),
			}
			sink := sinkFactory(node, socket)
			sinks = append(sinks, sink)
			// The fetch-abort channel: speculation's per-slot channel when the
			// speculator is live (it subsumes nothing else), otherwise the
			// caller's cancel channel so a canceled query abandons in-flight
			// remote fetches instead of draining their retry schedules.
			if spec != nil {
				src.cancel = spec.cancelChan(slot)
			} else if opts.Cancel != nil {
				src.cancel = opts.Cancel
			}
			var onRange func(start, end int)
			if trackers != nil {
				if cs, ok := sink.(*core.CountSink); ok {
					tr := &rangeTracker{sink: cs}
					trackers[slot] = tr
					onRange = tr.onRangeDone
				}
			}
			var canceled func() bool
			switch {
			case spec != nil && opts.Cancel != nil:
				slot := slot
				canceled = func() bool { return spec.canceled(slot) || chanClosed(opts.Cancel) }
			case spec != nil:
				slot := slot
				canceled = func() bool { return spec.canceled(slot) }
			case opts.Cancel != nil:
				canceled = func() bool { return chanClosed(opts.Cancel) }
			}
			ext := core.NewPlanExtender(pl, labelOf)
			ext.EdgeLabelOf = edgeLabelOf
			eng := core.NewEngine(ext, src, sink, core.Config{
				ChunkSize:      c.cfg.ChunkSize,
				Threads:        threads,
				MiniBatch:      c.cfg.MiniBatch,
				FlushSize:      c.cfg.FlushSize,
				HubThreshold:   c.cfg.HubThreshold,
				HDS:            !c.cfg.DisableHDS,
				StrictPipeline: c.cfg.StrictPipeline,
				Cache:          ca,
				Metrics:        c.met.Nodes[node],
				OnRangeDone:    onRange,
				Canceled:       canceled,
			})
			if c.cfg.SequentialNodes {
				engines = append(engines, eng)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := eng.Run()
				errs[slot] = err
				if spec != nil {
					spec.slotDone(slot, err)
				}
			}()
		}
	}
	if c.cfg.SequentialNodes {
		for slot, eng := range engines {
			errs[slot] = eng.Run()
		}
	} else {
		if spec != nil {
			spec.begin(trackers)
		}
		wg.Wait()
	}
	var overrides map[int]uint64
	if spec != nil {
		overrides = spec.finish(errs)
	}

	// A run aborted by its caller is not a fault: recovery would re-execute
	// exactly the work the caller asked to stop. Any slot error — engine
	// cancellation, an abandoned fetch, or a failure racing the abort — is
	// subsumed by the cancellation verdict.
	if opts.Cancel != nil && chanClosed(opts.Cancel) {
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
	// cancelled by a winning speculative copy is resolved by its override —
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
		if (recoverableError(err) || errors.Is(err, core.ErrCanceled)) && allTracked(trackers) {
			recovering = true
			continue
		}
		return Result{}, fmt.Errorf("cluster: node %d socket %d: %w",
			slot/c.cfg.Sockets, slot%c.cfg.Sockets, err)
	}

	res := Result{}
	if recovering {
		// Serialized: concurrent runs must not race two fabric rebuilds.
		c.recMu.Lock()
		rec, err := c.recoverRun(pl, labelOf, edgeLabelOf, trackers, errs, fo, opts.Cancel)
		c.recMu.Unlock()
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
		if c.cfg.Resilient {
			res.DeadNodes = c.deadNodes()
		}
	}
	res.Elapsed = time.Since(start)
	res.Summary = c.met.Summarize()
	workers := c.cfg.Sockets * c.cfg.ThreadsPerSocket
	for _, n := range c.met.Nodes {
		b := n.Breakdown()
		res.PerNode = append(res.PerNode, b)
		modeled := b.Compute/time.Duration(workers) +
			(b.Scheduler+b.Cache)/time.Duration(c.cfg.Sockets)
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

// CountWith is Count with per-run options.
func (c *Cluster) CountWith(pl *plan.Plan, opts RunOpts) (Result, error) {
	return c.RunWith(pl, func(node, socket int) core.Sink { return &core.CountSink{} }, opts)
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

// nodeSource adapts one machine's partition + fabric to the engine's
// DataSource, including NUMA socket classification (§5.4).
type nodeSource struct {
	local  *partition.Local
	socket int
	fabric comm.Fabric
	met    *metrics.Node
	// g is the full input graph, standing in for re-partitioned shard data
	// when fo routes a dead machine's vertex here.
	g *graph.Graph
	// fo is the run's snapshot of the resident failover topology (nil when
	// every machine is alive): vertices owned by dead machines route to
	// their failover owner instead.
	fo *failover
	// roots is this slot's precomputed root list — base-owned vertices plus
	// any adopted from dead machines — computed once by rootsOf so recovery
	// re-derives the identical list.
	roots []graph.VertexID
	// cancel, when non-nil, aborts in-flight fetches (including their retry
	// backoffs) the moment it closes — because this slot's speculative copy
	// won, or because the run's caller canceled it. The resulting failure
	// surfaces as engine cancellation, the same outcome the polled Canceled
	// hook produces at range boundaries — just without waiting for the
	// retry schedule to drain first.
	cancel <-chan struct{}
}

func (s *nodeSource) Classify(v graph.VertexID) (core.Locality, int) {
	asg := s.local.Assignment()
	owner := asg.Owner(v)
	if s.fo != nil && s.fo.dead[owner] {
		// An adopted vertex: its base owner is dead, so route to the
		// failover owner. Adopted shards carry no NUMA affinity — a local
		// adoptee is served directly from the full graph.
		owner = s.fo.Owner(v)
		if owner != s.local.Node() {
			return core.LocalityRemote, owner
		}
		return core.LocalityLocal, owner
	}
	if owner != s.local.Node() {
		return core.LocalityRemote, owner
	}
	if asg.NumSockets() > 1 && asg.Socket(v) != s.socket {
		return core.LocalityCrossSocket, owner
	}
	return core.LocalityLocal, owner
}

func (s *nodeSource) LocalList(v graph.VertexID) []graph.VertexID {
	if s.fo != nil && s.fo.dead[s.local.Assignment().Owner(v)] {
		return s.g.Neighbors(v)
	}
	return s.local.MustNeighbors(v)
}

func (s *nodeSource) CrossSocketList(v graph.VertexID) []graph.VertexID {
	l := s.local.MustNeighbors(v)
	s.met.CrossSocketFetches.Add(1)
	s.met.CrossSocketBytes.Add(4 + 4*uint64(len(l)))
	return l
}

func (s *nodeSource) Fetch(owner int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	if cf, ok := s.fabric.(comm.CancelFetcher); ok && s.cancel != nil {
		lists, err := cf.FetchCancel(s.local.Node(), owner, ids, s.cancel)
		if err != nil && errors.Is(err, comm.ErrFetchCanceled) {
			return nil, fmt.Errorf("cluster: fetch aborted by cancellation: %w", core.ErrCanceled)
		}
		return lists, err
	}
	return s.fabric.Fetch(s.local.Node(), owner, ids)
}

func (s *nodeSource) NumNodes() int  { return s.local.Assignment().NumNodes() }
func (s *nodeSource) LocalNode() int { return s.local.Node() }

func (s *nodeSource) Roots() []graph.VertexID { return s.roots }

func (s *nodeSource) Label(v graph.VertexID) graph.Label { return s.local.Label(v) }

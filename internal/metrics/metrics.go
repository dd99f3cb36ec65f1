// Package metrics collects the counters and time breakdowns that the paper's
// evaluation reports: network traffic in bytes, message and fetch counts,
// cache hit rates, and per-category runtime (compute / network / scheduler /
// cache) used for the Figure 15 breakdown and the Figure 19 utilization
// analysis. All counters are atomic so engine worker threads update them
// without coordination.
package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Node aggregates the counters of one machine.
type Node struct {
	BytesSent          atomic.Uint64 // payload bytes this node sent (requests + responses)
	BytesReceived      atomic.Uint64
	Messages           atomic.Uint64 // network messages sent
	Fetches            atomic.Uint64 // edge-list fetch attempts (local + remote)
	RemoteFetches      atomic.Uint64 // fetches that went over the network
	CacheHits          atomic.Uint64
	CacheMisses        atomic.Uint64
	HDSHits            atomic.Uint64 // horizontal-data-sharing hits within a chunk
	VerticalHits       atomic.Uint64 // active lists resolved through parent pointers
	Extensions         atomic.Uint64 // embedding extensions performed
	Matches            atomic.Uint64 // full pattern embeddings found
	KernelMerge        atomic.Uint64 // set kernels: linear-merge intersections executed
	KernelGallop       atomic.Uint64 // set kernels: galloping intersections executed
	KernelBitmap       atomic.Uint64 // set kernels: dense-suffix candidate sets computed by word AND
	KernelProbe        atomic.Uint64 // set kernels: count-only children probed against their siblings' mark set
	CrossSocketFetches atomic.Uint64 // NUMA: lists served from another socket
	CrossSocketBytes   atomic.Uint64 // NUMA: modeled cross-socket traffic
	FetchRetries       atomic.Uint64 // resilience: fetch attempts retried after a failure
	FetchTimeouts      atomic.Uint64 // resilience: fetch attempts that hit the per-attempt deadline
	BreakerTrips       atomic.Uint64 // resilience: peers this node's circuit breaker declared dead
	FaultsInjected     atomic.Uint64 // resilience: transient faults injected into this node's fetches
	RecoveredRoots     atomic.Uint64 // resilience: source vertices re-executed on this node during recovery
	CorruptFrames      atomic.Uint64 // wire integrity: frames this node rejected on a CRC/header mismatch
	Redials            atomic.Uint64 // wire integrity: TCP dials this node made to replace a connection a failure closed
	SpeculativeRanges  atomic.Uint64 // speculation: straggler root ranges this node re-executed speculatively
	SpeculationWins    atomic.Uint64 // speculation: speculative re-executions that finished before the straggler
	PipelinedFetches   atomic.Uint64 // transport: fetches this node completed over the TCP fabric
	InFlightFetches    atomic.Int64  // transport gauge: TCP fetches outstanding from this node right now, across all peers
	InFlightPeak       atomic.Uint64 // transport: high-water mark of InFlightFetches
	// PeakEmbeddings is the high-water mark of simultaneously allocated
	// extendable embeddings across this machine's live chunks — the
	// quantity the paper's §4.2 bounded-memory argument is about.
	PeakEmbeddings atomic.Uint64

	computeNS   atomic.Int64
	networkNS   atomic.Int64
	schedulerNS atomic.Int64
	cacheNS     atomic.Int64
}

// AddCompute accrues embedding-extension time.
func (n *Node) AddCompute(d time.Duration) { n.computeNS.Add(int64(d)) }

// AddNetwork accrues time spent waiting on or serving communication.
func (n *Node) AddNetwork(d time.Duration) { n.networkNS.Add(int64(d)) }

// AddScheduler accrues chunk/task scheduling and bookkeeping time.
func (n *Node) AddScheduler(d time.Duration) { n.schedulerNS.Add(int64(d)) }

// AddCache accrues software-cache maintenance time. The engine's figure is a
// sampled estimate — it times one cache call in 64 and scales — so read it as
// a share of the breakdown, not as a sum of measured calls.
func (n *Node) AddCache(d time.Duration) { n.cacheNS.Add(int64(d)) }

// Reset zeroes every counter. Callers must ensure no concurrent updates.
func (n *Node) Reset() {
	n.BytesSent.Store(0)
	n.BytesReceived.Store(0)
	n.Messages.Store(0)
	n.Fetches.Store(0)
	n.RemoteFetches.Store(0)
	n.CacheHits.Store(0)
	n.CacheMisses.Store(0)
	n.HDSHits.Store(0)
	n.VerticalHits.Store(0)
	n.Extensions.Store(0)
	n.Matches.Store(0)
	n.KernelMerge.Store(0)
	n.KernelGallop.Store(0)
	n.KernelBitmap.Store(0)
	n.KernelProbe.Store(0)
	n.CrossSocketFetches.Store(0)
	n.CrossSocketBytes.Store(0)
	n.FetchRetries.Store(0)
	n.FetchTimeouts.Store(0)
	n.BreakerTrips.Store(0)
	n.FaultsInjected.Store(0)
	n.RecoveredRoots.Store(0)
	n.CorruptFrames.Store(0)
	n.Redials.Store(0)
	n.SpeculativeRanges.Store(0)
	n.SpeculationWins.Store(0)
	n.PipelinedFetches.Store(0)
	n.InFlightFetches.Store(0)
	n.InFlightPeak.Store(0)
	n.PeakEmbeddings.Store(0)
	n.computeNS.Store(0)
	n.networkNS.Store(0)
	n.schedulerNS.Store(0)
	n.cacheNS.Store(0)
}

// RecordPeakEmbeddings raises the live-embedding high-water mark to cur if
// it exceeds the stored peak. Callers update it single-threadedly per
// engine, but the max loop stays safe under concurrency.
func (n *Node) RecordPeakEmbeddings(cur uint64) {
	for {
		old := n.PeakEmbeddings.Load()
		if cur <= old || n.PeakEmbeddings.CompareAndSwap(old, cur) {
			return
		}
	}
}

// RecordInFlightPeak raises the in-flight-request high-water mark to cur if
// it exceeds the stored peak (same CAS-max discipline as
// RecordPeakEmbeddings, but updated concurrently by fetch goroutines).
func (n *Node) RecordInFlightPeak(cur uint64) {
	for {
		old := n.InFlightPeak.Load()
		if cur <= old || n.InFlightPeak.CompareAndSwap(old, cur) {
			return
		}
	}
}

// Breakdown is a runtime split by category, as in the paper's Figure 15.
type Breakdown struct {
	Compute   time.Duration
	Network   time.Duration
	Scheduler time.Duration
	Cache     time.Duration
}

// Breakdown returns the node's accumulated time split.
func (n *Node) Breakdown() Breakdown {
	return Breakdown{
		Compute:   time.Duration(n.computeNS.Load()),
		Network:   time.Duration(n.networkNS.Load()),
		Scheduler: time.Duration(n.schedulerNS.Load()),
		Cache:     time.Duration(n.cacheNS.Load()),
	}
}

// Total returns the sum of all categories.
func (b Breakdown) Total() time.Duration {
	return b.Compute + b.Network + b.Scheduler + b.Cache
}

// Percentages renders the split as percentages of the total.
func (b Breakdown) Percentages() (compute, network, scheduler, cache float64) {
	t := b.Total()
	if t == 0 {
		return 0, 0, 0, 0
	}
	f := func(d time.Duration) float64 { return 100 * float64(d) / float64(t) }
	return f(b.Compute), f(b.Network), f(b.Scheduler), f(b.Cache)
}

// String formats the breakdown as percentages.
func (b Breakdown) String() string {
	c, n, s, ca := b.Percentages()
	return fmt.Sprintf("compute=%.1f%% network=%.1f%% scheduler=%.1f%% cache=%.1f%%", c, n, s, ca)
}

// Cluster aggregates per-node metrics.
type Cluster struct {
	Nodes []*Node
}

// NewCluster returns metrics storage for n nodes.
func NewCluster(n int) *Cluster {
	c := &Cluster{Nodes: make([]*Node, n)}
	for i := range c.Nodes {
		c.Nodes[i] = &Node{}
	}
	return c
}

// Reset zeroes all node counters (between experiment runs).
func (c *Cluster) Reset() {
	for _, n := range c.Nodes {
		n.Reset()
	}
}

// Summary holds cluster-wide totals.
type Summary struct {
	BytesSent uint64
	// BytesReceived mirrors BytesSent from the receiver's side; the two
	// agree for intra-cluster traffic but diverge under node loss (bytes
	// sent to a dead peer are never received).
	BytesReceived      uint64
	Messages           uint64
	Fetches            uint64
	RemoteFetches      uint64
	CacheHits          uint64
	CacheMisses        uint64
	HDSHits            uint64
	VerticalHits       uint64
	Extensions         uint64
	Matches            uint64
	KernelMerge        uint64
	KernelGallop       uint64
	KernelBitmap       uint64 // dense-suffix candidate sets computed by word AND (plan.Plan.Dense)
	KernelProbe        uint64 // count-only children probed against a mark set (plan.Level.Probe)
	KernelPivot        uint64 // always 0 (the engine never selects it); the benchmark's trace reads it
	CrossSocketFetches uint64
	CrossSocketBytes   uint64
	FetchRetries       uint64
	FetchTimeouts      uint64
	BreakerTrips       uint64
	FaultsInjected     uint64
	RecoveredRoots     uint64
	CorruptFrames      uint64
	Redials            uint64
	SpeculativeRanges  uint64
	SpeculationWins    uint64
	PipelinedFetches   uint64
	// InFlightPeak is the maximum over machines of the per-machine
	// high-water mark of outstanding TCP fetches.
	InFlightPeak uint64
	// PeakEmbeddings is the maximum over machines of the per-machine
	// live-embedding high-water mark.
	PeakEmbeddings uint64
	Breakdown      Breakdown
}

// Summarize sums all node counters.
func (c *Cluster) Summarize() Summary {
	var s Summary
	for _, n := range c.Nodes {
		s.BytesSent += n.BytesSent.Load()
		s.BytesReceived += n.BytesReceived.Load()
		s.Messages += n.Messages.Load()
		s.Fetches += n.Fetches.Load()
		s.RemoteFetches += n.RemoteFetches.Load()
		s.CacheHits += n.CacheHits.Load()
		s.CacheMisses += n.CacheMisses.Load()
		s.HDSHits += n.HDSHits.Load()
		s.VerticalHits += n.VerticalHits.Load()
		s.Extensions += n.Extensions.Load()
		s.Matches += n.Matches.Load()
		s.KernelMerge += n.KernelMerge.Load()
		s.KernelGallop += n.KernelGallop.Load()
		s.KernelBitmap += n.KernelBitmap.Load()
		s.KernelProbe += n.KernelProbe.Load()
		s.CrossSocketFetches += n.CrossSocketFetches.Load()
		s.CrossSocketBytes += n.CrossSocketBytes.Load()
		s.FetchRetries += n.FetchRetries.Load()
		s.FetchTimeouts += n.FetchTimeouts.Load()
		s.BreakerTrips += n.BreakerTrips.Load()
		s.FaultsInjected += n.FaultsInjected.Load()
		s.RecoveredRoots += n.RecoveredRoots.Load()
		s.CorruptFrames += n.CorruptFrames.Load()
		s.Redials += n.Redials.Load()
		s.SpeculativeRanges += n.SpeculativeRanges.Load()
		s.SpeculationWins += n.SpeculationWins.Load()
		s.PipelinedFetches += n.PipelinedFetches.Load()
		if p := n.InFlightPeak.Load(); p > s.InFlightPeak {
			s.InFlightPeak = p
		}
		if p := n.PeakEmbeddings.Load(); p > s.PeakEmbeddings {
			s.PeakEmbeddings = p
		}
		b := n.Breakdown()
		s.Breakdown.Compute += b.Compute
		s.Breakdown.Network += b.Network
		s.Breakdown.Scheduler += b.Scheduler
		s.Breakdown.Cache += b.Cache
	}
	return s
}

// Merge folds another summary into s: counters add, peaks take the maximum,
// and the breakdown accumulates. This is the multi-run combination rule
// (CountAll and the motif harness) — peaks are high-water marks of
// concurrent usage, and sequential runs do not stack their concurrency.
func (s *Summary) Merge(o Summary) {
	s.BytesSent += o.BytesSent
	s.BytesReceived += o.BytesReceived
	s.Messages += o.Messages
	s.Fetches += o.Fetches
	s.RemoteFetches += o.RemoteFetches
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.HDSHits += o.HDSHits
	s.VerticalHits += o.VerticalHits
	s.Extensions += o.Extensions
	s.Matches += o.Matches
	s.KernelMerge += o.KernelMerge
	s.KernelGallop += o.KernelGallop
	s.KernelBitmap += o.KernelBitmap
	s.KernelProbe += o.KernelProbe
	s.KernelPivot += o.KernelPivot
	s.CrossSocketFetches += o.CrossSocketFetches
	s.CrossSocketBytes += o.CrossSocketBytes
	s.FetchRetries += o.FetchRetries
	s.FetchTimeouts += o.FetchTimeouts
	s.BreakerTrips += o.BreakerTrips
	s.FaultsInjected += o.FaultsInjected
	s.RecoveredRoots += o.RecoveredRoots
	s.CorruptFrames += o.CorruptFrames
	s.Redials += o.Redials
	s.SpeculativeRanges += o.SpeculativeRanges
	s.SpeculationWins += o.SpeculationWins
	s.PipelinedFetches += o.PipelinedFetches
	if o.InFlightPeak > s.InFlightPeak {
		s.InFlightPeak = o.InFlightPeak
	}
	if o.PeakEmbeddings > s.PeakEmbeddings {
		s.PeakEmbeddings = o.PeakEmbeddings
	}
	s.Breakdown.Compute += o.Breakdown.Compute
	s.Breakdown.Network += o.Breakdown.Network
	s.Breakdown.Scheduler += o.Breakdown.Scheduler
	s.Breakdown.Cache += o.Breakdown.Cache
}

// Service aggregates the query-service counters: the admission controller's
// verdicts, the live-query gauge and its high-water mark, and summed query
// latency. All fields are atomic — the server's per-connection and
// per-query goroutines update them without coordination, mirroring the
// per-node counters above.
type Service struct {
	QueriesSubmitted        atomic.Uint64 // QUERY_SUBMIT frames received
	QueriesRejected         atomic.Uint64 // submissions bounced by the admission window or a draining server
	QueriesOK               atomic.Uint64 // queries that ran to completion
	QueriesCanceled         atomic.Uint64 // queries aborted by CANCEL or client disconnect
	QueriesFailed           atomic.Uint64 // compile or execution failures
	QueriesDeadlineExceeded atomic.Uint64 // queries killed by their per-query deadline
	ActiveQueries           atomic.Int64  // gauge: queries executing right now
	ActiveQueryPeak         atomic.Uint64 // high-water mark of ActiveQueries
	queryDurationNS         atomic.Int64  // summed execution latency of finished queries
}

// RecordActivePeak raises the live-query high-water mark to cur if it
// exceeds the stored peak (the CAS-max discipline of RecordInFlightPeak).
func (s *Service) RecordActivePeak(cur uint64) {
	for {
		old := s.ActiveQueryPeak.Load()
		if cur <= old || s.ActiveQueryPeak.CompareAndSwap(old, cur) {
			return
		}
	}
}

// AddQueryDuration accrues one finished query's execution latency.
func (s *Service) AddQueryDuration(d time.Duration) { s.queryDurationNS.Add(int64(d)) }

// AvgQueryDuration returns the mean execution latency over finished queries
// (completed, canceled, deadline-killed or failed — everything that
// actually ran).
func (s *Service) AvgQueryDuration() time.Duration {
	n := s.QueriesOK.Load() + s.QueriesCanceled.Load() + s.QueriesFailed.Load() +
		s.QueriesDeadlineExceeded.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(s.queryDurationNS.Load() / int64(n))
}

// SummaryLine renders the service counters in the CLI's one-line summary
// style (the transport summary's sibling).
func (s *Service) SummaryLine() string {
	return fmt.Sprintf("service: %d queries (%d ok, %d rejected, %d canceled, %d deadline-exceeded, %d failed), active peak %d, avg query %v",
		s.QueriesSubmitted.Load(), s.QueriesOK.Load(), s.QueriesRejected.Load(),
		s.QueriesCanceled.Load(), s.QueriesDeadlineExceeded.Load(), s.QueriesFailed.Load(),
		s.ActiveQueryPeak.Load(), s.AvgQueryDuration().Round(time.Microsecond))
}

// CacheHitRate returns hits/(hits+misses), or 0 with no accesses.
func (s Summary) CacheHitRate() float64 {
	t := s.CacheHits + s.CacheMisses
	if t == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(t)
}

// NetworkUtilization returns the fraction of the given aggregate bandwidth
// that the measured traffic consumed over the elapsed wall time, as in the
// paper's Figure 19.
func (s Summary) NetworkUtilization(bandwidthBytesPerSec float64, elapsed time.Duration) float64 {
	if elapsed <= 0 || bandwidthBytesPerSec <= 0 {
		return 0
	}
	return float64(s.BytesSent) / (bandwidthBytesPerSec * elapsed.Seconds())
}

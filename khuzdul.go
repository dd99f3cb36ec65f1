// Package khuzdul is the public API of the Khuzdul distributed graph
// pattern mining engine — a from-scratch reproduction of "Khuzdul: Efficient
// and Scalable Distributed Graph Pattern Mining Engine" (ASPLOS 2023).
//
// The library mines patterns (triangles, cliques, motifs, frequent labeled
// subgraphs) over large graphs on a simulated multi-machine cluster: the
// graph is 1-D hash partitioned across nodes, and each node runs the
// Khuzdul engine — extendable embeddings scheduled with BFS-DFS hybrid
// exploration, circulant communication batching, and GPM-specific data
// reuse (vertical, horizontal, static cache). One Config, validated by Open,
// sets machines, sockets, workers per socket, chunk and cache sizes,
// transport and resilience; one Result carries the count, the wall time and
// the summed per-machine metrics.
//
// Quick start:
//
//	g := khuzdul.RMAT(100_000, 1_000_000, 42)
//	eng, _ := khuzdul.Open(g, khuzdul.Config{NumNodes: 8, ThreadsPerSocket: 4})
//	defer eng.Close()
//	res, _ := eng.Triangles()
//	fmt.Println(res.Count, res.Elapsed, res.Summary.BytesSent)
package khuzdul

import (
	"fmt"
	"io"
	"strings"
	"time"

	"khuzdul/internal/apps"
	"khuzdul/internal/cache"
	"khuzdul/internal/cluster"
	"khuzdul/internal/fault"
	"khuzdul/internal/fsm"
	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
	"khuzdul/internal/service"
)

// Graph is an immutable in-memory undirected graph in CSR form.
type Graph = graph.Graph

// VertexID identifies a graph vertex.
type VertexID = graph.VertexID

// Label is a vertex label.
type Label = graph.Label

// Pattern is a small connected pattern graph to mine for.
type Pattern = pattern.Pattern

// System selects which ported client GPM system compiles the enumeration
// schedule.
type System = apps.System

// Client system choices.
const (
	// Automine uses k-Automine's canonical greedy schedules.
	Automine = apps.KAutomine
	// GraphPi uses k-GraphPi's cost-model schedule search (default).
	GraphPi = apps.KGraphPi
)

// Graph constructors and I/O, re-exported from the graph substrate.
var (
	// RMAT generates a skewed scale-free graph (n vertices, ~m edges).
	RMAT = graph.RMATDefault
	// Uniform generates an Erdős–Rényi-style random graph.
	Uniform = graph.Uniform
	// ReadEdgeList parses SNAP-style "u v" text.
	ReadEdgeList = graph.ReadEdgeList
	// ReadBinary reads the compact binary CSR format.
	ReadBinary = graph.ReadBinary
	// Orient converts a graph to a DAG by degree order (the orientation
	// preprocessing for triangle/clique counting on skewed graphs).
	Orient = graph.Orient
	// RandomLabels draws uniform vertex labels for FSM workloads.
	RandomLabels = graph.RandomLabels
	// FromLabeledEdges builds an edge-labeled graph (the paper's §2.1
	// extension, implemented here).
	FromLabeledEdges = graph.FromLabeledEdges
)

// LabeledEdge is an undirected edge carrying an edge label.
type LabeledEdge = graph.LabeledEdge

// WriteEdgeList writes a graph as edge-list text.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// WriteBinary writes a graph in the binary CSR format.
func WriteBinary(w io.Writer, g *Graph) error { return graph.WriteBinary(w, g) }

// ParsePattern resolves a pattern name ("triangle", "K5", "4-cycle",
// "house", or an explicit "n:u-v,..." edge list).
func ParsePattern(name string) (*Pattern, error) { return pattern.Parse(name) }

// Clique returns the complete pattern on k vertices.
func Clique(k int) *Pattern { return pattern.Clique(k) }

// The cluster's own configuration and result types, re-exported. Zero selects
// the default in every Config field; Open rejects what Config.Validate rejects
// with an error wrapping ErrInvalidConfig.
type (
	// Config tunes the simulated cluster and its per-node engines. The zero
	// value is one node with one thread and no cache.
	Config = cluster.Config
	// Result reports one mining run: Summary.BytesSent is the exact
	// remote-fetch traffic, Summary.CacheHitRate() the static-cache hit rate.
	Result = cluster.Result
	// Transport selects the fabric between simulated machines.
	Transport = cluster.Transport
	// CachePolicy selects the static cache design.
	CachePolicy = cache.Policy
	// FaultProfile injects deterministic faults into the fabric; a non-nil
	// Config.Fault enables the resilience layer.
	FaultProfile = fault.Profile
)

const (
	// TransportChan is the in-process fabric (default).
	TransportChan = cluster.TransportChan
	// TransportTCP routes every remote fetch through loopback TCP sockets.
	TransportTCP = cluster.TransportTCP

	// Cache policies: the paper's insert-once STATIC design (default) and
	// the Figure 16 replacement designs.
	CacheStatic = cache.Static
	CacheFIFO   = cache.FIFO
	CacheLIFO   = cache.LIFO
	CacheLRU    = cache.LRU
	CacheMRU    = cache.MRU
)

var (
	// ErrInvalidConfig classifies a Config that Open refuses.
	ErrInvalidConfig = cluster.ErrInvalidConfig
	// ParseCachePolicy parses "static", "fifo", "lifo", "lru" or "mru".
	ParseCachePolicy = cache.ParsePolicy
	// ParseFaultProfile parses a fault spec such as "seed=7,err=0.05,
	// latency=200us,crash=2@500"; empty, "none" and "off" return nil.
	ParseFaultProfile = fault.ParseProfile
)

// Engine is an open mining session over one graph.
type Engine struct {
	c   *cluster.Cluster
	sys System
}

// Open partitions g over a simulated cluster and returns a mining engine.
func Open(g *Graph, cfg Config) (*Engine, error) {
	c, err := cluster.New(g, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{c: c, sys: GraphPi}, nil
}

// Close shuts the cluster down.
func (e *Engine) Close() error { return e.c.Close() }

// Graph returns the engine's input graph.
func (e *Engine) Graph() *Graph { return e.c.Graph() }

// SetSystem selects the client GPM system for subsequent runs.
func (e *Engine) SetSystem(sys System) { e.sys = sys }

// Triangles counts triangles.
func (e *Engine) Triangles() (Result, error) { return apps.TriangleCount(e.c, e.sys) }

// Cliques counts k-cliques.
func (e *Engine) Cliques(k int) (Result, error) { return apps.CliqueCount(e.c, k, e.sys) }

// ErrMotifSize classifies a motif size k that Motifs does not support.
var ErrMotifSize = pattern.ErrMotifSize

// MotifResult pairs a motif pattern with its induced embedding count.
type MotifResult struct {
	Pattern *Pattern
	Count   uint64
}

// Motifs counts the induced embeddings of every connected size-k pattern
// and the combined result. The engine counts each pattern non-induced and
// converts (see ExplainMotifs); k outside [2,6] is an ErrMotifSize error.
func (e *Engine) Motifs(k int) ([]MotifResult, Result, error) {
	per, combined, err := apps.MotifCount(e.c, k, e.sys)
	if err != nil {
		return nil, Result{}, err
	}
	pats := pattern.ConnectedPatterns(k)
	out := make([]MotifResult, len(per))
	for i := range per {
		out[i] = MotifResult{Pattern: pats[i], Count: per[i].Count}
	}
	return out, combined, nil
}

// CountPattern counts embeddings of an arbitrary pattern; induced selects
// motif semantics (non-edges must be absent).
func (e *Engine) CountPattern(p *Pattern, induced bool) (Result, error) {
	return apps.PatternCount(e.c, p, e.sys, induced)
}

// FrequentPattern is one FSM result: a labeled pattern and its MNI support.
type FrequentPattern = fsm.FrequentPattern

// MineFrequent runs frequent subgraph mining over a labeled graph: all
// labeled patterns with at most maxEdges edges whose MNI support reaches
// minSupport.
func (e *Engine) MineFrequent(minSupport uint64, maxEdges int) ([]FrequentPattern, time.Duration, error) {
	res, err := fsm.Mine(e.c, fsm.Config{MinSupport: minSupport, MaxEdges: maxEdges, Style: e.sys.Style()})
	if err != nil {
		return nil, 0, err
	}
	return res.Frequent, res.Elapsed, nil
}

// Query service: a resident Engine can serve pattern queries over TCP with
// admission control, per-query cancellation, and streamed partial counts.
// These are thin re-exports of internal/service.
type (
	// QueryServer is a running mining-as-a-service endpoint over one Engine.
	QueryServer = service.Server
	// QueryClient is one client connection to a QueryServer.
	QueryClient = service.Client
	// QuerySpec names one query (pattern or server-side plan reference).
	QuerySpec = service.Spec
	// QueryOutcome is the terminal answer for one query.
	QueryOutcome = service.Outcome
	// ServeConfig tunes a QueryServer (address, admission window, worker
	// budget, progress cadence, per-query deadline cap).
	ServeConfig = service.Config
	// ServiceHealth is a point-in-time server fitness snapshot: drain
	// state, admission load, and suspected-dead cluster nodes.
	ServiceHealth = service.Health
)

// Query-result sentinel errors, re-exported so callers can errors.Is them
// without importing internal packages.
var (
	// ErrQueryRejected: the admission window was full; the query never
	// started and is safe to resubmit.
	ErrQueryRejected = service.ErrRejected
	// ErrQueryCanceled: the query was aborted mid-run.
	ErrQueryCanceled = service.ErrCanceled
	// ErrQueryFailed: the server could not compile or execute the query.
	ErrQueryFailed = service.ErrQueryFailed
	// ErrQueryDeadlineExceeded: the query's deadline fired before it
	// finished; resubmit with a larger deadline.
	ErrQueryDeadlineExceeded = service.ErrDeadlineExceeded
	// ErrQueryDraining: the server is draining for shutdown; the query
	// never started and is safe to resubmit elsewhere.
	ErrQueryDraining = service.ErrDraining
)

// Serve starts a resident query server over the engine's cluster. The
// engine must stay open for the server's lifetime; close the server before
// the engine. Clusters opened with SharedCache reuse their static caches
// across the served queries.
func (e *Engine) Serve(cfg ServeConfig) (*QueryServer, error) {
	return service.New(e.c, cfg)
}

// DialQuery connects to a query server started by Serve (or `khuzdul
// serve`). A zero timeout uses the service default.
func DialQuery(addr string, timeout time.Duration) (*QueryClient, error) {
	return service.Dial(addr, timeout)
}

// ExplainPattern compiles p the way the engine's current system would and
// returns the schedule rendered as paper-style nested-loop pseudo-code.
func (e *Engine) ExplainPattern(p *Pattern, induced bool) (string, error) {
	pl, err := apps.Compile(e.sys, p, e.c.Graph(), apps.CompileOptions{Induced: induced})
	if err != nil {
		return "", err
	}
	return pl.Explain(), nil
}

// ExplainMotifs renders how Motifs(k) counts: for every connected size-k
// pattern the non-induced plan the engine's current system compiles for it,
// then the row of the conversion that turns the plans' counts into induced
// ones — each row subtracts the induced counts of denser patterns, which sit
// later in the list.
func (e *Engine) ExplainMotifs(k int) (string, error) {
	if err := pattern.CheckMotifSize(k); err != nil {
		return "", err
	}
	pats := pattern.ConnectedPatterns(k)
	conv := pattern.MotifConversion(k)
	var sb strings.Builder
	for i, p := range pats {
		s, err := e.ExplainPattern(p, false)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "motif %d (of 0–%d)\n%s", i, len(pats)-1, s)
		fmt.Fprintf(&sb, "conversion: induced[%d] = count[%d]", i, i)
		for j := i + 1; j < len(pats); j++ {
			if conv[i][j] != 0 {
				fmt.Fprintf(&sb, " − %d·induced[%d]", conv[i][j], j)
			}
		}
		sb.WriteString("\n")
		if i < len(pats)-1 {
			sb.WriteString("\n")
		}
	}
	return sb.String(), nil
}

// String describes the engine.
func (e *Engine) String() string {
	return fmt.Sprintf("khuzdul.Engine{%v, %d nodes}", e.sys, e.c.Config().NumNodes)
}

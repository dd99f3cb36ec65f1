package core

import (
	"sync/atomic"

	"khuzdul/internal/graph"
)

// Locality classifies where a vertex's edge list lives relative to the
// engine instance asking for it.
type Locality int

const (
	// LocalityLocal means the list is in this engine's own (sub-)partition.
	LocalityLocal Locality = iota
	// LocalityCrossSocket means the list is on another socket of the same
	// machine (NUMA mode only).
	LocalityCrossSocket
	// LocalityRemote means the list is on another machine and must be
	// fetched over the fabric.
	LocalityRemote
)

// DataSource supplies partitioned graph data to one engine instance (one
// socket of one machine). Implementations live in internal/cluster.
type DataSource interface {
	// Classify returns where v's edge list lives; for LocalityRemote the
	// second result is the owning machine.
	Classify(v graph.VertexID) (Locality, int)
	// LocalList returns the edge list of a LocalityLocal vertex.
	LocalList(v graph.VertexID) []graph.VertexID
	// CrossSocketList returns the edge list of a LocalityCrossSocket vertex,
	// accounting the cross-socket traffic.
	CrossSocketList(v graph.VertexID) []graph.VertexID
	// Fetch blocks until the edge lists of ids arrive from the owner
	// machine. The engine batches requests; pipelining happens above. ids
	// is never reused by the engine, so an implementation may still be
	// reading it after Fetch returned (an abandoned attempt of a retrying
	// fabric does).
	Fetch(owner int, ids []graph.VertexID) ([][]graph.VertexID, error)
	// NumNodes returns the number of machines in the cluster.
	NumNodes() int
	// LocalNode returns this machine's ID.
	LocalNode() int
	// Roots returns the vertices this engine instance starts embedding
	// trees from (its sub-partition's vertices).
	Roots() []graph.VertexID
	// Label returns the label of any vertex (labels are replicated).
	Label(v graph.VertexID) graph.Label
}

// Sink receives the embeddings the engine finds. Implementations must be
// safe for concurrent use; the engine calls OnMatch from worker threads.
type Sink interface {
	// OnMatch receives one matched embedding in matching-order positions.
	// The slice is reused by the engine; implementations must copy to
	// retain it.
	OnMatch(emb []graph.VertexID)
	// CountOnly reports whether the sink only needs match counts; the
	// engine then skips materializing final-level embeddings and counts
	// candidates directly (the common fast path for counting applications).
	CountOnly() bool
}

// CountSink counts matches without materializing them.
type CountSink struct {
	n atomic.Uint64
}

// OnMatch implements Sink.
func (s *CountSink) OnMatch(emb []graph.VertexID) { s.n.Add(1) }

// CountOnly implements Sink.
func (s *CountSink) CountOnly() bool { return true }

// Add records n matches found in bulk.
func (s *CountSink) Add(n uint64) { s.n.Add(n) }

// Count returns the number of matches recorded.
func (s *CountSink) Count() uint64 { return s.n.Load() }

// FuncSink adapts a function to Sink for applications that need every
// embedding (e.g. FSM support computation).
type FuncSink struct {
	F func(emb []graph.VertexID)
}

// OnMatch implements Sink.
func (s *FuncSink) OnMatch(emb []graph.VertexID) { s.F(emb) }

// CountOnly implements Sink.
func (s *FuncSink) CountOnly() bool { return false }

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
	// fabric does). A stopped engine does not wait for its fetches, so a
	// Fetch may still be running after Run returned.
	Fetch(owner int, ids []graph.VertexID) ([][]graph.VertexID, error)
	// NumNodes returns the number of machines in the cluster.
	NumNodes() int
	// LocalNode returns this machine's ID.
	LocalNode() int
	// Roots returns the vertices this engine instance starts embedding
	// trees from (its sub-partition's vertices).
	Roots() []graph.VertexID
}

// Sink receives the embeddings the engine finds. Implementations must be
// safe for concurrent use; the engine calls OnMatches from worker threads.
// A *CountSink makes the engine count-only: it counts what it can without
// building it — the last level, and a star tail folded into one binomial
// (plan.Plan.Fold) — and never calls OnMatches.
type Sink interface {
	// OnMatches receives every match of one extension: the embeddings
	// prefix+v, in matching-order positions, for each v in last. prefix is
	// the engine's own buffer with room for one more vertex, so
	// prefix[:len(prefix)+1] may be written to build a full embedding. last
	// must not be written: it may be a set the siblings of this extension
	// share. Both slices are reused by the engine; implementations must
	// copy to retain them.
	OnMatches(prefix, last []graph.VertexID)
}

// CountSink counts matches without materializing them.
type CountSink struct {
	n atomic.Uint64
}

// OnMatches implements Sink.
func (s *CountSink) OnMatches(prefix, last []graph.VertexID) { s.n.Add(uint64(len(last))) }

// Add records n matches found in bulk.
func (s *CountSink) Add(n uint64) { s.n.Add(n) }

// Count returns the number of matches recorded.
func (s *CountSink) Count() uint64 { return s.n.Load() }

// FuncSink adapts a function to Sink for applications that need every
// embedding one at a time.
type FuncSink struct {
	F func(emb []graph.VertexID)
}

// OnMatches implements Sink: F sees each embedding of the extension in turn,
// built in the engine's buffer.
func (s *FuncSink) OnMatches(prefix, last []graph.VertexID) {
	emb := prefix[:len(prefix)+1]
	for _, v := range last {
		emb[len(prefix)] = v
		s.F(emb)
	}
}

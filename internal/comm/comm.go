// Package comm is the communication substrate of the simulated cluster: the
// fabric over which machines fetch remote edge lists. Two interchangeable
// implementations are provided — an in-process fabric that moves slices
// through direct calls, and a TCP loopback fabric that serializes every
// request and response through real sockets. Both account traffic with the
// same byte formula, so experiments can quote exact network volumes
// regardless of transport (the paper reports traffic in bytes, Table 6,
// Figure 12, Figure 17).
package comm

import (
	"errors"
	"fmt"

	"khuzdul/internal/graph"
	"khuzdul/internal/metrics"
)

// ErrUnknownNode marks traffic addressed outside the cluster's node range.
// It is permanent for the resilience layer — retrying cannot make an unknown
// node exist — so Resilient fails fast instead of burning its retry budget.
var ErrUnknownNode error = permanentError{errors.New("comm: unknown node")}

// permanentError brands a sentinel as unretryable for PermanentError checks
// while staying matchable through errors.Is.
type permanentError struct{ error }

func (permanentError) Permanent() bool { return true }

// ErrConnDropped marks a fetch whose connection an injected mid-exchange drop
// severed. It is retryable: the next fetch redials (TCP) or simply goes
// through (the in-process fabric).
var ErrConnDropped = errors.New("comm: injected connection drop")

// Server answers edge-list requests for the vertices one machine owns.
type Server interface {
	// ServeEdgeLists returns the adjacency lists of the requested vertices,
	// in request order. Lists alias server-side storage in the local fabric;
	// callers must not modify them.
	ServeEdgeLists(ids []graph.VertexID) [][]graph.VertexID
}

// ServerFunc adapts a function to the Server interface.
type ServerFunc func(ids []graph.VertexID) [][]graph.VertexID

// ServeEdgeLists implements Server.
func (f ServerFunc) ServeEdgeLists(ids []graph.VertexID) [][]graph.VertexID { return f(ids) }

// Fabric connects the machines of the cluster.
type Fabric interface {
	// Fetch requests the edge lists of ids from machine to, on behalf of
	// machine from. It blocks until the response arrives (the paper's remote
	// fetches are blocking; engines batch and pipeline around it).
	Fetch(from, to int, ids []graph.VertexID) ([][]graph.VertexID, error)
	// Ping carries one liveness probe from machine from to machine to. Pings
	// are control traffic: they round-trip through the transport (and through
	// any fault-injecting wrapper) but are excluded from byte accounting so
	// experiment traffic numbers stay payload-only.
	Ping(from, to int) error
	// Close releases transport resources.
	Close() error
}

// RequestBytes returns the accounted wire size of a fetch request.
func RequestBytes(numIDs int) uint64 { return 4 + 4*uint64(numIDs) }

// ResponseBytes returns the accounted wire size of a fetch response.
func ResponseBytes(lists [][]graph.VertexID) uint64 {
	total := uint64(4)
	for _, l := range lists {
		total += 4 + 4*uint64(len(l))
	}
	return total
}

// account records the traffic of one request/response exchange.
func account(m *metrics.Cluster, from, to int, reqBytes, respBytes uint64) {
	if m == nil {
		return
	}
	m.Nodes[from].BytesSent.Add(reqBytes)
	m.Nodes[to].BytesReceived.Add(reqBytes)
	m.Nodes[to].BytesSent.Add(respBytes)
	m.Nodes[from].BytesReceived.Add(respBytes)
	m.Nodes[from].Messages.Add(1)
	m.Nodes[to].Messages.Add(1)
}

// Local is the in-process fabric: requests are served by direct calls into
// the destination machine's server, with full byte accounting. It is the
// default transport for experiments (zero serialization cost isolates the
// algorithmic effects the paper studies).
type Local struct {
	servers []Server
	m       *metrics.Cluster

	wireFaults WireFaults // fault-injection hook; nil costs one comparison
}

// NewLocal returns an in-process fabric over the given per-node servers.
// m may be nil to disable accounting.
func NewLocal(servers []Server, m *metrics.Cluster) *Local {
	return &Local{servers: servers, m: m}
}

// SetWireFaults installs the wire-fault hooks (fault injection). No bytes
// exist to flip or sockets to sever, so a corrupted exchange fails with
// ErrCorruptFrame, as TCP's CRC check would fail it, and a dropped one with
// ErrConnDropped. Call before sharing the fabric across goroutines.
func (l *Local) SetWireFaults(wf WireFaults) { l.wireFaults = wf }

// Fetch implements Fabric.
func (l *Local) Fetch(from, to int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	if to < 0 || to >= len(l.servers) {
		return nil, fmt.Errorf("comm: fetch to node %d: %w", to, ErrUnknownNode)
	}
	if wf := l.wireFaults; wf != nil {
		// Both hooks are consulted once per request, as on TCP.
		corrupt, drop := wf.CorruptFrame(from, to), wf.DropAfterSend(from, to)
		switch {
		case corrupt:
			if l.m != nil {
				l.m.Nodes[from].CorruptFrames.Add(1)
			}
			return nil, fmt.Errorf("comm: fetch %d->%d: injected corrupt request: %w", from, to, ErrCorruptFrame)
		case drop:
			return nil, fmt.Errorf("comm: fetch %d->%d: %w", from, to, ErrConnDropped)
		}
	}
	lists := l.servers[to].ServeEdgeLists(ids)
	account(l.m, from, to, RequestBytes(len(ids)), ResponseBytes(lists))
	return lists, nil
}

// Ping implements Fabric: an in-process peer is reachable iff it exists.
func (l *Local) Ping(from, to int) error {
	if to < 0 || to >= len(l.servers) {
		return fmt.Errorf("comm: ping to node %d: %w", to, ErrUnknownNode)
	}
	return nil
}

// Close implements Fabric.
func (l *Local) Close() error { return nil }

package gthinker

import (
	"testing"

	"khuzdul/internal/graph"
	"khuzdul/internal/metrics"
	"khuzdul/internal/partition"
)

// recordingFabric records the destination of every Fetch so tests can assert
// the wire request order.
type recordingFabric struct {
	owners []int
}

func (f *recordingFabric) Fetch(from, to int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	f.owners = append(f.owners, to)
	out := make([][]graph.VertexID, len(ids))
	for i := range out {
		out[i] = []graph.VertexID{}
	}
	return out, nil
}

func (f *recordingFabric) Ping(from, to int) error { return nil }
func (f *recordingFabric) Close() error            { return nil }

// TestFetchRemoteOwnerOrder pins the wire determinism of remote fetches:
// fetchRemote must batch by owner in ascending owner order, not in Go's
// randomized map iteration order. Against the old map-range implementation
// a single trial passes with probability 1/7! — twenty-five trials make an
// accidental pass impossible.
func TestFetchRemoteOwnerOrder(t *testing.T) {
	const nodes = 8
	g := graph.RMATDefault(64, 256, 5)
	asg := partition.NewAssignment(nodes, 1)
	local := partition.NewLocal(g, asg, 0)
	met := metrics.NewCluster(nodes).Nodes[0]

	var missing []graph.VertexID
	seen := map[int]bool{}
	for v := graph.VertexID(0); v < 64; v++ {
		if owner := asg.Owner(v); owner != 0 {
			missing = append(missing, v)
			seen[owner] = true
		}
	}
	if len(seen) < 4 {
		t.Fatalf("test needs several distinct owners, got %d", len(seen))
	}

	for trial := 0; trial < 25; trial++ {
		f := &recordingFabric{}
		n := newNode(local, f, met, Config{NumNodes: nodes, CacheBytes: 1 << 20}, nil)
		lists := map[graph.VertexID][]graph.VertexID{}
		n.fetchRemote(int64(trial), missing, lists)
		if len(f.owners) != len(seen) {
			t.Fatalf("trial %d: %d fetches for %d owners", trial, len(f.owners), len(seen))
		}
		for i := 1; i < len(f.owners); i++ {
			if f.owners[i-1] >= f.owners[i] {
				t.Fatalf("trial %d: owners fetched out of order: %v", trial, f.owners)
			}
		}
	}
}

package comm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"khuzdul/internal/graph"
	"khuzdul/internal/partition"
)

// Transport microbenchmarks. BenchmarkTCPFetchPipelined drives 8 concurrent
// fetchers at one peer over loopback; each fetch takes a pooled connection of
// the pair, so the pool grows to the fetchers' concurrency and the exchanges
// overlap on separate sockets. The bench servers add a fixed service latency
// emulating a remote peer: on loopback the exchange is otherwise pure CPU,
// and the latency is what circulant scheduling actually has to hide. Its
// allocs/op is the per-fetch allocation cost of the serial exchange.
// BenchmarkDecodeLists pins the response-decode allocation cost.

// benchRemoteLatency is the emulated per-request service time of a remote
// peer (network + queueing a real deployment pays per fetch).
const benchRemoteLatency = 100 * time.Microsecond

// benchFabric builds a 2-node TCP fabric over a moderate RMAT graph and
// returns it with a fixed batch of vertices owned by node 1.
func benchFabric(b *testing.B) (*TCP, []graph.VertexID) {
	b.Helper()
	g := graph.RMATDefault(2000, 16000, 7)
	asg := partition.NewAssignment(2, 1)
	base := testServersB(g, asg)
	servers := make([]Server, len(base))
	for i, s := range base {
		inner := s
		servers[i] = ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
			time.Sleep(benchRemoteLatency)
			return inner.ServeEdgeLists(ids)
		})
	}
	f, err := NewTCP(servers, nil)
	if err != nil {
		b.Fatal(err)
	}
	var ids []graph.VertexID
	for v := 0; v < g.NumVertices() && len(ids) < 64; v++ {
		if asg.Owner(graph.VertexID(v)) == 1 {
			ids = append(ids, graph.VertexID(v))
		}
	}
	return f, ids
}

// testServersB mirrors testServers for benchmarks (testing.B lacks the
// helper's *testing.T).
func testServersB(g *graph.Graph, asg partition.Assignment) []Server {
	servers := make([]Server, asg.NumNodes())
	for node := 0; node < asg.NumNodes(); node++ {
		local := partition.NewLocal(g, asg, node)
		servers[node] = ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
			out := make([][]graph.VertexID, len(ids))
			for i, id := range ids {
				out[i] = local.MustNeighbors(id)
			}
			return out
		})
	}
	return servers
}

// runFetchers drives exactly b.N fetches through f from `workers` concurrent
// goroutines, all targeting the same (0 -> 1) peer pair.
func runFetchers(b *testing.B, f Fabric, ids []graph.VertexID, workers int) {
	b.Helper()
	var next atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if next.Add(1) > int64(b.N) {
					return
				}
				if _, err := f.Fetch(0, 1, ids); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	close(errCh)
	for err := range errCh {
		b.Fatal(err)
	}
}

// BenchmarkTCPFetchPipelined measures fetch throughput with 8 concurrent
// fetchers against one peer — the shape circulant scheduling produces when
// several workers' batches target the same remote machine.
func BenchmarkTCPFetchPipelined(b *testing.B) {
	f, ids := benchFabric(b)
	defer f.Close()
	runFetchers(b, f, ids, 8)
}

// BenchmarkDecodeLists measures the response-payload decode cost for a
// 256-list response (the per-fetch hot path of every remote batch).
func BenchmarkDecodeLists(b *testing.B) {
	lists := make([][]graph.VertexID, 256)
	for i := range lists {
		l := make([]graph.VertexID, 16)
		for j := range l {
			l[j] = graph.VertexID(i*16 + j)
		}
		lists[i] = l
	}
	payload := encodeLists(nil, lists)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeLists(payload); err != nil {
			b.Fatal(err)
		}
	}
}

package comm

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"khuzdul/internal/graph"
	"khuzdul/internal/leakcheck"
	"khuzdul/internal/metrics"
	"khuzdul/internal/partition"
)

// runOverlap fires two concurrent fetches at a peer whose server reports, per
// request, whether the other request was in flight at the same time. The wait
// bounds how long the first request holds out for the second before giving up,
// so a fabric that serialized the two would terminate instead of deadlocking.
func runOverlap(t *testing.T, wait time.Duration) []bool {
	t.Helper()
	var (
		mu      sync.Mutex
		arrived int
		both    = make(chan struct{})
		results = make(chan bool, 2)
	)
	srv := ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
		mu.Lock()
		arrived++
		if arrived == 2 {
			close(both)
		}
		mu.Unlock()
		select {
		case <-both:
			results <- true
		case <-time.After(wait):
			results <- false
		}
		return echo(ids)
	})
	f, err := NewTCP([]Server{srv, srv}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(v graph.VertexID) {
			defer wg.Done()
			lists, err := f.Fetch(0, 1, []graph.VertexID{v})
			if err != nil {
				t.Errorf("Fetch(%d): %v", v, err)
				return
			}
			if len(lists) != 1 || len(lists[0]) != 1 || lists[0][0] != v {
				t.Errorf("Fetch(%d): wrong echo %v", v, lists)
			}
		}(graph.VertexID(i))
	}
	wg.Wait()
	got := []bool{<-results, <-results}
	return got
}

// echo answers each requested vertex with a one-element list holding it.
func echo(ids []graph.VertexID) [][]graph.VertexID {
	out := make([][]graph.VertexID, len(ids))
	for i, id := range ids {
		out[i] = []graph.VertexID{id}
	}
	return out
}

// TestMuxFetchesOverlap: two fetches to the same peer are in flight at once.
// The first holds no lock the second waits on; the second takes a connection
// of its own, so the server sees both before either returns.
func TestMuxFetchesOverlap(t *testing.T) {
	leakcheck.Check(t)
	for i, overlapped := range runOverlap(t, 5*time.Second) {
		if !overlapped {
			t.Errorf("request %d never saw the other request in flight; fetches did not overlap", i)
		}
	}
}

// acceptedConns counts the server-side connections the fabric has open.
func acceptedConns(f *TCP) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.accepted)
}

// heldServer blocks every request until release is closed, reporting each
// arrival on arrived.
func heldServer(arrived chan<- struct{}, release <-chan struct{}) Server {
	return ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
		arrived <- struct{}{}
		<-release
		return echo(ids)
	})
}

// TestPoolReusesConnections: the pool grows to a pair's peak concurrency and
// no further. After 16 concurrent fetches to one peer, 16 sequential ones
// reuse the idle connections and open no new server connection.
func TestPoolReusesConnections(t *testing.T) {
	leakcheck.Check(t)
	srv := ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
		time.Sleep(time.Millisecond) // hold the connection so fetches overlap
		return echo(ids)
	})
	m := metrics.NewCluster(2)
	f, err := NewTCP([]Server{srv, srv}, m)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(v graph.VertexID) {
			defer wg.Done()
			if _, err := f.Fetch(0, 1, []graph.VertexID{v}); err != nil {
				t.Errorf("Fetch(%d): %v", v, err)
			}
		}(graph.VertexID(i))
	}
	wg.Wait()
	grown := acceptedConns(f)
	if grown < 1 || grown > 16 {
		t.Fatalf("16 concurrent fetches left %d server connections, want 1..16", grown)
	}
	for i := 0; i < 16; i++ {
		if _, err := f.Fetch(0, 1, []graph.VertexID{graph.VertexID(i)}); err != nil {
			t.Fatalf("sequential Fetch(%d): %v", i, err)
		}
	}
	if got := acceptedConns(f); got != grown {
		t.Errorf("16 sequential fetches moved the server connections from %d to %d; the pool did not reuse them", grown, got)
	}
	s := m.Summarize()
	if s.PipelinedFetches != 32 {
		t.Errorf("counted %d TCP fetches, want 32", s.PipelinedFetches)
	}
	if s.InFlightPeak < 1 || s.InFlightPeak > 16 {
		t.Errorf("in-flight peak %d, want 1..16", s.InFlightPeak)
	}
	if s.Redials != 0 {
		t.Errorf("a pool that only grew counted %d redials", s.Redials)
	}
}

// TestDropCountsOneRedial: an injected drop closes its connection, and the
// next fetch's dial replaces it, which counts one redial. A dial that only
// grows the pool, because its one connection is busy, counts none.
func TestDropCountsOneRedial(t *testing.T) {
	leakcheck.Check(t)
	arrived := make(chan struct{})
	release := make(chan struct{})
	held := heldServer(arrived, release)
	srv := ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
		if ids[0] >= 3 { // the pool-growth phase below
			return held.ServeEdgeLists(ids)
		}
		return echo(ids)
	})
	m := metrics.NewCluster(2)
	f, err := NewTCP([]Server{srv, srv}, m)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.SetWireFaults(&scriptedFaults{dropN: map[int]bool{1: true}})

	if _, err := f.Fetch(0, 1, []graph.VertexID{1}); !errors.Is(err, ErrConnDropped) {
		t.Fatalf("dropped fetch: %v, want ErrConnDropped", err)
	}
	if got := m.Nodes[0].Redials.Load(); got != 0 {
		t.Fatalf("the first dial counted %d redials, want 0", got)
	}
	if _, err := f.Fetch(0, 1, []graph.VertexID{2}); err != nil {
		t.Fatalf("fetch after the drop: %v", err)
	}
	if got := m.Nodes[0].Redials.Load(); got != 1 {
		t.Fatalf("the fetch after one drop counted %d redials, want 1", got)
	}

	// Grow the pool: the first fetch holds the pair's only connection at the
	// server, so the second must dial.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(v graph.VertexID) {
			_, err := f.Fetch(0, 1, []graph.VertexID{v})
			errs <- err
		}(graph.VertexID(3 + i))
		<-arrived
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent fetch: %v", err)
		}
	}
	f.mu.Lock()
	pooled := len(f.live)
	f.mu.Unlock()
	if pooled != 2 {
		t.Fatalf("two overlapping fetches left %d client connections, want 2", pooled)
	}
	if got := m.Nodes[0].Redials.Load(); got != 1 {
		t.Fatalf("growing the pool moved the redial count to %d, want 1", got)
	}
}

// TestPingDoesNotWaitForSlowFetch: a ping to a peer whose only connection
// is stuck in a slow fetch takes a connection of its own and returns while
// the fetch is still held.
func TestPingDoesNotWaitForSlowFetch(t *testing.T) {
	leakcheck.Check(t)
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := heldServer(arrived, release)
	f, err := NewTCP([]Server{srv, srv}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var releaseOnce sync.Once
	unhold := func() { releaseOnce.Do(func() { close(release) }) }
	defer unhold() // before Close, which waits for the held responder
	fetched := make(chan error, 1)
	go func() {
		_, err := f.Fetch(0, 1, []graph.VertexID{1})
		fetched <- err
	}()
	<-arrived
	pinged := make(chan error, 1)
	go func() { pinged <- f.Ping(0, 1) }()
	select {
	case err := <-pinged:
		if err != nil {
			t.Fatalf("ping beside a held fetch: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ping queued behind the held fetch")
	}
	select {
	case err := <-fetched:
		t.Fatalf("the fetch finished (%v) before its server was released", err)
	default:
	}
	unhold()
	if err := <-fetched; err != nil {
		t.Fatalf("held fetch: %v", err)
	}
}

// TestMuxPerRequestError speaks the raw wire on a socket: a CRC-valid frame whose
// inner request is malformed draws a MUX_ERROR naming that request, and the
// same connection then serves a valid request — per-request failure does not
// poison the stream.
func TestMuxPerRequestError(t *testing.T) {
	leakcheck.Check(t)
	g := graph.Path(8)
	asg := partition.NewAssignment(2, 1)
	f, err := NewTCP(testServers(g, asg), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	c, r, w := dialHandshake(t, f.addrs[1])
	defer c.Close()

	// Request 7: CRC-intact, but the inner batch announces 100 ids and
	// carries none. The request ID is trustworthy, so the rejection must be
	// per-request.
	bad := binary.LittleEndian.AppendUint32(nil, 7)
	bad = binary.LittleEndian.AppendUint32(bad, 100)
	if err := writeFrame(w, frameMuxRequest, bad, -1); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameMuxError {
		t.Fatalf("malformed request drew frame type %#02x, want MUX_ERROR", typ)
	}
	id, _, err := muxID(payload)
	if err != nil || id != 7 {
		t.Fatalf("MUX_ERROR names request %d (err %v), want 7", id, err)
	}

	// The stream survives: request 8 on the same connection succeeds.
	var v graph.VertexID
	for u := 0; u < g.NumVertices(); u++ {
		if asg.Owner(graph.VertexID(u)) == 1 {
			v = graph.VertexID(u)
			break
		}
	}
	good := encodeMuxIDs(nil, 8, []graph.VertexID{v})
	if err := writeFrame(w, frameMuxRequest, good, -1); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = readFrame(r)
	if err != nil || typ != frameMuxResponse {
		t.Fatalf("valid request after rejection: type %#02x err %v, want MUX_RESPONSE", typ, err)
	}
	id, inner, err := muxID(payload)
	if err != nil || id != 8 {
		t.Fatalf("response names request %d (err %v), want 8", id, err)
	}
	lists, err := decodeLists(inner)
	if err != nil {
		t.Fatal(err)
	}
	if len(lists) != 1 || len(lists[0]) != int(g.Degree(v)) {
		t.Fatalf("response carries %d lists (first %d long), want the degree-%d list of %d",
			len(lists), len(lists[0]), g.Degree(v), v)
	}
}

// TestDecodeListsAllocs pins the slab decode: one response costs the header
// slice plus one backing slab, independent of how many lists it carries.
func TestDecodeListsAllocs(t *testing.T) {
	lists := make([][]graph.VertexID, 256)
	for i := range lists {
		l := make([]graph.VertexID, 16)
		for j := range l {
			l[j] = graph.VertexID(i*16 + j)
		}
		lists[i] = l
	}
	payload := encodeLists(nil, lists)
	allocs := testing.AllocsPerRun(200, func() {
		out, err := decodeLists(payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(lists) {
			t.Fatalf("decoded %d lists, want %d", len(out), len(lists))
		}
	})
	if allocs > 2 {
		t.Errorf("decodeLists allocated %.0f times per call, want at most 2 (headers + slab)", allocs)
	}
}

// TestMuxFetchAfterClose pins the shutdown path: once the fabric is closed, a
// fetch fails fast instead of dialing.
func TestMuxFetchAfterClose(t *testing.T) {
	g := graph.Path(4)
	asg := partition.NewAssignment(2, 1)
	f, err := NewTCP(testServers(g, asg), nil)
	if err != nil {
		t.Fatal(err)
	}
	var v graph.VertexID
	for u := 0; u < g.NumVertices(); u++ {
		if asg.Owner(graph.VertexID(u)) == 1 {
			v = graph.VertexID(u)
			break
		}
	}
	if _, err := f.Fetch(0, 1, []graph.VertexID{v}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := f.Fetch(0, 1, []graph.VertexID{v}); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("fetch after close: %v, want net.ErrClosed", err)
	}
}

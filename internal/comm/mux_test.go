package comm

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
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
// so the window-1 case terminates instead of deadlocking.
func runOverlap(t *testing.T, window int, wait time.Duration) []bool {
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
		out := make([][]graph.VertexID, len(ids))
		for i, id := range ids {
			out[i] = []graph.VertexID{id}
		}
		return out
	})
	f, err := NewTCP([]Server{srv, srv}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.window = window
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

// TestMuxFetchesOverlap proves the tentpole property: two fetches to the same
// peer are in flight on one connection simultaneously. With an in-flight
// window of 1 this rendezvous can never happen (see the companion test
// below), so the first request would wait out its full timeout.
func TestMuxFetchesOverlap(t *testing.T) {
	leakcheck.Check(t)
	for i, overlapped := range runOverlap(t, DefaultInFlight, 5*time.Second) {
		if !overlapped {
			t.Errorf("request %d never saw the other request in flight; fetches did not overlap", i)
		}
	}
}

// TestSerialFetchesDoNotOverlap pins the contrast: with an in-flight window
// of 1 — the serial exchange on this protocol — the second request cannot
// even be queued until the first exchange completes, so the first request's
// rendezvous must time out. If this starts failing, the overlap test above
// has lost its teeth.
func TestSerialFetchesDoNotOverlap(t *testing.T) {
	leakcheck.Check(t)
	got := runOverlap(t, 1, 200*time.Millisecond)
	if got[0] && got[1] {
		t.Fatal("window 1 overlapped two fetches; the window is not a bound")
	}
}

// TestMuxInFlightWindowBound proves the window is a real bound: with a
// window of 2, sixteen concurrent fetchers never put more than two requests
// on the server at once, and the in-flight peak gauge agrees.
func TestMuxInFlightWindowBound(t *testing.T) {
	leakcheck.Check(t)
	const window = 2
	var cur, peak atomic.Int64
	srv := ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond) // hold the slot so overlap is observable
		cur.Add(-1)
		return make([][]graph.VertexID, len(ids))
	})
	m := metrics.NewCluster(2)
	f, err := NewTCP([]Server{srv, srv}, m)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.window = window
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
	if got := peak.Load(); got > window {
		t.Errorf("server saw %d concurrent requests, window is %d", got, window)
	}
	s := m.Summarize()
	if s.PipelinedFetches != 16 {
		t.Errorf("pipelined %d fetches, want 16", s.PipelinedFetches)
	}
	if s.InFlightPeak == 0 || s.InFlightPeak > window {
		t.Errorf("in-flight peak %d, want in [1,%d]", s.InFlightPeak, window)
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
// mux fetch fails fast instead of parking on a dead window.
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

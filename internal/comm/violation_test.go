package comm

import (
	"bufio"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"khuzdul/internal/graph"
	"khuzdul/internal/leakcheck"
	"khuzdul/internal/metrics"
	"khuzdul/internal/partition"
)

// dialHandshake raw-dials a fabric listener and runs the client half of the
// handshake, returning the framed connection.
func dialHandshake(t *testing.T, addr string) (net.Conn, *bufio.Reader, *bufio.Writer) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(c)
	w := bufio.NewWriter(c)
	if err := clientHello(c, r, w, 0, 5*time.Second); err != nil {
		c.Close()
		t.Fatalf("handshake: %v", err)
	}
	return c, r, w
}

// TestOutdatedPeerIsRejected: a data-plane client from the retired serial
// generation (window [1,2], header version 1) gets no ack — the listener
// hangs up, which that client's own handshake reports as a version mismatch
// — and the refusal is classified as ErrVersionMismatch, not as a corrupt
// frame the retry layer would redial forever. The responder goroutine exits
// with the connection (leakcheck).
func TestOutdatedPeerIsRejected(t *testing.T) {
	leakcheck.Check(t)
	f, err := NewTCP(testServers(graph.Path(8), partition.NewAssignment(2, 1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	hello := func(c net.Conn) error {
		_, err := c.Write(encodeFrame(1, frameHello, encodeHello(1, 2, 0)))
		return err
	}
	c, err := net.Dial("tcp", f.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := hello(c); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if typ, _, err := readFrame(bufio.NewReader(c)); !errors.Is(err, io.EOF) {
		t.Fatalf("outdated peer read frame %#02x, err %v; want a hang-up without an ack", typ, err)
	}

	// The verdict the listener acted on.
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	sent := make(chan error, 1)
	go func() { sent <- hello(cli) }()
	err = acceptHello(srv, bufio.NewReader(srv), bufio.NewWriter(srv), 0)
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("acceptHello: %v, want ErrVersionMismatch", err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// TestServeMuxRejectsUnexpectedFrameType: a frame whose type is declared but
// has no business on the data plane — here a REQUEST of the retired serial
// generation — is a protocol violation the server must answer with
// frameError (and count as a corrupt frame) before abandoning the
// connection, not a silent close.
func TestServeMuxRejectsUnexpectedFrameType(t *testing.T) {
	leakcheck.Check(t)
	g := graph.Path(8)
	asg := partition.NewAssignment(2, 1)
	m := metrics.NewCluster(2)
	f, err := NewTCP(testServers(g, asg), m)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	c, r, w := dialHandshake(t, f.addrs[1])
	defer c.Close()
	if err := writeFrame(w, frameRequest, nil, -1); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, _, err := readFrame(r)
	if err != nil {
		t.Fatalf("server hung up without classifying the violation: %v", err)
	}
	if typ != frameError {
		t.Fatalf("got frame %#02x, want frameError", typ)
	}
	if m.Nodes[1].CorruptFrames.Load() == 0 {
		t.Fatal("protocol violation not accounted as a corrupt frame")
	}
}

// TestMuxClientRejectsUnexpectedFrameType is the client-side mirror of
// TestServeMuxRejectsUnexpectedFrameType: a handshaken peer that answers a
// fetch with a declared frame type that has no place in a response (a PONG)
// commits a protocol violation. The client must fail the fetch at once with
// ErrCorruptFrame, not skip the frame and leave the fetch waiting out its
// timeout.
func TestMuxClientRejectsUnexpectedFrameType(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peerDone := make(chan struct{})
	go func() {
		defer close(peerDone)
		c, err := ln.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer c.Close()
		r, w := bufio.NewReader(c), bufio.NewWriter(c)
		if err := acceptHello(c, r, w, 5*time.Second); err != nil {
			t.Errorf("handshake: %v", err)
			return
		}
		if typ, _, err := readFrame(r); err != nil || typ != frameMuxRequest {
			t.Errorf("read request: frame %#02x, err %v", typ, err)
			return
		}
		if err := writeFrame(w, framePong, nil, -1); err != nil || w.Flush() != nil {
			t.Errorf("write pong: %v", err)
			return
		}
		io.Copy(io.Discard, c) // hold the stream open until the client hangs up
	}()

	f, err := NewTCP(testServers(graph.Path(8), partition.NewAssignment(2, 1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.addrs[1] = ln.Addr().String()
	const timeout = 2 * time.Second
	f.SetIOTimeout(timeout)
	start := time.Now()
	_, err = f.Fetch(0, 1, []graph.VertexID{1, 2})
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("fetch answered by a PONG: err %v after %v, want ErrCorruptFrame", err, time.Since(start))
	}
	if elapsed := time.Since(start); elapsed >= timeout {
		t.Fatalf("fetch failed after %v, not before its %v timeout", elapsed, timeout)
	}
	<-peerDone
}

// TestDecodeQueryHealthSuspectCap: a health report announcing more suspects
// than maxHealthSuspects is corrupt even when its length field is internally
// consistent — the count must be clamped, not just cross-checked.
func TestDecodeQueryHealthSuspectCap(t *testing.T) {
	h := &QueryHealth{ActiveQueries: 1, Window: 4, Submitted: 9}
	h.Suspects = make([]uint32, maxHealthSuspects+1)
	for i := range h.Suspects {
		h.Suspects[i] = uint32(i + 1) // strictly ascending, so only the cap rejects it
	}
	p := encodeQueryHealth(nil, h)
	if _, err := decodeQueryHealth(p); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("oversized suspect list decoded: err = %v", err)
	}

	h.Suspects = h.Suspects[:maxHealthSuspects]
	p = encodeQueryHealth(nil, h)
	got, err := decodeQueryHealth(p)
	if err != nil {
		t.Fatalf("at-cap suspect list rejected: %v", err)
	}
	if len(got.Suspects) != maxHealthSuspects {
		t.Fatalf("round-trip kept %d suspects, want %d", len(got.Suspects), maxHealthSuspects)
	}
}

// TestWriteHealthTrimsSuspects: the server side never emits a report its
// peer must reject — an over-cap suspect list is trimmed on write, the
// mirror of WriteResult's detail trimming.
func TestWriteHealthTrimsSuspects(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srvErr := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		defer c.Close()
		qc, err := AcceptQuery(c, time.Second)
		if err != nil {
			srvErr <- err
			return
		}
		h := &QueryHealth{}
		h.Suspects = make([]uint32, maxHealthSuspects+100)
		for i := range h.Suspects {
			h.Suspects[i] = uint32(i + 1)
		}
		srvErr <- qc.WriteHealth(h)
	}()

	qc, err := DialQuery(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	msg, err := qc.ReadMsg()
	if err != nil {
		t.Fatalf("trimmed health report did not decode: %v", err)
	}
	h, ok := msg.(*QueryHealth)
	if !ok {
		t.Fatalf("expected *QueryHealth, got %#v", msg)
	}
	if len(h.Suspects) != maxHealthSuspects {
		t.Fatalf("received %d suspects, want the cap %d", len(h.Suspects), maxHealthSuspects)
	}
	if err := <-srvErr; err != nil {
		t.Fatal(err)
	}
}

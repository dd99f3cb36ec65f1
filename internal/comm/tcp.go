package comm

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"khuzdul/internal/graph"
	"khuzdul/internal/metrics"
)

// DefaultIOTimeout bounds every socket read/write of a single fetch
// exchange so a hung peer can never block a worker forever. SetIOTimeout
// overrides it; 0 disables deadlines entirely.
const DefaultIOTimeout = 30 * time.Second

// DefaultInFlight bounds how many multiplexed requests may be outstanding
// per connection. The window also sizes the server's response queue, so it
// doubles as the transport's memory bound per connection. The benchmark's
// TCP workloads never fill it: their in-flight peak is 7 or less
// (EXPERIMENTS.md).
const DefaultInFlight = 16

// maxFrameEntries bounds the u32 count prefixes of the wire format. A
// corrupt or truncated frame can announce up to 2^32-1 entries; accepting
// that would attempt a multi-gigabyte allocation before the stream even
// fails. Derived from MaxWireLen at 8 bytes per entry (a vertex ID plus
// slice overhead): 1<<26 entries is far beyond any real request or hub
// list.
const maxFrameEntries = MaxWireLen / 8

// TCP is a loopback-socket fabric: each simulated machine runs a responder
// listening on 127.0.0.1, and every exchange travels in integrity-checked
// frames (see frame.go) over real TCP connections. Each connection opens
// with a HELLO handshake; payloads are CRC32C-checked on both ends, so
// corruption surfaces as ErrCorruptFrame instead of mis-parsed counts. It
// exercises genuine serialization, syscalls and kernel buffering — the
// closest laptop equivalent of the paper's MPI communication subsystem.
type TCP struct {
	servers   []Server
	m         *metrics.Cluster
	listeners []net.Listener
	addrs     []string
	ioTimeout atomic.Int64 // nanoseconds; read by server goroutines
	// window is the per-connection mux window, DefaultInFlight. A connection
	// takes it when dialed; tests narrow it before any traffic, and a window
	// of 1 is the serial exchange on the same protocol.
	window int

	// wireFaults, when set, injects byte-level corruption and mid-exchange
	// connection drops (fault-injection hook; nil costs one comparison).
	wireFaults WireFaults

	mu     sync.Mutex
	conns  map[connKey]*tcpConn
	dialed map[connKey]bool // pairs dialed at least once, for Redials

	// accepted tracks inbound connections so Close can sever them. It has its
	// own lock: registration must not contend with t.mu, which a dialing
	// client holds across its handshake — on a loopback fabric that client
	// may be waiting for the very responder trying to register.
	amu      sync.Mutex
	accepted map[net.Conn]struct{}

	wg     sync.WaitGroup
	closed chan struct{}
}

// connKey identifies one client connection: the {from,to} pair plus a
// channel class (0 = fetch traffic, 1 = heartbeat pings), so pings never
// queue behind a slow bulk exchange.
type connKey struct {
	from, to int
	class    int
}

type tcpConn struct {
	mu sync.Mutex // serializes ping round trips
	c  net.Conn
	r  *bufio.Reader
	w  *bufio.Writer

	// mux carries the request-multiplexing state of a fetch connection; nil
	// on ping connections, whose round trips are serialized by mu instead.
	mux *muxState
}

// NewTCP starts one loopback listener per node and returns the fabric.
func NewTCP(servers []Server, m *metrics.Cluster) (*TCP, error) {
	t := &TCP{
		servers:  servers,
		m:        m,
		conns:    map[connKey]*tcpConn{},
		dialed:   map[connKey]bool{},
		accepted: map[net.Conn]struct{}{},
		closed:   make(chan struct{}),
		window:   DefaultInFlight,
	}
	t.ioTimeout.Store(int64(DefaultIOTimeout))
	for node := range servers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("comm: listen for node %d: %w", node, err)
		}
		t.listeners = append(t.listeners, ln)
		t.addrs = append(t.addrs, ln.Addr().String())
		t.wg.Add(1)
		go t.acceptLoop(node, ln)
	}
	return t, nil
}

func (t *TCP) acceptLoop(node int, ln net.Listener) {
	defer t.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.serveConn(node, c)
	}
}

// SetIOTimeout sets the per-operation socket deadline for subsequent
// fetches (0 disables deadlines).
func (t *TCP) SetIOTimeout(d time.Duration) { t.ioTimeout.Store(int64(d)) }

// SetWireFaults installs the byte-level fault hooks (fault injection). Call
// before sharing the fabric across goroutines.
func (t *TCP) SetWireFaults(wf WireFaults) { t.wireFaults = wf }

// timeout returns the fabric's per-operation socket deadline (0 = none).
func (t *TCP) timeout() time.Duration { return time.Duration(t.ioTimeout.Load()) }

// serveConn performs the server half of the handshake, then serves the
// connection's multiplexed exchanges (and pings) until it closes.
func (t *TCP) serveConn(node int, c net.Conn) {
	defer t.wg.Done()
	defer c.Close()
	// Register the inbound connection so Close can sever it: a responder
	// parks in deadline-free reads between requests, and only the peer — or
	// Close — closing the socket releases it.
	t.amu.Lock()
	select {
	case <-t.closed:
		t.amu.Unlock()
		return
	default:
	}
	t.accepted[c] = struct{}{}
	t.amu.Unlock()
	defer func() {
		t.amu.Lock()
		delete(t.accepted, c)
		t.amu.Unlock()
	}()
	r := bufio.NewReader(c)
	w := bufio.NewWriter(c)
	// A peer of another protocol generation, or one that does not lead with
	// a HELLO, gets no ack: the connection just closes, which its own
	// handshake reports as ErrVersionMismatch.
	if err := acceptHello(c, r, w, t.timeout()); err != nil {
		return
	}
	t.serveMux(node, c, r, w)
}

// isCorrupt reports whether err is an integrity-check failure (as opposed to
// EOF or a socket error).
func isCorrupt(err error) bool {
	return errors.Is(err, ErrCorruptFrame)
}

// Fetch implements Fabric. The exchange is multiplexed: up to the in-flight
// window of fetches pipeline over the pair's one socket and complete out of
// order.
func (t *TCP) Fetch(from, to int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	conn, err := t.conn(from, to, 0)
	if err != nil {
		return nil, err
	}
	lists, err := conn.mux.fetch(from, to, ids)
	if err != nil {
		return nil, fmt.Errorf("comm: fetch %d->%d: %w", from, to, err)
	}
	account(t.m, from, to, RequestBytes(len(ids)), ResponseBytes(lists))
	if t.m != nil {
		t.m.Nodes[from].PipelinedFetches.Add(1)
	}
	return lists, nil
}

// Ping performs one heartbeat round trip on the dedicated ping connection
// for the pair. Pings are control traffic: they are framed and
// CRC-protected like everything else but excluded from byte accounting.
func (t *TCP) Ping(from, to int) error {
	conn, err := t.conn(from, to, 1)
	if err != nil {
		return err
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	deadline(conn.c.SetWriteDeadline, t.timeout())
	if err := writeFrame(conn.w, framePing, nil, -1); err == nil {
		err = conn.w.Flush()
	} else {
		t.dropConn(connKey{from, to, 1}, conn)
		return fmt.Errorf("comm: ping %d->%d: %w", from, to, err)
	}
	deadline(conn.c.SetReadDeadline, t.timeout())
	typ, _, err := readFrame(conn.r)
	if err != nil || typ != framePong {
		t.dropConn(connKey{from, to, 1}, conn)
		if err == nil {
			err = fmt.Errorf("unexpected frame type %#02x: %w", typ, ErrCorruptFrame)
		}
		return fmt.Errorf("comm: ping %d->%d: %w", from, to, err)
	}
	return nil
}

// dropConn closes and forgets a connection whose stream state is suspect.
func (t *TCP) dropConn(key connKey, conn *tcpConn) {
	conn.c.Close()
	t.forgetConn(key, conn)
}

// forgetConn removes a connection from the pool so the next fetch redials.
func (t *TCP) forgetConn(key connKey, conn *tcpConn) {
	t.mu.Lock()
	if t.conns[key] == conn {
		delete(t.conns, key)
	}
	t.mu.Unlock()
}

// conn returns (dialing and handshaking if necessary) the connection for
// the ordered pair and channel class.
func (t *TCP) conn(from, to, class int) (*tcpConn, error) {
	key := connKey{from, to, class}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.conns[key]; ok {
		return c, nil
	}
	select {
	case <-t.closed:
		// Refuse to dial (and spawn mux goroutines) once Close has started;
		// Close's WaitGroup wait must not race new connections.
		return nil, fmt.Errorf("comm: dial node %d: %w", to, net.ErrClosed)
	default:
	}
	if to < 0 || to >= len(t.addrs) {
		return nil, fmt.Errorf("comm: fetch to node %d: %w", to, ErrUnknownNode)
	}
	if t.dialed[key] {
		// This pair had a live connection before; re-establishing it is a
		// redial (connection drop, corruption teardown, or peer restart).
		if t.m != nil && from >= 0 && from < len(t.m.Nodes) {
			t.m.Nodes[from].Redials.Add(1)
		}
	}
	c, err := net.Dial("tcp", t.addrs[to])
	if err != nil {
		return nil, fmt.Errorf("comm: dial node %d: %w", to, err)
	}
	tc := &tcpConn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}
	if err := clientHello(c, tc.r, tc.w, from, t.timeout()); err != nil {
		c.Close()
		return nil, fmt.Errorf("comm: handshake with node %d: %w", to, err)
	}
	if class == 0 {
		tc.mux = newMuxState(t, key, tc)
		// Both mux goroutines are owned by the fabric's WaitGroup: Close
		// severs the socket, the demux fails the connection, and both exit
		// before Close returns.
		t.wg.Add(2)
		go tc.mux.writeLoop()
		go tc.mux.readLoop()
	}
	t.dialed[key] = true
	t.conns[key] = tc
	return tc, nil
}

// Close shuts down listeners and connections.
func (t *TCP) Close() error {
	select {
	case <-t.closed:
		return nil
	default:
		close(t.closed)
	}
	for _, ln := range t.listeners {
		ln.Close()
	}
	// Severing a mux connection makes its demux goroutine re-take t.mu (to
	// forget the connection) before exiting; that is safe because the lock
	// is released before the WaitGroup wait below.
	t.mu.Lock()
	for _, c := range t.conns {
		c.c.Close()
	}
	t.mu.Unlock()
	t.amu.Lock()
	for c := range t.accepted {
		c.Close()
	}
	t.amu.Unlock()
	t.wg.Wait()
	return nil
}

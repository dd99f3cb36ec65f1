package comm

import (
	"bufio"
	"encoding/binary"
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
//
// A connection carries one exchange at a time. Each ordered (from, to) pair
// keeps a pool of idle connections: a fetch or ping takes one, or dials a
// new one when none is idle, and returns it once its reply is read. So
// concurrent fetches to one peer overlap on separate sockets, and the pool
// grows only to the pair's peak concurrency. Any failure that leaves the
// stream's framing in doubt closes the connection instead of returning it.
type TCP struct {
	servers   []Server
	m         *metrics.Cluster
	listeners []net.Listener
	addrs     []string
	ioTimeout atomic.Int64 // nanoseconds; read by server goroutines

	// wireFaults, when set, injects byte-level corruption and mid-exchange
	// connection drops (fault-injection hook; nil costs one comparison).
	wireFaults WireFaults

	mu   sync.Mutex
	idle map[pair][]*tcpConn   // connections between exchanges, per pair
	live map[*tcpConn]struct{} // every open client connection, for Close
	lost map[pair]int          // connections closed on failure, for Redials
	// accepted tracks inbound connections so Close can sever them: a
	// responder parks in a deadline-free read between requests.
	accepted map[net.Conn]struct{}

	wg     sync.WaitGroup
	closed chan struct{}
}

// pair is an ordered client→server machine pair.
type pair struct{ from, to int }

// tcpConn is one pooled client connection. nextID numbers its requests;
// only the goroutine holding the connection touches it.
type tcpConn struct {
	c      net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	nextID uint32
}

// NewTCP starts one loopback listener per node and returns the fabric.
func NewTCP(servers []Server, m *metrics.Cluster) (*TCP, error) {
	t := &TCP{
		servers:  servers,
		m:        m,
		idle:     map[pair][]*tcpConn{},
		live:     map[*tcpConn]struct{}{},
		lost:     map[pair]int{},
		accepted: map[net.Conn]struct{}{},
		closed:   make(chan struct{}),
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

// node returns the per-node metrics sink, or nil when accounting is
// disabled or the node is out of range (negative test senders).
func (t *TCP) node(n int) *metrics.Node {
	if t.m == nil || n < 0 || n >= len(t.m.Nodes) {
		return nil
	}
	return t.m.Nodes[n]
}

// serveConn performs the server half of the handshake, then answers the
// connection's frames one at a time, on this goroutine, until it closes.
func (t *TCP) serveConn(node int, c net.Conn) {
	defer t.wg.Done()
	defer c.Close()
	t.mu.Lock()
	select {
	case <-t.closed:
		t.mu.Unlock()
		return
	default:
	}
	t.accepted[c] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.accepted, c)
		t.mu.Unlock()
	}()
	r := bufio.NewReader(c)
	w := bufio.NewWriter(c)
	// A peer of another protocol generation, or one that does not lead with
	// a HELLO, gets no ack: the connection just closes, which its own
	// handshake reports as ErrVersionMismatch.
	if err := acceptHello(c, r, w, t.timeout()); err != nil {
		return
	}
	reply := func(typ uint8, payload []byte) error {
		return sendFrame(c, w, typ, payload, -1, t.timeout())
	}
	// violation counts a frame that cannot be attributed to a request and
	// answers it at connection level; the caller then abandons the stream.
	violation := func() {
		if met := t.node(node); met != nil {
			met.CorruptFrames.Add(1)
		}
		reply(frameError, nil)
	}
	for {
		c.SetReadDeadline(time.Time{}) // clients legitimately idle between requests
		typ, payload, err := readFramePooled(r)
		if err != nil {
			if isCorrupt(err) {
				// A damaged frame may have eaten a request ID.
				violation()
			}
			return
		}
		switch typ {
		case framePing:
			putPayloadBuf(payload)
			err = reply(framePong, nil)
		case frameMuxRequest:
			id, inner, idErr := muxID(payload)
			if idErr != nil {
				putPayloadBuf(payload)
				violation()
				return
			}
			ids, decErr := decodeIDs(inner)
			putPayloadBuf(payload)
			if decErr != nil {
				// The CRC held, so the request ID is trustworthy: reject just
				// this request and keep the stream.
				if met := t.node(node); met != nil {
					met.CorruptFrames.Add(1)
				}
				var rej [4]byte
				binary.LittleEndian.PutUint32(rej[:], id)
				err = reply(frameMuxError, rej[:])
				break
			}
			lists := t.servers[node].ServeEdgeLists(ids)
			out := encodeMuxLists(getPayloadBuf(0)[:0], id, lists)
			err = reply(frameMuxResponse, out)
			putPayloadBuf(out)
		default:
			// Declared frame type, wrong plane (a retired-generation REQUEST,
			// a query frame on the data port). Classify the violation before
			// abandoning the stream, so the peer fails loudly.
			putPayloadBuf(payload)
			violation()
			return
		}
		if err != nil {
			return
		}
	}
}

// isCorrupt reports whether err is an integrity-check failure (as opposed to
// EOF or a socket error).
func isCorrupt(err error) bool {
	return errors.Is(err, ErrCorruptFrame)
}

// errDropped fails a fetch whose connection an injected mid-exchange drop
// severed. It is retryable: the next fetch redials.
var errDropped = fmt.Errorf("drop after send: %w: %w", ErrConnDropped, net.ErrClosed)

// Fetch implements Fabric: one exchange on a pooled connection of the pair.
func (t *TCP) Fetch(from, to int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	conn, err := t.take(from, to)
	if err != nil {
		return nil, err
	}
	met := t.node(from)
	if met != nil {
		met.RecordInFlightPeak(uint64(met.InFlightFetches.Add(1)))
		defer met.InFlightFetches.Add(-1)
	}
	lists, keep, err := t.exchange(conn, from, to, ids)
	t.release(pair{from, to}, conn, keep)
	if err != nil {
		return nil, fmt.Errorf("comm: fetch %d->%d: %w", from, to, err)
	}
	account(t.m, from, to, RequestBytes(len(ids)), ResponseBytes(lists))
	if met != nil {
		met.PipelinedFetches.Add(1)
	}
	return lists, nil
}

// exchange writes one MUX_REQUEST and reads its reply. keep reports whether
// the stream is still in sync, so the connection may carry the next
// exchange: a per-request MUX_ERROR keeps it, while a send or read error, a
// damaged or unexpected frame, or an injected drop does not.
func (t *TCP) exchange(conn *tcpConn, from, to int, ids []graph.VertexID) (lists [][]graph.VertexID, keep bool, err error) {
	id := conn.nextID
	conn.nextID++
	payload := encodeMuxIDs(getPayloadBuf(0)[:0], id, ids)
	corrupt, drop := -1, false
	if wf := t.wireFaults; wf != nil {
		if wf.CorruptFrame(from, to) {
			// Flip a byte past the request-ID prefix so the receiver's CRC
			// check must catch real end-to-end damage.
			corrupt = 4 + (len(payload)-4)/2
		}
		drop = wf.DropAfterSend(from, to)
	}
	err = sendFrame(conn.c, conn.w, frameMuxRequest, payload, corrupt, t.timeout())
	putPayloadBuf(payload)
	if err != nil {
		return nil, false, fmt.Errorf("send: %w", err)
	}
	if drop {
		// Injected mid-exchange drop: the request may or may not be served,
		// but its reply is never read.
		return nil, false, errDropped
	}

	deadline(conn.c.SetReadDeadline, t.timeout())
	typ, reply, err := readFramePooled(conn.r)
	if err != nil {
		if isCorrupt(err) {
			if met := t.node(from); met != nil {
				met.CorruptFrames.Add(1)
			}
		}
		return nil, false, fmt.Errorf("response: %w", err)
	}
	defer putPayloadBuf(reply) // decodeLists copies into its slab
	switch typ {
	case frameMuxResponse, frameMuxError:
		got, inner, err := muxID(reply)
		if err != nil {
			return nil, false, err
		}
		if got != id {
			// The ID is an integrity check: a reply to another request means
			// the stream can no longer be trusted.
			return nil, false, fmt.Errorf("response for request %d, sent %d: %w", got, id, ErrCorruptFrame)
		}
		if typ == frameMuxError {
			// The server decoded a valid frame but a malformed request inside
			// it. Only this request fails; the connection lives on.
			return nil, true, fmt.Errorf("server rejected request %d: %w", id, ErrCorruptFrame)
		}
		lists, err = decodeLists(inner)
		return lists, true, err
	case frameError:
		// Connection-level rejection: the server read a damaged frame.
		if met := t.node(from); met != nil {
			met.CorruptFrames.Add(1)
		}
		return nil, false, fmt.Errorf("server rejected request: %w", ErrCorruptFrame)
	default:
		return nil, false, fmt.Errorf("unexpected frame type %#02x in response: %w", typ, ErrCorruptFrame)
	}
}

// Ping performs one heartbeat round trip on a pooled connection of the
// pair. A ping takes an idle connection like a fetch does, so it never
// queues behind a busy exchange. Pings are control traffic: they are framed
// and CRC-protected like everything else but excluded from byte accounting.
func (t *TCP) Ping(from, to int) error {
	conn, err := t.take(from, to)
	if err != nil {
		return err
	}
	err = sendFrame(conn.c, conn.w, framePing, nil, -1, t.timeout())
	if err == nil {
		deadline(conn.c.SetReadDeadline, t.timeout())
		var typ uint8
		if typ, _, err = readFrame(conn.r); err == nil && typ != framePong {
			err = fmt.Errorf("unexpected frame type %#02x: %w", typ, ErrCorruptFrame)
		}
	}
	t.release(pair{from, to}, conn, err == nil)
	if err != nil {
		return fmt.Errorf("comm: ping %d->%d: %w", from, to, err)
	}
	return nil
}

// take returns an idle connection of the pair, or dials and handshakes a new
// one. The dial runs outside t.mu. Re-establishing a connection that an
// earlier failure closed counts as a redial; growing the pool does not.
func (t *TCP) take(from, to int) (*tcpConn, error) {
	p := pair{from, to}
	t.mu.Lock()
	select {
	case <-t.closed:
		t.mu.Unlock()
		return nil, fmt.Errorf("comm: dial node %d: %w", to, net.ErrClosed)
	default:
	}
	if to < 0 || to >= len(t.addrs) {
		t.mu.Unlock()
		return nil, fmt.Errorf("comm: fetch to node %d: %w", to, ErrUnknownNode)
	}
	if n := len(t.idle[p]); n > 0 {
		conn := t.idle[p][n-1]
		t.idle[p] = t.idle[p][:n-1]
		t.mu.Unlock()
		return conn, nil
	}
	t.mu.Unlock()
	conn, err := t.dial(from, to)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.closed:
		// Close ran during the dial and cannot have seen this connection.
		conn.c.Close()
		return nil, fmt.Errorf("comm: dial node %d: %w", to, net.ErrClosed)
	default:
	}
	if t.lost[p] > 0 {
		t.lost[p]--
		if met := t.node(from); met != nil {
			met.Redials.Add(1)
		}
	}
	t.live[conn] = struct{}{}
	return conn, nil
}

// dial opens and handshakes a fresh connection to node to.
func (t *TCP) dial(from, to int) (*tcpConn, error) {
	c, err := net.Dial("tcp", t.addrs[to])
	if err != nil {
		return nil, fmt.Errorf("comm: dial node %d: %w", to, err)
	}
	conn := &tcpConn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}
	if err := clientHello(c, conn.r, conn.w, from, t.timeout()); err != nil {
		c.Close()
		return nil, fmt.Errorf("comm: handshake with node %d: %w", to, err)
	}
	return conn, nil
}

// release returns a connection to its pair's idle pool, or closes it when
// its stream is suspect (keep false) or the fabric is closing.
func (t *TCP) release(p pair, conn *tcpConn, keep bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.closed:
		keep = false
	default:
	}
	if keep {
		t.idle[p] = append(t.idle[p], conn)
		return
	}
	conn.c.Close()
	delete(t.live, conn)
	t.lost[p]++
}

// Close shuts down listeners and connections. Fetches blocked on a severed
// connection fail, and every responder exits before Close returns.
func (t *TCP) Close() error {
	t.mu.Lock()
	select {
	case <-t.closed:
		t.mu.Unlock()
		return nil
	default:
		close(t.closed)
	}
	for _, ln := range t.listeners {
		ln.Close()
	}
	for conn := range t.live {
		conn.c.Close()
	}
	for c := range t.accepted {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}

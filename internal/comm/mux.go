package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"khuzdul/internal/graph"
	"khuzdul/internal/metrics"
)

// Request multiplexing. One request/response pair at a time per connection
// head-of-line blocks: concurrent fetches to the same peer queue behind each
// other even though the engine's circulant schedule deliberately overlaps
// them. A fetch connection instead runs two goroutines — a writer draining a
// request queue, and a demux completing pending requests out of a
// request-ID map — so up to `window` exchanges pipeline over one socket and
// responses may return out of order.
//
// Failure semantics stay per-request: a CRC-valid but malformed request is
// rejected with a MUX_ERROR frame carrying its request ID, and the stream
// survives. A damaged frame (CRC failure, framing violation) poisons the
// whole stream — every in-flight request fails with a retryable error, the
// connection is forgotten, and the Resilient layer redials per request.

// muxState is the client half of one multiplexed fetch connection.
type muxState struct {
	t    *TCP
	key  connKey
	conn *tcpConn

	window chan struct{} // in-flight tokens; capacity = the fabric's window
	sendq  chan muxReq   // fetchers → writer; capacity = window, so sends never block

	mu      sync.Mutex
	pending map[uint32]chan muxReply
	// doomed holds the requests an injected drop severs the socket after:
	// their replies are never delivered, their waiters fail with errDropped.
	doomed map[uint32]bool
	nextID uint32
	failed error // sticky teardown error; set before stop is closed

	stop     chan struct{} // closed on teardown; releases the writer and waiters
	stopOnce sync.Once
}

type muxReq struct {
	payload []byte // request-ID-prefixed payload (pooled; writer returns it)
	corrupt int    // injected byte-flip index, -1 for none
	drop    bool   // injected mid-exchange drop: sever the socket after sending
}

type muxReply struct {
	payload []byte // request-ID-prefixed response payload (pooled; fetcher returns it)
	err     error
}

func newMuxState(t *TCP, key connKey, conn *tcpConn) *muxState {
	return &muxState{
		t:       t,
		key:     key,
		conn:    conn,
		window:  make(chan struct{}, t.window),
		sendq:   make(chan muxReq, t.window),
		pending: make(map[uint32]chan muxReply),
		stop:    make(chan struct{}),
	}
}

// nodeMetrics returns the per-node metrics sink, or nil when accounting is
// disabled or the node is out of range (negative test senders).
func (m *muxState) nodeMetrics(node int) *metrics.Node {
	if m.t.m == nil || node < 0 || node >= len(m.t.m.Nodes) {
		return nil
	}
	return m.t.m.Nodes[node]
}

// fetch runs one multiplexed exchange: acquire a window token, register in
// the pending map, queue the request for the writer, and wait for the demux
// to complete it (or for the per-request timeout to poison the connection).
func (m *muxState) fetch(from, to int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	select {
	case m.window <- struct{}{}:
	case <-m.stop:
		return nil, m.err()
	}
	defer func() { <-m.window }()

	if met := m.nodeMetrics(from); met != nil {
		met.RecordInFlightPeak(uint64(met.InFlightFetches.Add(1)))
		defer met.InFlightFetches.Add(-1)
	}

	m.mu.Lock()
	if m.failed != nil {
		// Capture under the lock: re-reading m.failed after Unlock races
		// with a concurrent transport failure installing a different error.
		err := m.failed
		m.mu.Unlock()
		return nil, err
	}
	id := m.nextID
	m.nextID++
	ch := make(chan muxReply, 1)
	m.pending[id] = ch
	m.mu.Unlock()

	payload := encodeMuxIDs(getPayloadBuf(0)[:0], id, ids)
	req := muxReq{payload: payload, corrupt: -1}
	if wf := m.t.wireFaults; wf != nil {
		if wf.CorruptFrame(from, to) {
			// Flip a byte past the request-ID prefix so the receiver's CRC
			// check must catch real end-to-end damage.
			req.corrupt = 4 + (len(payload)-4)/2
		}
		if req.drop = wf.DropAfterSend(from, to); req.drop {
			m.mu.Lock()
			if m.doomed == nil {
				m.doomed = make(map[uint32]bool)
			}
			m.doomed[id] = true
			m.mu.Unlock()
		}
	}
	select {
	case m.sendq <- req:
	case <-m.stop:
		m.unregister(id)
		putPayloadBuf(payload)
		return nil, m.err()
	}

	// Liveness: the demux reads without a deadline, so each fetch bounds its
	// own wait. A hung peer fails every waiter and poisons the connection.
	var timeout <-chan time.Time
	if d := m.t.timeout(); d > 0 {
		tm := time.NewTimer(d)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case rep := <-ch:
		if rep.err != nil {
			return nil, rep.err
		}
		_, inner, err := muxID(rep.payload)
		if err != nil {
			putPayloadBuf(rep.payload)
			return nil, err
		}
		lists, err := decodeLists(inner)
		putPayloadBuf(rep.payload) // decodeLists copies into its slab
		return lists, err
	case <-timeout:
		m.fail(fmt.Errorf("no response within %v: %w",
			m.t.timeout(), os.ErrDeadlineExceeded))
		return nil, m.err()
	}
}

// deliver completes one pending request. Reply channels have capacity 1 and
// receive exactly one message ever — whoever deletes the pending entry (the
// demux or fail, atomically under the mutex) owns the single send — so this
// can never block and never drops.
func deliver(ch chan muxReply, rep muxReply) {
	select {
	case ch <- rep:
	default:
	}
}

func (m *muxState) unregister(id uint32) {
	m.mu.Lock()
	delete(m.pending, id)
	m.mu.Unlock()
}

// err returns the sticky teardown error once the connection has failed.
func (m *muxState) err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed != nil {
		return m.failed
	}
	return fmt.Errorf("connection torn down mid-fetch: %w", net.ErrClosed)
}

// fail poisons the connection: it is forgotten (the next fetch redials),
// the socket is severed, and every pending request completes with a
// retryable error. Idempotent; the first error wins. The error is recorded
// before the socket closes, so the read error that closing causes in the
// demux can never win over the cause (an injected drop, say).
func (m *muxState) fail(cause error) {
	m.mu.Lock()
	if m.failed == nil {
		m.failed = cause
	}
	err := m.failed
	p := m.pending
	m.pending = map[uint32]chan muxReply{}
	m.mu.Unlock()
	m.t.forgetConn(m.key, m.conn)
	m.conn.c.Close()
	// Complete the orphaned waiters in request-ID order (deterministic), on
	// buffered channels, outside the lock.
	ids := make([]uint32, 0, len(p))
	for id := range p {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		deliver(p[id], muxReply{err: err})
	}
	m.stopOnce.Do(func() { close(m.stop) })
}

// errDropped fails the requests in flight on a connection an injected
// mid-exchange drop severed. It is retryable: the next fetch redials.
var errDropped = fmt.Errorf("drop after send: %w: %w", ErrConnDropped, net.ErrClosed)

// writeLoop serializes request frames onto the socket, flushing when the
// queue drains so back-to-back requests batch into one syscall.
func (m *muxState) writeLoop() {
	defer m.t.wg.Done()
	for {
		select {
		case req := <-m.sendq:
			deadline(m.conn.c.SetWriteDeadline, m.t.timeout())
			err := writeFrame(m.conn.w, frameMuxRequest, req.payload, req.corrupt)
			if err == nil && len(m.sendq) == 0 {
				err = m.conn.w.Flush()
			}
			putPayloadBuf(req.payload)
			if req.drop {
				// Injected mid-exchange drop: the request may or may not be
				// served, but its reply is never delivered (see doomed) and
				// every waiter still pending fails with the socket.
				m.conn.w.Flush()
				m.fail(errDropped)
				return
			}
			if err != nil {
				m.fail(fmt.Errorf("send: %w", err))
				return
			}
		case <-m.stop:
			return
		}
	}
}

// readLoop is the demux: it reads response frames and completes the pending
// request each one names. Any framing damage poisons the stream — the server
// cannot tell us which request a corrupt frame belonged to.
func (m *muxState) readLoop() {
	defer m.t.wg.Done()
	// No read deadline: the demux legitimately parks between responses.
	// Liveness is each fetch's per-request timeout.
	m.conn.c.SetReadDeadline(time.Time{})
	for {
		select {
		case <-m.stop:
			// Torn down from elsewhere (fetch timeout, writer error, Close);
			// the socket is already severed, exit without another read.
			return
		default:
		}
		typ, payload, err := readFramePooled(m.conn.r)
		if err != nil {
			if isCorrupt(err) {
				if met := m.nodeMetrics(m.key.from); met != nil {
					met.CorruptFrames.Add(1)
				}
			}
			m.fail(fmt.Errorf("response: %w", err))
			return
		}
		switch typ {
		case frameMuxResponse, frameMuxError:
			id, _, err := muxID(payload)
			if err != nil {
				putPayloadBuf(payload)
				m.fail(err)
				return
			}
			m.mu.Lock()
			if m.doomed[id] {
				// The reply to a dropped request beat the writer's teardown:
				// fail it with the socket, as if it had been lost in flight.
				m.mu.Unlock()
				putPayloadBuf(payload)
				m.fail(errDropped)
				return
			}
			ch, ok := m.pending[id]
			delete(m.pending, id)
			m.mu.Unlock()
			if !ok {
				// A response for a request we never sent: the stream can no
				// longer be trusted.
				putPayloadBuf(payload)
				m.fail(fmt.Errorf("response for unknown request %d: %w", id, ErrCorruptFrame))
				return
			}
			if typ == frameMuxError {
				putPayloadBuf(payload)
				// Per-request rejection: the server decoded a valid frame but
				// a malformed request inside it. Only this request fails; the
				// connection lives on.
				deliver(ch, muxReply{err: fmt.Errorf("server rejected request %d: %w", id, ErrCorruptFrame)})
				continue
			}
			deliver(ch, muxReply{payload: payload})
		case frameError:
			// Connection-level rejection: the server read a damaged frame and
			// cannot attribute it to a request. Everything in flight fails.
			if met := m.nodeMetrics(m.key.from); met != nil {
				met.CorruptFrames.Add(1)
			}
			m.fail(fmt.Errorf("server rejected request: %w", ErrCorruptFrame))
			return
		default:
			putPayloadBuf(payload)
			m.fail(fmt.Errorf("unexpected frame type %#02x in response: %w", typ, ErrCorruptFrame))
			return
		}
	}
}

// serveMux is the server half of a multiplexed connection: requests are
// decoded on the reader goroutine, served concurrently by per-request
// workers, and their responses serialized by one writer goroutine — so a
// slow edge list never head-of-line blocks the exchanges behind it. Worker
// concurrency is bounded by the client's in-flight window (each outstanding
// request holds a client-side token).
func (t *TCP) serveMux(node int, c net.Conn, r *bufio.Reader, w *bufio.Writer) {
	type resp struct {
		typ     uint8
		payload []byte // pooled; the writer returns it
	}
	respq := make(chan resp, DefaultInFlight)
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		broken := false
		for rp := range respq {
			if !broken {
				deadline(c.SetWriteDeadline, t.timeout())
				err := writeFrame(w, rp.typ, rp.payload, -1)
				if err == nil && len(respq) == 0 {
					err = w.Flush()
				}
				if err != nil {
					// Keep draining so workers never block on a dead writer.
					broken = true
					c.Close()
				}
			}
			putPayloadBuf(rp.payload)
		}
	}()
	var workers sync.WaitGroup
read:
	for {
		c.SetReadDeadline(time.Time{}) // clients legitimately idle between requests
		typ, payload, err := readFramePooled(r)
		if err != nil {
			if isCorrupt(err) {
				// A damaged frame may have eaten a request ID; reject at
				// connection level and abandon the stream.
				if t.m != nil {
					t.m.Nodes[node].CorruptFrames.Add(1)
				}
				respq <- resp{typ: frameError}
			}
			break
		}
		switch typ {
		case framePing:
			putPayloadBuf(payload)
			respq <- resp{typ: framePong}
		case frameMuxRequest:
			id, inner, err := muxID(payload)
			if err != nil {
				putPayloadBuf(payload)
				if t.m != nil {
					t.m.Nodes[node].CorruptFrames.Add(1)
				}
				respq <- resp{typ: frameError}
				break read
			}
			ids, err := decodeIDs(inner)
			putPayloadBuf(payload)
			if err != nil {
				// The CRC held, so the request ID is trustworthy: reject just
				// this request and keep the stream.
				if t.m != nil {
					t.m.Nodes[node].CorruptFrames.Add(1)
				}
				respq <- resp{
					typ:     frameMuxError,
					payload: binary.LittleEndian.AppendUint32(getPayloadBuf(0)[:0], id),
				}
				continue
			}
			workers.Add(1)
			go func() {
				defer workers.Done()
				lists := t.servers[node].ServeEdgeLists(ids)
				respq <- resp{
					typ:     frameMuxResponse,
					payload: encodeMuxLists(getPayloadBuf(0)[:0], id, lists),
				}
			}()
		default:
			// Declared frame type, wrong plane (a retired-generation REQUEST,
			// a query frame on the data port). Classify the
			// violation — count it and answer frameError — before
			// abandoning the stream, so the peer fails loudly.
			putPayloadBuf(payload)
			if t.m != nil {
				t.m.Nodes[node].CorruptFrames.Add(1)
			}
			respq <- resp{typ: frameError}
			break read
		}
	}
	workers.Wait()
	close(respq)
	writerWG.Wait()
}

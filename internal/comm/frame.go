package comm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"khuzdul/internal/graph"
)

// Wire-integrity protocol. Every byte exchanged by the TCP fabric travels
// inside a versioned, checksummed frame:
//
//	offset  size  field
//	0       2     magic 0x4B48 ("KH", little-endian on the wire)
//	2       1     protocol generation (always protoVersion)
//	3       1     frame type
//	4       4     payload length (u32)
//	8       4     CRC32C (Castagnoli) of the payload
//	12      …     payload
//
// Every simulated machine is the same binary, so the wire has one
// generation, a constant rather than per-connection state. A connection
// still opens with a handshake, the same on the data and the query plane:
// the client sends a HELLO whose payload carries the version window
// [protoVersion, protoVersion] plus its node ID, and the server answers with
// a HELLO_ACK carrying protoVersion when the window holds it, or closes the
// connection when it does not. Every other frame must carry protoVersion,
// and a mismatched magic, version, type, oversized length or CRC failure
// surfaces as ErrCorruptFrame — a retryable error — instead of silently
// mis-parsed edge lists.
//
// One exchange discipline. A connection carries one edge-list exchange at a
// time: the client writes a MUX_REQUEST and reads its MUX_RESPONSE (or
// MUX_ERROR) before the connection serves anything else, and concurrent
// fetches to one peer take separate connections from the pair's pool
// (tcp.go). The frames keep their u32 request-ID prefix, which the client
// checks on every reply, so a reply to another request fails as corrupt.
// Generations 1 and 2, which spoke an ID-less REQUEST/RESPONSE pair, are
// retired: a peer offering [1,2] is refused with ErrVersionMismatch on
// either plane.
//
// The frame header is genuine wire overhead, but traffic accounting keeps
// quoting the paper's payload formulas (RequestBytes/ResponseBytes) so
// experiment numbers stay comparable across fabrics.

// ErrCorruptFrame marks a frame rejected by the integrity checks (bad magic,
// bad version, unknown type, oversized length, or CRC mismatch). Retrying
// on a fresh connection may succeed.
var ErrCorruptFrame = errors.New("comm: corrupt frame")

// ErrVersionMismatch marks a handshake with a peer of another protocol
// generation.
var ErrVersionMismatch = errors.New("comm: protocol version mismatch")

const (
	frameMagic = 0x4B48 // "KH"

	// protoVersion is the one protocol generation this build speaks, on the
	// data and the query plane alike.
	protoVersion = 3

	frameHeaderSize = 12

	// maxFramePayload bounds the announced payload length before any
	// allocation happens: a corrupt length field must become an error, not a
	// multi-gigabyte read.
	maxFramePayload = MaxWireLen
)

// MaxWireLen is the single ceiling every server-side wire-length decode is
// clamped against: no length or count read off the socket may admit more
// than this many bytes into one allocation. The frame payload cap equals it
// directly; entry-count caps derive from it by element width
// (maxFrameEntries); the tighter string and suspect-list caps in query.go
// refine it for fields that are semantically tiny. Every violation surfaces
// as an ErrCorruptFrame-classified error, so callers retry on a fresh
// connection instead of OOM-ing on a hostile peer.
const MaxWireLen = 1 << 29

// Frame types.
const (
	frameHello    = 0x01 // client → server: version window + client node ID
	frameHelloAck = 0x02 // server → client: protoVersion
	frameRequest  = 0x03 // reserved: the retired v1/v2 request; never sent, answered with frameError
	frameResponse = 0x04 // reserved: the retired v1/v2 response; never sent
	framePing     = 0x05 // heartbeat probe (empty payload)
	framePong     = 0x06 // heartbeat reply (empty payload)
	frameError    = 0x07 // connection-level rejection (e.g. corrupt request); empty payload

	// Edge-list exchange: payloads carry a u32 request ID prefix so the CRC
	// covers it, followed by the canonical request/response payload.
	frameMuxRequest  = 0x08 // edge-list request: u32 request ID + IDs payload
	frameMuxResponse = 0x09 // edge-list response: u32 request ID + lists payload
	frameMuxError    = 0x0A // per-request rejection: u32 request ID (CRC-valid but malformed request)

	// Query-service frames (see query.go for the payload codecs).
	// The query plane rides the same framed wire as edge-list traffic: a
	// client submits pattern queries by ID and the server streams progress
	// and a final result per query, many queries in flight per connection.
	frameQuerySubmit   = 0x0B // client → server: query ID + pattern spec or plan reference
	frameQueryProgress = 0x0C // server → client: query ID + partial match count
	frameQueryResult   = 0x0D // server → client: query ID + terminal status + count
	frameQueryCancel   = 0x0E // client → server: query ID to abort
	frameQueryHealth   = 0x0F // client → server: empty probe; server → client: health report

	frameTypeMax = frameQueryHealth
)

// castagnoli is the CRC32C table (iSCSI polynomial, hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// writeFrame emits one frame. corruptByte, when non-negative, XOR-flips the
// payload byte at that index AFTER the CRC is computed — the fault
// injector's hook for exercising real end-to-end corruption detection.
func writeFrame(w *bufio.Writer, typ uint8, payload []byte, corruptByte int) error {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint16(hdr[0:], frameMagic)
	hdr[2] = protoVersion
	hdr[3] = typ
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if corruptByte >= 0 && len(payload) > 0 {
		i := corruptByte % len(payload)
		payload[i] ^= 0xFF
		_, err := w.Write(payload)
		payload[i] ^= 0xFF // restore the caller's buffer
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads and integrity-checks one frame. Every frame must carry
// protoVersion in its header except a HELLO, whose payload window decides,
// so an outdated peer is answered as a version mismatch rather than as line
// noise. The returned payload aliases a fresh buffer.
func readFrame(r *bufio.Reader) (typ uint8, payload []byte, err error) {
	return readFrameAlloc(r, nil)
}

// readFramePooled is readFrame with the payload drawn from payloadPool when
// a pooled buffer holds it. The caller owns the buffer and returns it with
// putPayloadBuf once decoded.
func readFramePooled(r *bufio.Reader) (typ uint8, payload []byte, err error) {
	return readFrameAlloc(r, pooledPayload)
}

// readFrameAlloc reads one frame into the buffer inHand returns for the
// announced length, or into readGrowing's when inHand is nil or returns nil:
// the announced length alone never sizes a fresh allocation past
// payloadFirstStep.
func readFrameAlloc(r *bufio.Reader, inHand func(int) []byte) (typ uint8, payload []byte, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if m := binary.LittleEndian.Uint16(hdr[0:]); m != frameMagic {
		return 0, nil, fmt.Errorf("bad magic %#04x: %w", m, ErrCorruptFrame)
	}
	v := hdr[2]
	typ = hdr[3]
	if typ < frameHello || typ > frameTypeMax {
		return 0, nil, fmt.Errorf("unknown frame type %#02x: %w", typ, ErrCorruptFrame)
	}
	if v != protoVersion && typ != frameHello {
		return 0, nil, fmt.Errorf("unsupported version %d: %w", v, ErrCorruptFrame)
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("frame announces %d payload bytes (max %d): %w", n, maxFramePayload, ErrCorruptFrame)
	}
	want := binary.LittleEndian.Uint32(hdr[8:])
	if inHand != nil {
		payload = inHand(int(n))
	}
	if payload != nil {
		_, err = io.ReadFull(r, payload)
	} else {
		payload, err = readGrowing(r, int(n))
	}
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("truncated frame (want %d payload bytes): %w", n, io.ErrUnexpectedEOF)
		}
		return 0, nil, err
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return 0, nil, fmt.Errorf("payload CRC %#08x, header says %#08x: %w", got, want, ErrCorruptFrame)
	}
	return typ, payload, nil
}

// payloadFirstStep is as much of an announced payload length as a reader
// with no buffer in hand trusts before bytes arrive. A header announcing
// maxFramePayload on a connection that then sends nothing costs this much,
// not half a gigabyte.
const payloadFirstStep = 32 << 10

// readGrowing reads an n-byte payload into fresh memory that grows only as
// bytes arrive: a first chunk of at most payloadFirstStep, then chunks no
// larger than what has already been read, joined once all n bytes are in. A
// read that fails after r bytes has allocated at most 2r + payloadFirstStep;
// a complete one at most 2n.
func readGrowing(r io.Reader, n int) ([]byte, error) {
	first := make([]byte, min(n, payloadFirstStep))
	if _, err := io.ReadFull(r, first); err != nil || len(first) == n {
		return first, err
	}
	chunks := [][]byte{first}
	for read := len(first); read < n; {
		c := make([]byte, min(n-read, read))
		if _, err := io.ReadFull(r, c); err != nil {
			return nil, err
		}
		chunks = append(chunks, c)
		read += len(c)
	}
	payload := make([]byte, 0, n)
	for _, c := range chunks {
		payload = append(payload, c...)
	}
	return payload, nil
}

// Handshake payloads.

// encodeHello builds the HELLO payload: [minVersion, maxVersion, nodeID u32].
func encodeHello(minVer, maxVer uint8, node int) []byte {
	p := make([]byte, 6)
	p[0] = minVer
	p[1] = maxVer
	binary.LittleEndian.PutUint32(p[2:], uint32(node))
	return p
}

// decodeHello parses a HELLO payload.
func decodeHello(p []byte) (minVer, maxVer uint8, node int, err error) {
	if len(p) != 6 {
		return 0, 0, 0, fmt.Errorf("hello payload is %d bytes, want 6: %w", len(p), ErrCorruptFrame)
	}
	return p[0], p[1], int(binary.LittleEndian.Uint32(p[2:])), nil
}

// clientHello runs the client half of the handshake, the same on the data
// and the query plane: send HELLO [protoVersion, protoVersion, node] and
// await the ack. A server of another generation hangs up instead, which is
// an ErrVersionMismatch. timeout bounds each half; 0 disables deadlines.
func clientHello(c net.Conn, r *bufio.Reader, w *bufio.Writer, node int, timeout time.Duration) error {
	if err := sendFrame(c, w, frameHello, encodeHello(protoVersion, protoVersion, node), -1, timeout); err != nil {
		return err
	}
	deadline(c.SetReadDeadline, timeout)
	typ, payload, err := readFrame(r)
	if err != nil {
		return fmt.Errorf("%w (%v)", ErrVersionMismatch, err)
	}
	if typ != frameHelloAck || len(payload) != 1 || payload[0] != protoVersion {
		return fmt.Errorf("bad hello ack: %w", ErrVersionMismatch)
	}
	return nil
}

// acceptHello runs the server half of the handshake, the same on the data
// and the query plane: read the client's HELLO and ack protoVersion if its
// window holds it. A peer whose window misses it — one from a retired
// protocol generation — is an ErrVersionMismatch and gets no ack. timeout
// bounds each half; 0 disables deadlines.
func acceptHello(c net.Conn, r *bufio.Reader, w *bufio.Writer, timeout time.Duration) error {
	deadline(c.SetReadDeadline, timeout)
	typ, payload, err := readFrame(r)
	if err != nil {
		return err
	}
	if typ != frameHello {
		return fmt.Errorf("frame %#02x where HELLO expected: %w", typ, ErrCorruptFrame)
	}
	peerMin, peerMax, _, err := decodeHello(payload)
	if err != nil {
		return err
	}
	if protoVersion < peerMin || protoVersion > peerMax {
		return fmt.Errorf("peer window [%d,%d] misses version %d: %w",
			peerMin, peerMax, protoVersion, ErrVersionMismatch)
	}
	return sendFrame(c, w, frameHelloAck, []byte{protoVersion}, -1, timeout)
}

// sendFrame writes one frame under a write deadline of timeout from now
// (none when 0) and flushes it, so every frame leaves in full before its
// sender waits for a reply.
func sendFrame(c net.Conn, w *bufio.Writer, typ uint8, payload []byte, corruptByte int, timeout time.Duration) error {
	deadline(c.SetWriteDeadline, timeout)
	if err := writeFrame(w, typ, payload, corruptByte); err != nil {
		return err
	}
	return w.Flush()
}

// deadline arms a socket deadline timeout from now through set, or clears
// it when timeout is 0 (deadlines disabled).
func deadline(set func(time.Time) error, timeout time.Duration) {
	if timeout > 0 {
		set(time.Now().Add(timeout))
		return
	}
	set(time.Time{})
}

// Payload codecs. The request payload is u32 count + count u32 IDs; the
// response payload is u32 count + per list (u32 len + len u32 vertices) —
// byte-identical to the accounted formulas.

// encodeIDs appends the request payload for ids to buf.
func encodeIDs(buf []byte, ids []graph.VertexID) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	return buf
}

// decodeIDs parses a request payload.
func decodeIDs(p []byte) ([]graph.VertexID, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("comm: request payload %d bytes: %w", len(p), ErrCorruptFrame)
	}
	n := binary.LittleEndian.Uint32(p)
	if n > maxFrameEntries {
		return nil, fmt.Errorf("comm: request announces %d ids (max %d): %w", n, maxFrameEntries, ErrCorruptFrame)
	}
	if uint64(len(p)) != 4+4*uint64(n) {
		return nil, fmt.Errorf("comm: request announces %d ids in %d payload bytes: %w", n, len(p), ErrCorruptFrame)
	}
	ids := make([]graph.VertexID, n)
	for i := range ids {
		ids[i] = graph.VertexID(binary.LittleEndian.Uint32(p[4+4*i:]))
	}
	return ids, nil
}

// encodeLists appends the response payload for lists to buf.
func encodeLists(buf []byte, lists [][]graph.VertexID) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(lists)))
	for _, l := range lists {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l)))
		for _, v := range l {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	}
	return buf
}

// decodeLists parses a response payload. All vertices land in one backing
// slab sub-sliced per list, so decoding costs two allocations regardless of
// how many lists the response carries. The sub-slices are capacity-clipped:
// appending to one list can never scribble over its neighbour.
func decodeLists(p []byte) ([][]graph.VertexID, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("comm: response payload %d bytes: %w", len(p), ErrCorruptFrame)
	}
	n := binary.LittleEndian.Uint32(p)
	if n > maxFrameEntries {
		return nil, fmt.Errorf("comm: response announces %d lists (max %d): %w", n, maxFrameEntries, ErrCorruptFrame)
	}
	// First pass: validate the framing and size the slab. The total vertex
	// count is bounded by the payload length, so a hostile header cannot
	// inflate the allocation past the bytes actually received.
	body := p[4:]
	var total uint64
	for i := uint32(0); i < n; i++ {
		if len(body) < 4 {
			return nil, fmt.Errorf("comm: response truncated at list %d/%d header: %w", i, n, ErrCorruptFrame)
		}
		ln := binary.LittleEndian.Uint32(body)
		body = body[4:]
		if ln > maxFrameEntries {
			return nil, fmt.Errorf("comm: response announces %d-vertex list (max %d): %w", ln, maxFrameEntries, ErrCorruptFrame)
		}
		if uint64(len(body)) < 4*uint64(ln) {
			return nil, fmt.Errorf("comm: response truncated in list %d/%d (want %d vertices): %w", i, n, ln, ErrCorruptFrame)
		}
		body = body[4*ln:]
		total += uint64(ln)
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("comm: %d trailing bytes after response lists: %w", len(body), ErrCorruptFrame)
	}
	// Second pass: fill the slab.
	lists := make([][]graph.VertexID, n)
	slab := make([]graph.VertexID, total)
	body = p[4:]
	var off uint64
	for i := range lists {
		ln := uint64(binary.LittleEndian.Uint32(body))
		body = body[4:]
		l := slab[off : off+ln : off+ln]
		for j := range l {
			l[j] = graph.VertexID(binary.LittleEndian.Uint32(body[4*uint64(j):]))
		}
		body = body[4*ln:]
		off += ln
		lists[i] = l
	}
	return lists, nil
}

// Request-ID payload helpers. The request ID rides inside the payload
// rather than the header so the CRC covers it and the 12-byte header stays
// the same for every frame type.

// encodeMuxIDs appends the mux request payload: request ID + IDs payload.
func encodeMuxIDs(buf []byte, id uint32, ids []graph.VertexID) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, id)
	return encodeIDs(buf, ids)
}

// encodeMuxLists appends the mux response payload: request ID + lists payload.
func encodeMuxLists(buf []byte, id uint32, lists [][]graph.VertexID) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, id)
	return encodeLists(buf, lists)
}

// muxID splits a mux payload into its request ID and the inner payload.
func muxID(p []byte) (id uint32, rest []byte, err error) {
	if len(p) < 4 {
		return 0, nil, fmt.Errorf("comm: mux payload %d bytes, want request ID: %w", len(p), ErrCorruptFrame)
	}
	return binary.LittleEndian.Uint32(p), p[4:], nil
}

// payloadPool recycles payload buffers — request encodes, pooled frame
// reads, response encodes — across exchanges, so the steady-state wire path
// performs no per-exchange buffer allocations.
var payloadPool sync.Pool

// maxPooledPayload caps what the pool retains: a hub-vertex response can run
// to hundreds of megabytes, and parking such a buffer in the pool would pin
// its high-water mark indefinitely.
const maxPooledPayload = 1 << 20

// pooledPayload returns a pooled buffer resliced to length n, or nil when
// the buffer the pool hands out cannot hold n bytes.
func pooledPayload(n int) []byte {
	if p, ok := payloadPool.Get().(*[]byte); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return nil
}

// getPayloadBuf returns a length-n buffer, reusing a pooled one when its
// capacity suffices. getPayloadBuf(0) seeds an encode buffer for append.
func getPayloadBuf(n int) []byte {
	if p := pooledPayload(n); p != nil {
		return p
	}
	return make([]byte, n)
}

// putPayloadBuf returns a buffer to the pool. Oversized buffers are dropped
// so one huge response does not pin memory for the fabric's lifetime.
func putPayloadBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledPayload {
		return
	}
	b = b[:0]
	payloadPool.Put(&b)
}

// WireFaults is the hook surface the fault injector uses to perturb a
// transport's exchanges. On TCP, CorruptFrame flips a payload byte after the
// CRC is computed (so the receiver's integrity check must catch it), and
// DropAfterSend severs the connection between sending a request and reading
// its response (a mid-exchange connection drop); Local fails the fetch with
// the error each would cause. Both are consulted once per request with the
// client's (from, to) pair: each request rolls its own faults, not the
// connection.
type WireFaults interface {
	CorruptFrame(from, to int) bool
	DropAfterSend(from, to int) bool
}

package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"
)

// Query-plane wire messages. The mining service (internal/service) keeps a
// cluster resident and serves pattern queries over the same framed, CRC32C-
// checked wire the fabric speaks. A query connection opens with the data
// plane's HELLO/HELLO_ACK handshake (clientHello/acceptHello) and then
// carries these frame types:
//
//	QUERY_SUBMIT    client → server   query ID + deadline + pattern spec or plan ref
//	QUERY_PROGRESS  server → client   query ID + running partial count
//	QUERY_RESULT    server → client   query ID + terminal status + count
//	QUERY_CANCEL    client → server   query ID to abort
//	QUERY_HEALTH    both directions   empty payload = probe; else the health report
//
// The query ID is client-assigned and scoped to the connection, exactly as
// mux request IDs are; the server echoes it on every progress and result
// frame so responses demultiplex without ordering constraints. All payload
// layouts live here: no byte of the wire format is interpreted outside
// internal/comm.

// QueryKind says how a QUERY_SUBMIT names its pattern.
type QueryKind uint8

const (
	// QueryPatternName submits a named pattern ("triangle", "K5", ...) or an
	// explicit "n:u-v,..." edge list in Spec.
	QueryPatternName QueryKind = 0
	// QueryEdgeList submits an explicit edge-list spec. The server parses it
	// with the same grammar as QueryPatternName; the distinction is
	// informational.
	QueryEdgeList QueryKind = 1
	// QueryPlanRef re-submits a plan the server already compiled, by the
	// PlanID a previous QUERY_RESULT returned. Spec is empty.
	QueryPlanRef QueryKind = 2

	queryKindMax = QueryPlanRef
)

// QueryStatus is the terminal status a QUERY_RESULT carries.
type QueryStatus uint8

const (
	// QueryOK: the query ran to completion; Count is exact.
	QueryOK QueryStatus = 0
	// QueryRejected: the admission window was full. Retryable — nothing ran.
	QueryRejected QueryStatus = 1
	// QueryCanceled: the query was aborted mid-run by QUERY_CANCEL or client
	// disconnect; Count is meaningless.
	QueryCanceled QueryStatus = 2
	// QueryFailed: compilation or execution failed; Detail explains.
	QueryFailed QueryStatus = 3
	// QueryDeadlineExceeded: the query's deadline fired mid-run and aborted
	// it; Count is meaningless. Distinct from QueryCanceled so clients can
	// tell their own budget expiring from an explicit abort.
	QueryDeadlineExceeded QueryStatus = 4

	queryStatusMax = QueryDeadlineExceeded
)

const (
	// maxQuerySpec bounds the pattern-spec string so a corrupt length field
	// cannot force a large allocation. Pattern specs are tens of bytes.
	maxQuerySpec = 1 << 12
	// maxQueryDetail bounds the result detail string likewise.
	maxQueryDetail = 1 << 12
	// maxHealthSuspects bounds the QUERY_HEALTH suspect list. The count
	// travels as a u16, but a cluster has a few dozen nodes, not thousands:
	// a report announcing more is corrupt, not informative.
	maxHealthSuspects = 1 << 12

	querySubmitFixed = 21 // u32 ID + kind + system + flags + u32 planID + u64 deadlineNS + u16 specLen
	queryResultFixed = 27 // u32 ID + status + u32 planID + u64 count + u64 elapsedNS + u16 detailLen
	queryHealthFixed = 27 // state + u32 active + u32 window + u64 submitted + u64 deadlineExceeded + u16 suspectCount

	// maxDurationNS bounds the nanosecond fields carried on the wire
	// (deadlines, elapsed times): anything beyond 2^62 ns (~146 years) is a
	// corrupt frame, not a plausible duration.
	maxDurationNS = uint64(1) << 62
)

// QuerySubmit is the QUERY_SUBMIT payload: a client's request to run one
// pattern query.
type QuerySubmit struct {
	// ID is the client-assigned, connection-scoped query identifier echoed
	// on every frame about this query.
	ID uint32
	// Kind selects how the pattern is named.
	Kind QueryKind
	// System selects the client GPM system compiling the schedule
	// (0 = automine, 1 = graphpi).
	System uint8
	// Induced requests induced (motif) matching semantics.
	Induced bool
	// PlanID references a previously compiled plan (QueryPlanRef only).
	PlanID uint32
	// Deadline bounds the query's server-side execution; past it the server
	// cancels the run and answers QueryDeadlineExceeded. 0 means no
	// client-imposed deadline (the server may still cap it).
	Deadline time.Duration
	// Spec is the pattern name or edge list (empty for QueryPlanRef).
	Spec string
}

// QueryProgress is the QUERY_PROGRESS payload: a running partial count for
// one in-flight query, streamed periodically while it executes.
type QueryProgress struct {
	ID      uint32
	Partial uint64
}

// QueryResult is the QUERY_RESULT payload: the terminal answer for one
// query.
type QueryResult struct {
	ID     uint32
	Status QueryStatus
	// PlanID identifies the compiled plan the server used (or assigned), so
	// the client can re-submit it cheaply with QueryPlanRef. 0 = none.
	PlanID uint32
	// Count is the exact match count (QueryOK only).
	Count uint64
	// Elapsed is the server-side execution time.
	Elapsed time.Duration
	// Detail carries the rejection or failure explanation.
	Detail string
}

// QueryCancel is the QUERY_CANCEL payload: abort one in-flight query.
type QueryCancel struct {
	ID uint32
}

// QueryHealthProbe is a client's empty-payload QUERY_HEALTH frame: a request
// for the server's health report. The same frame type carries the report
// back — direction plus the payload length disambiguate.
type QueryHealthProbe struct{}

// QueryHealth is the server's QUERY_HEALTH report: drain state, query-plane
// load, and the nodes the resident cluster currently believes dead.
type QueryHealth struct {
	// Draining reports whether the server has begun a graceful drain: new
	// submissions are being rejected while in-flight queries finish.
	Draining bool
	// ActiveQueries is the number of queries executing right now.
	ActiveQueries uint32
	// Window is the admission window (max concurrently executing queries).
	Window uint32
	// Submitted is the lifetime QUERY_SUBMIT count.
	Submitted uint64
	// DeadlineExceeded is the lifetime count of queries killed by their
	// deadline.
	DeadlineExceeded uint64
	// Suspects lists the cluster nodes currently suspected dead (crashed or
	// breaker-declared), ascending.
	Suspects []uint32
}

// encodeQuerySubmit appends the QUERY_SUBMIT payload to buf.
func encodeQuerySubmit(buf []byte, q *QuerySubmit) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, q.ID)
	buf = append(buf, byte(q.Kind), q.System)
	var flags byte
	if q.Induced {
		flags = 1
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, q.PlanID)
	ns := q.Deadline.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ns))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(q.Spec)))
	return append(buf, q.Spec...)
}

// decodeQuerySubmit parses and validates a QUERY_SUBMIT payload. Accepted
// payloads re-encode byte-identically (the canonical-form property the frame
// fuzzers check).
func decodeQuerySubmit(p []byte) (QuerySubmit, error) {
	if len(p) < querySubmitFixed {
		return QuerySubmit{}, fmt.Errorf("comm: query submit payload %d bytes (want ≥ %d): %w", len(p), querySubmitFixed, ErrCorruptFrame)
	}
	q := QuerySubmit{
		ID:     binary.LittleEndian.Uint32(p),
		Kind:   QueryKind(p[4]),
		System: p[5],
		PlanID: binary.LittleEndian.Uint32(p[7:]),
	}
	if q.Kind > queryKindMax {
		return QuerySubmit{}, fmt.Errorf("comm: query submit kind %d: %w", q.Kind, ErrCorruptFrame)
	}
	switch p[6] {
	case 0:
	case 1:
		q.Induced = true
	default:
		return QuerySubmit{}, fmt.Errorf("comm: query submit flags %#02x: %w", p[6], ErrCorruptFrame)
	}
	ns := binary.LittleEndian.Uint64(p[11:])
	if ns > maxDurationNS {
		return QuerySubmit{}, fmt.Errorf("comm: query deadline %d ns: %w", ns, ErrCorruptFrame)
	}
	q.Deadline = time.Duration(ns)
	n := binary.LittleEndian.Uint16(p[19:])
	if n > maxQuerySpec {
		return QuerySubmit{}, fmt.Errorf("comm: query spec announces %d bytes (max %d): %w", n, maxQuerySpec, ErrCorruptFrame)
	}
	if len(p) != querySubmitFixed+int(n) {
		return QuerySubmit{}, fmt.Errorf("comm: query submit announces %d spec bytes in %d payload bytes: %w", n, len(p), ErrCorruptFrame)
	}
	q.Spec = string(p[querySubmitFixed:])
	return q, nil
}

// encodeQueryProgress appends the QUERY_PROGRESS payload to buf.
func encodeQueryProgress(buf []byte, q *QueryProgress) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, q.ID)
	return binary.LittleEndian.AppendUint64(buf, q.Partial)
}

// decodeQueryProgress parses a QUERY_PROGRESS payload.
func decodeQueryProgress(p []byte) (QueryProgress, error) {
	if len(p) != 12 {
		return QueryProgress{}, fmt.Errorf("comm: query progress payload %d bytes, want 12: %w", len(p), ErrCorruptFrame)
	}
	return QueryProgress{
		ID:      binary.LittleEndian.Uint32(p),
		Partial: binary.LittleEndian.Uint64(p[4:]),
	}, nil
}

// encodeQueryResult appends the QUERY_RESULT payload to buf.
func encodeQueryResult(buf []byte, q *QueryResult) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, q.ID)
	buf = append(buf, byte(q.Status))
	buf = binary.LittleEndian.AppendUint32(buf, q.PlanID)
	buf = binary.LittleEndian.AppendUint64(buf, q.Count)
	ns := q.Elapsed.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ns))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(q.Detail)))
	return append(buf, q.Detail...)
}

// decodeQueryResult parses and validates a QUERY_RESULT payload.
func decodeQueryResult(p []byte) (QueryResult, error) {
	if len(p) < queryResultFixed {
		return QueryResult{}, fmt.Errorf("comm: query result payload %d bytes (want ≥ %d): %w", len(p), queryResultFixed, ErrCorruptFrame)
	}
	q := QueryResult{
		ID:     binary.LittleEndian.Uint32(p),
		Status: QueryStatus(p[4]),
		PlanID: binary.LittleEndian.Uint32(p[5:]),
		Count:  binary.LittleEndian.Uint64(p[9:]),
	}
	if q.Status > queryStatusMax {
		return QueryResult{}, fmt.Errorf("comm: query result status %d: %w", q.Status, ErrCorruptFrame)
	}
	ns := binary.LittleEndian.Uint64(p[17:])
	if ns > maxDurationNS {
		return QueryResult{}, fmt.Errorf("comm: query result elapsed %d ns: %w", ns, ErrCorruptFrame)
	}
	q.Elapsed = time.Duration(ns)
	n := binary.LittleEndian.Uint16(p[25:])
	if n > maxQueryDetail {
		return QueryResult{}, fmt.Errorf("comm: query detail announces %d bytes (max %d): %w", n, maxQueryDetail, ErrCorruptFrame)
	}
	if len(p) != queryResultFixed+int(n) {
		return QueryResult{}, fmt.Errorf("comm: query result announces %d detail bytes in %d payload bytes: %w", n, len(p), ErrCorruptFrame)
	}
	q.Detail = string(p[queryResultFixed:])
	return q, nil
}

// encodeQueryCancel appends the QUERY_CANCEL payload to buf.
func encodeQueryCancel(buf []byte, id uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, id)
}

// decodeQueryCancel parses a QUERY_CANCEL payload.
func decodeQueryCancel(p []byte) (QueryCancel, error) {
	if len(p) != 4 {
		return QueryCancel{}, fmt.Errorf("comm: query cancel payload %d bytes, want 4: %w", len(p), ErrCorruptFrame)
	}
	return QueryCancel{ID: binary.LittleEndian.Uint32(p)}, nil
}

// encodeQueryHealth appends the QUERY_HEALTH report payload to buf.
func encodeQueryHealth(buf []byte, h *QueryHealth) []byte {
	var state byte
	if h.Draining {
		state = 1
	}
	buf = append(buf, state)
	buf = binary.LittleEndian.AppendUint32(buf, h.ActiveQueries)
	buf = binary.LittleEndian.AppendUint32(buf, h.Window)
	buf = binary.LittleEndian.AppendUint64(buf, h.Submitted)
	buf = binary.LittleEndian.AppendUint64(buf, h.DeadlineExceeded)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(h.Suspects)))
	for _, n := range h.Suspects {
		buf = binary.LittleEndian.AppendUint32(buf, n)
	}
	return buf
}

// decodeQueryHealth parses and validates a QUERY_HEALTH report payload (the
// non-empty direction; an empty payload is the probe). The suspect list must
// be strictly ascending so accepted payloads re-encode byte-identically.
func decodeQueryHealth(p []byte) (QueryHealth, error) {
	if len(p) < queryHealthFixed {
		return QueryHealth{}, fmt.Errorf("comm: query health payload %d bytes (want ≥ %d): %w", len(p), queryHealthFixed, ErrCorruptFrame)
	}
	h := QueryHealth{
		ActiveQueries:    binary.LittleEndian.Uint32(p[1:]),
		Window:           binary.LittleEndian.Uint32(p[5:]),
		Submitted:        binary.LittleEndian.Uint64(p[9:]),
		DeadlineExceeded: binary.LittleEndian.Uint64(p[17:]),
	}
	switch p[0] {
	case 0:
	case 1:
		h.Draining = true
	default:
		return QueryHealth{}, fmt.Errorf("comm: query health state %#02x: %w", p[0], ErrCorruptFrame)
	}
	n := int(binary.LittleEndian.Uint16(p[25:]))
	if n > maxHealthSuspects {
		return QueryHealth{}, fmt.Errorf("comm: query health announces %d suspects (max %d): %w", n, maxHealthSuspects, ErrCorruptFrame)
	}
	if len(p) != queryHealthFixed+4*n {
		return QueryHealth{}, fmt.Errorf("comm: query health announces %d suspects in %d payload bytes: %w", n, len(p), ErrCorruptFrame)
	}
	if n > 0 {
		h.Suspects = make([]uint32, n)
		for i := range h.Suspects {
			h.Suspects[i] = binary.LittleEndian.Uint32(p[queryHealthFixed+4*i:])
			if i > 0 && h.Suspects[i] <= h.Suspects[i-1] {
				return QueryHealth{}, fmt.Errorf("comm: query health suspects not strictly ascending: %w", ErrCorruptFrame)
			}
		}
	}
	return h, nil
}

// QueryClientNode is the node ID a query client sends in its HELLO: query
// clients are external to the cluster, so they identify as a sentinel
// outside any valid node range.
const QueryClientNode = 0xFFFFFFFF

// QueryConn is one framed query-plane connection: the handshake plus typed
// read/write of the QUERY_* frames. It is symmetric — the service holds the
// accepted half, clients hold the dialed half. Writers are serialized by an
// internal mutex so the server's per-query goroutines can stream progress
// concurrently; ReadMsg must be called from a single reader goroutine.
type QueryConn struct {
	c       net.Conn
	r       *bufio.Reader
	timeout time.Duration // per-write deadline; 0 disables

	wmu sync.Mutex
	w   *bufio.Writer
	buf []byte // encode scratch, reused under wmu
}

// DialQuery connects to a query server and runs the client half of the
// handshake. timeout bounds each socket write (and the handshake); 0
// disables deadlines.
func DialQuery(addr string, timeout time.Duration) (*QueryConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("comm: dial query server: %w", err)
	}
	q := &QueryConn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c), timeout: timeout}
	// -1 encodes as the QueryClientNode sentinel in the HELLO's u32 node
	// field.
	err = clientHello(c, q.r, q.w, -1, timeout)
	c.SetReadDeadline(time.Time{})
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("comm: query handshake: %w", err)
	}
	return q, nil
}

// AcceptQuery runs the server half of the handshake on an accepted
// connection. Outdated peers (fabric clients of a retired generation, builds
// predating the query plane) are refused with ErrVersionMismatch and get the
// connection closed.
func AcceptQuery(c net.Conn, timeout time.Duration) (*QueryConn, error) {
	q := &QueryConn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c), timeout: timeout}
	err := acceptHello(c, q.r, q.w, timeout)
	c.SetReadDeadline(time.Time{})
	if err != nil {
		return nil, fmt.Errorf("comm: query handshake: %w", err)
	}
	return q, nil
}

// Close severs the connection, unblocking any parked ReadMsg.
func (q *QueryConn) Close() error { return q.c.Close() }

// ReadMsg reads the next query-plane frame and returns its decoded payload:
// *QuerySubmit, *QueryProgress, *QueryResult, *QueryCancel,
// *QueryHealthProbe (an empty QUERY_HEALTH) or *QueryHealth. Reads park
// without a deadline — a query connection legitimately idles — so only the
// peer or Close unblocks it. Any non-query frame after the handshake is a
// protocol violation surfaced as ErrCorruptFrame.
func (q *QueryConn) ReadMsg() (any, error) {
	typ, payload, err := readFrame(q.r)
	if err != nil {
		return nil, err
	}
	switch typ {
	case frameQuerySubmit:
		m, err := decodeQuerySubmit(payload)
		if err != nil {
			return nil, err
		}
		return &m, nil
	case frameQueryProgress:
		m, err := decodeQueryProgress(payload)
		if err != nil {
			return nil, err
		}
		return &m, nil
	case frameQueryResult:
		m, err := decodeQueryResult(payload)
		if err != nil {
			return nil, err
		}
		return &m, nil
	case frameQueryCancel:
		m, err := decodeQueryCancel(payload)
		if err != nil {
			return nil, err
		}
		return &m, nil
	case frameQueryHealth:
		if len(payload) == 0 {
			return &QueryHealthProbe{}, nil
		}
		m, err := decodeQueryHealth(payload)
		if err != nil {
			return nil, err
		}
		return &m, nil
	default:
		return nil, fmt.Errorf("comm: frame type %#02x on a query connection: %w", typ, ErrCorruptFrame)
	}
}

// writeMsg frames and flushes one encoded payload under the writer lock.
func (q *QueryConn) writeMsg(typ uint8, encode func([]byte) []byte) error {
	q.wmu.Lock()
	defer q.wmu.Unlock()
	q.buf = encode(q.buf[:0])
	return sendFrame(q.c, q.w, typ, q.buf, -1, q.timeout)
}

// WriteSubmit sends a QUERY_SUBMIT (client side).
func (q *QueryConn) WriteSubmit(s *QuerySubmit) error {
	if len(s.Spec) > maxQuerySpec {
		return fmt.Errorf("comm: query spec %d bytes (max %d): %w", len(s.Spec), maxQuerySpec, ErrCorruptFrame)
	}
	return q.writeMsg(frameQuerySubmit, func(b []byte) []byte { return encodeQuerySubmit(b, s) })
}

// WriteProgress sends a QUERY_PROGRESS (server side).
func (q *QueryConn) WriteProgress(p *QueryProgress) error {
	return q.writeMsg(frameQueryProgress, func(b []byte) []byte { return encodeQueryProgress(b, p) })
}

// WriteResult sends a QUERY_RESULT (server side). Oversized detail strings
// are truncated rather than rejected: the result must reach the client.
func (q *QueryConn) WriteResult(r *QueryResult) error {
	if len(r.Detail) > maxQueryDetail {
		trimmed := *r
		trimmed.Detail = r.Detail[:maxQueryDetail]
		r = &trimmed
	}
	return q.writeMsg(frameQueryResult, func(b []byte) []byte { return encodeQueryResult(b, r) })
}

// WriteCancel sends a QUERY_CANCEL (client side).
func (q *QueryConn) WriteCancel(id uint32) error {
	return q.writeMsg(frameQueryCancel, func(b []byte) []byte { return encodeQueryCancel(b, id) })
}

// WriteHealthProbe sends an empty QUERY_HEALTH frame (client side): a
// request for the server's health report.
func (q *QueryConn) WriteHealthProbe() error {
	return q.writeMsg(frameQueryHealth, func(b []byte) []byte { return b })
}

// WriteHealth sends a QUERY_HEALTH report (server side). A suspect list
// beyond the decode cap is trimmed — the mirror of WriteResult's detail
// trimming — so this side never emits a frame its peer must reject.
func (q *QueryConn) WriteHealth(h *QueryHealth) error {
	if len(h.Suspects) > maxHealthSuspects {
		trimmed := *h
		trimmed.Suspects = h.Suspects[:maxHealthSuspects]
		h = &trimmed
	}
	return q.writeMsg(frameQueryHealth, func(b []byte) []byte { return encodeQueryHealth(b, h) })
}

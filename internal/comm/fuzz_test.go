package comm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"khuzdul/internal/graph"
)

// The wire decoders face bytes straight off a socket; fuzzing asserts they
// never panic, never over-allocate on lying length prefixes — a decode may
// grow the heap by at most decodeAllocPerByte bytes per input byte plus
// decodeAllocSlack — and accept only payloads that re-encode to the exact
// same bytes (the format is canonical).

const (
	// decodeAllocPerByte is the heap one decode may spend per payload byte.
	// The costliest layout is decodeLists': a 24-byte slice header per
	// 4-byte list count (6 bytes per byte) and its slab at 4 bytes per
	// 4-byte vertex; size-class rounding adds at most an eighth on top.
	decodeAllocPerByte = 8
	// decodeAllocSlack covers what a decode spends regardless of its input:
	// a rejection's message and wrapping.
	decodeAllocSlack = 1 << 10
)

// checkDecodeAlloc runs decode over an n-byte payload and fails t when the
// heap grew by more than the decode allowance for n bytes.
func checkDecodeAlloc(t *testing.T, n int, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	limit := uint64(decodeAllocPerByte*n + decodeAllocSlack)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes (limit %d): a length prefix sized an allocation past the bytes received", n, grew, limit)
	}
}

// mustBeCorrupt fails t unless a decoder's rejection is classified.
func mustBeCorrupt(t *testing.T, decoder string, err error) {
	t.Helper()
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("%s rejection is not ErrCorruptFrame: %v", decoder, err)
	}
}

func FuzzReadIDs(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(encodeIDs(nil, nil))
	f.Add(encodeIDs(nil, []graph.VertexID{0, 1, 2, 0xFFFFFFFF}))
	f.Add(binary.LittleEndian.AppendUint32(nil, maxFrameEntries+1))
	f.Add([]byte{2, 0, 0, 0, 7, 7, 7}) // count says 2, bytes say less
	f.Fuzz(func(t *testing.T, p []byte) {
		var ids []graph.VertexID
		var err error
		checkDecodeAlloc(t, len(p), func() { ids, err = decodeIDs(p) })
		if err != nil {
			mustBeCorrupt(t, "decodeIDs", err)
			return
		}
		if re := encodeIDs(nil, ids); !bytes.Equal(re, p) {
			t.Fatalf("accepted %d bytes that re-encode to %d different bytes", len(p), len(re))
		}
	})
}

func FuzzReadLists(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(encodeLists(nil, nil))
	f.Add(encodeLists(nil, [][]graph.VertexID{{1, 2}, {}, {3}}))
	f.Add(binary.LittleEndian.AppendUint32(nil, maxFrameEntries+1))
	f.Add(append(encodeLists(nil, [][]graph.VertexID{{9}}), 0xEE)) // trailing byte
	f.Fuzz(func(t *testing.T, p []byte) {
		var lists [][]graph.VertexID
		var err error
		checkDecodeAlloc(t, len(p), func() { lists, err = decodeLists(p) })
		if err != nil {
			mustBeCorrupt(t, "decodeLists", err)
			return
		}
		if re := encodeLists(nil, lists); !bytes.Equal(re, p) {
			t.Fatalf("accepted %d bytes that re-encode to %d different bytes", len(p), len(re))
		}
	})
}

// decodePayload decodes an accepted frame's payload with the decoder its
// type dispatches to in the tree — the data-plane server and client, the
// handshake, QueryConn.ReadMsg — and returns what re-encodes the decoded
// message. A type no reader decodes (ping, pong, the hello ack, the
// connection error, the retired request and response) re-encodes to its
// payload unchanged.
func decodePayload(typ uint8, p []byte) (encode func() []byte, err error) {
	switch typ {
	case frameHello:
		minVer, maxVer, node, err := decodeHello(p)
		return func() []byte { return encodeHello(minVer, maxVer, node) }, err
	case frameMuxRequest:
		id, inner, err := muxID(p)
		if err != nil {
			return nil, err
		}
		ids, err := decodeIDs(inner)
		return func() []byte { return encodeMuxIDs(nil, id, ids) }, err
	case frameMuxResponse:
		id, inner, err := muxID(p)
		if err != nil {
			return nil, err
		}
		lists, err := decodeLists(inner)
		return func() []byte { return encodeMuxLists(nil, id, lists) }, err
	case frameMuxError:
		// The client reads the request ID and nothing after it.
		id, rest, err := muxID(p)
		return func() []byte { return append(binary.LittleEndian.AppendUint32(nil, id), rest...) }, err
	case frameQuerySubmit:
		m, err := decodeQuerySubmit(p)
		return func() []byte { return encodeQuerySubmit(nil, &m) }, err
	case frameQueryProgress:
		m, err := decodeQueryProgress(p)
		return func() []byte { return encodeQueryProgress(nil, &m) }, err
	case frameQueryResult:
		m, err := decodeQueryResult(p)
		return func() []byte { return encodeQueryResult(nil, &m) }, err
	case frameQueryCancel:
		m, err := decodeQueryCancel(p)
		return func() []byte { return encodeQueryCancel(nil, m.ID) }, err
	case frameQueryHealth:
		if len(p) == 0 {
			return func() []byte { return nil }, nil // the probe direction
		}
		m, err := decodeQueryHealth(p)
		return func() []byte { return encodeQueryHealth(nil, &m) }, err
	}
	return func() []byte { return p }, nil
}

func FuzzReadFrame(f *testing.F) {
	valid := func(typ uint8, payload []byte) []byte { return encodeFrame(protoVersion, typ, payload) }
	f.Add([]byte(nil))
	f.Add(valid(framePing, nil))
	f.Add(valid(frameRequest, encodeIDs(nil, []graph.VertexID{1, 2, 3})))
	f.Add(valid(frameHello, encodeHello(protoVersion, protoVersion, 0)))
	f.Add(valid(frameMuxRequest, encodeMuxIDs(nil, 42, []graph.VertexID{1, 2, 3})))
	f.Add(valid(frameMuxResponse, encodeMuxLists(nil, 42, [][]graph.VertexID{{1, 2}, {}})))
	f.Add(valid(frameMuxError, binary.LittleEndian.AppendUint32(nil, 42)))
	f.Add(valid(frameMuxRequest, []byte{0x2A})) // truncated: shorter than a request ID
	// Query-plane frames (v3): submissions, progress, results, cancels,
	// health probes/reports, and a submit whose spec-length prefix lies
	// about the payload.
	f.Add(valid(frameQuerySubmit, encodeQuerySubmit(nil, &QuerySubmit{ID: 7, Spec: "triangle"})))
	f.Add(valid(frameQuerySubmit, encodeQuerySubmit(nil, &QuerySubmit{ID: 8, Kind: QueryPlanRef, PlanID: 3})))
	f.Add(valid(frameQuerySubmit, encodeQuerySubmit(nil, &QuerySubmit{ID: 9, Spec: "triangle", Deadline: 5e9})))
	f.Add(valid(frameQueryProgress, encodeQueryProgress(nil, &QueryProgress{ID: 7, Partial: 99})))
	f.Add(valid(frameQueryResult, encodeQueryResult(nil, &QueryResult{ID: 7, Status: QueryOK, PlanID: 1, Count: 12})))
	f.Add(valid(frameQueryCancel, encodeQueryCancel(nil, 7)))
	f.Add(valid(frameQuerySubmit, encodeQuerySubmit(nil, &QuerySubmit{ID: 7, Spec: "triangle"})[:querySubmitFixed+2]))
	f.Add(valid(frameQueryHealth, nil)) // the probe direction: empty payload
	f.Add(valid(frameQueryHealth, encodeQueryHealth(nil, &QueryHealth{Draining: true, ActiveQueries: 2, Window: 4, Submitted: 17, Suspects: []uint32{1, 3}})))
	f.Add(valid(frameQueryHealth, encodeQueryHealth(nil, &QueryHealth{Window: 4, Suspects: []uint32{2}})[:queryHealthFixed]))
	huge := valid(framePing, nil)
	binary.LittleEndian.PutUint32(huge[4:], maxFramePayload+1)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			ok := errors.Is(err, ErrCorruptFrame) ||
				errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
			if !ok {
				t.Fatalf("readFrame rejection is neither integrity nor IO error: %v", err)
			}
			return
		}
		if typ < frameHello || typ > frameTypeMax {
			t.Fatalf("readFrame accepted unknown frame type %#02x", typ)
		}
		// An accepted frame must re-serialize to a prefix of the input. Only
		// a HELLO may carry a header version other than protoVersion.
		if data[2] != protoVersion && typ != frameHello {
			t.Fatalf("readFrame accepted version %d on frame type %#02x", data[2], typ)
		}
		re := encodeFrame(data[2], typ, payload)
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatal("accepted frame does not round-trip")
		}
		// Its payload must decode within the allowance, or be rejected as
		// corrupt, and an accepted payload must re-encode byte-identically.
		var encode func() []byte
		checkDecodeAlloc(t, len(payload), func() { encode, err = decodePayload(typ, payload) })
		if err != nil {
			mustBeCorrupt(t, "payload decoder", err)
			return
		}
		if re := encode(); !bytes.Equal(re, payload) {
			t.Fatalf("frame type %#02x: accepted %d payload bytes that re-encode to %d different bytes", typ, len(payload), len(re))
		}
	})
}

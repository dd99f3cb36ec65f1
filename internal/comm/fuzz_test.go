package comm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"khuzdul/internal/graph"
)

// The wire decoders face bytes straight off a socket; fuzzing asserts they
// never panic, never over-allocate on lying length prefixes, and accept only
// payloads that re-encode to the exact same bytes (the format is canonical).

func FuzzReadIDs(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(encodeIDs(nil, nil))
	f.Add(encodeIDs(nil, []graph.VertexID{0, 1, 2, 0xFFFFFFFF}))
	f.Add(binary.LittleEndian.AppendUint32(nil, maxFrameEntries+1))
	f.Add([]byte{2, 0, 0, 0, 7, 7, 7}) // count says 2, bytes say less
	f.Fuzz(func(t *testing.T, p []byte) {
		ids, err := decodeIDs(p)
		if err != nil {
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("decodeIDs rejection is not ErrCorruptFrame: %v", err)
			}
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
		lists, err := decodeLists(p)
		if err != nil {
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("decodeLists rejection is not ErrCorruptFrame: %v", err)
			}
			return
		}
		if re := encodeLists(nil, lists); !bytes.Equal(re, p) {
			t.Fatalf("accepted %d bytes that re-encode to %d different bytes", len(p), len(re))
		}
	})
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
	})
}

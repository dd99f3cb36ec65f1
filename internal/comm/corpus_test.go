package comm

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"khuzdul/internal/graph"
)

// The seed corpora under testdata/fuzz are committed so every `go test` run
// (and CI's fuzz smoke job) exercises the decoders against the interesting
// wire shapes — valid frames, truncations, CRC flips, version mismatches,
// lying length prefixes — without needing a fuzzing session to rediscover
// them. TestWriteFuzzCorpus regenerates them:
//
//	KHUZDUL_WRITE_FUZZ_CORPUS=1 go test ./internal/comm -run TestWriteFuzzCorpus
//
// Without the environment variable it verifies the committed files instead,
// so the corpus can never silently drift from the frame layout.

// corpusSeeds builds every seed, keyed by fuzz target and seed name.
func corpusSeeds() map[string]map[string][]byte {
	ids := encodeIDs(nil, []graph.VertexID{1, 2, 3, 0xFFFFFFFF})
	lists := encodeLists(nil, [][]graph.VertexID{{1, 2}, {}, {3, 4, 5}})

	request := encodeFrame(1, frameRequest, ids)
	crcFlip := append([]byte(nil), request...)
	crcFlip[len(crcFlip)-1] ^= 0xFF // payload no longer matches header CRC
	badVersion := encodeFrame(1, framePing, nil)
	badVersion[2] = 0x63 // outside the supported window
	badType := encodeFrame(1, framePing, nil)
	badType[3] = 0x7F // type above frameTypeMax
	hugePayload := encodeFrame(1, framePing, nil)
	binary.LittleEndian.PutUint32(hugePayload[4:], maxFramePayload+1)
	badMagic := encodeFrame(1, framePing, nil)
	badMagic[0] = 0x00

	idsTruncated := append([]byte(nil), ids[:len(ids)-3]...)
	idsLyingCount := binary.LittleEndian.AppendUint32(nil, maxFrameEntries+1)
	idsTrailing := append(encodeIDs(nil, []graph.VertexID{7}), 0xEE)

	// v3 multiplexed frames: request-ID-prefixed payloads, plus the hostile
	// shapes around the prefix (missing ID, frame truncated mid-payload).
	muxRequest := encodeFrame(protoVersion, frameMuxRequest, encodeMuxIDs(nil, 42, []graph.VertexID{1, 2, 3}))
	muxResponse := encodeFrame(protoVersion, frameMuxResponse, encodeMuxLists(nil, 42, [][]graph.VertexID{{1, 2}, {}, {3, 4, 5}}))
	muxError := encodeFrame(protoVersion, frameMuxError, binary.LittleEndian.AppendUint32(nil, 42))
	muxMissingID := encodeFrame(protoVersion, frameMuxRequest, []byte{0x2A})

	// Query-plane frames (v3): the service protocol's four message types,
	// plus the hostile shapes the codecs must reject (a spec-length prefix
	// that lies about the payload, a result truncated mid-fixed-header).
	querySubmit := encodeFrame(protoVersion, frameQuerySubmit,
		encodeQuerySubmit(nil, &QuerySubmit{ID: 7, Spec: "triangle"}))
	querySubmitRef := encodeFrame(protoVersion, frameQuerySubmit,
		encodeQuerySubmit(nil, &QuerySubmit{ID: 8, Kind: QueryPlanRef, PlanID: 3}))
	queryProgress := encodeFrame(protoVersion, frameQueryProgress,
		encodeQueryProgress(nil, &QueryProgress{ID: 7, Partial: 12345}))
	queryResult := encodeFrame(protoVersion, frameQueryResult,
		encodeQueryResult(nil, &QueryResult{ID: 7, Status: QueryOK, PlanID: 1, Count: 99, Elapsed: 1500000}))
	queryRejected := encodeFrame(protoVersion, frameQueryResult,
		encodeQueryResult(nil, &QueryResult{ID: 9, Status: QueryRejected, Detail: "admission window full"}))
	queryCancel := encodeFrame(protoVersion, frameQueryCancel, encodeQueryCancel(nil, 7))
	querySubmitDeadline := encodeFrame(protoVersion, frameQuerySubmit,
		encodeQuerySubmit(nil, &QuerySubmit{ID: 9, Spec: "triangle", Deadline: 5e9}))
	submitLyingSpec := encodeFrame(protoVersion, frameQuerySubmit,
		encodeQuerySubmit(nil, &QuerySubmit{ID: 7, Spec: "triangle"})[:querySubmitFixed+2])
	resultTruncated := encodeFrame(protoVersion, frameQueryResult,
		encodeQueryResult(nil, &QueryResult{ID: 7})[:queryResultFixed-4])

	// QUERY_HEALTH in both directions (the empty probe and a populated
	// report), plus the hostile shapes: a suspect-count prefix that lies
	// about the payload and a report truncated mid-fixed-header.
	queryHealthProbe := encodeFrame(protoVersion, frameQueryHealth, nil)
	queryHealthReport := encodeFrame(protoVersion, frameQueryHealth,
		encodeQueryHealth(nil, &QueryHealth{Draining: true, ActiveQueries: 2, Window: 4, Submitted: 17, DeadlineExceeded: 1, Suspects: []uint32{1, 3}}))
	healthLyingSuspects := encodeFrame(protoVersion, frameQueryHealth,
		encodeQueryHealth(nil, &QueryHealth{Window: 4, Suspects: []uint32{2}})[:queryHealthFixed])
	healthTruncated := encodeFrame(protoVersion, frameQueryHealth,
		encodeQueryHealth(nil, &QueryHealth{Window: 4})[:queryHealthFixed-5])
	// Self-consistent report announcing more suspects than the cap: the
	// length prefix is honest, so only the maxHealthSuspects clamp rejects it.
	oversized := make([]uint32, maxHealthSuspects+1)
	for i := range oversized {
		oversized[i] = uint32(i)
	}
	healthOversizedSuspects := encodeFrame(protoVersion, frameQueryHealth,
		encodeQueryHealth(nil, &QueryHealth{Window: 4, Suspects: oversized}))

	// One lying count per decoder that reads a count, each at its clamp
	// rather than above it: the clamp admits the count, so only the length
	// check that follows rejects it, and a decoder that sized an allocation
	// from it first would reserve the most the clamp allows (256 MiB for the
	// IDs) in place of the few bytes received.
	atClamp32 := func(prefix []byte) []byte {
		return binary.LittleEndian.AppendUint32(prefix, maxFrameEntries)
	}
	atClamp16 := func(payload []byte, off int, n uint16) []byte {
		binary.LittleEndian.PutUint16(payload[off:], n)
		return payload
	}
	muxRequestAtClamp := encodeFrame(protoVersion, frameMuxRequest, atClamp32(binary.LittleEndian.AppendUint32(nil, 42)))
	muxResponseAtClamp := encodeFrame(protoVersion, frameMuxResponse, atClamp32(binary.LittleEndian.AppendUint32(nil, 42)))
	submitAtClamp := encodeFrame(protoVersion, frameQuerySubmit,
		atClamp16(encodeQuerySubmit(nil, &QuerySubmit{ID: 7}), querySubmitFixed-2, maxQuerySpec))
	resultAtClamp := encodeFrame(protoVersion, frameQueryResult,
		atClamp16(encodeQueryResult(nil, &QueryResult{ID: 7, Status: QueryFailed}), queryResultFixed-2, maxQueryDetail))
	healthAtClamp := encodeFrame(protoVersion, frameQueryHealth,
		atClamp16(encodeQueryHealth(nil, &QueryHealth{Window: 4}), queryHealthFixed-2, maxHealthSuspects))

	listsTruncated := append([]byte(nil), lists[:len(lists)-2]...)
	listsLyingLen := binary.LittleEndian.AppendUint32(
		binary.LittleEndian.AppendUint32(nil, 1), maxFrameEntries+1)
	listsTrailing := append(encodeLists(nil, [][]graph.VertexID{{9}}), 0xEE)

	return map[string]map[string][]byte{
		"FuzzReadFrame": {
			"valid-ping":         encodeFrame(1, framePing, nil),
			"valid-request":      request,
			"valid-response":     encodeFrame(1, frameResponse, lists),
			"valid-hello":        encodeFrame(1, frameHello, encodeHello(protoVersion, protoVersion, 3)),
			"crc-flip":           crcFlip,
			"truncated-header":   request[:frameHeaderSize/2],
			"truncated-payload":  request[:frameHeaderSize+2],
			"version-mismatch":   badVersion,
			"unknown-frame-type": badType,
			"huge-payload-claim": hugePayload,
			"bad-magic":          badMagic,
			"valid-mux-request":  muxRequest,
			"valid-mux-response": muxResponse,
			"valid-mux-error":    muxError,
			"mux-missing-reqid":  muxMissingID,
			"mux-truncated":      muxRequest[:frameHeaderSize+5],

			"valid-query-submit":     querySubmit,
			"valid-query-planref":    querySubmitRef,
			"valid-query-progress":   queryProgress,
			"valid-query-result":     queryResult,
			"valid-query-rejected":   queryRejected,
			"valid-query-cancel":     queryCancel,
			"query-submit-deadline":  querySubmitDeadline,
			"query-submit-lying-len": submitLyingSpec,
			"query-result-truncated": resultTruncated,

			"valid-query-health-probe":  queryHealthProbe,
			"valid-query-health-report": queryHealthReport,
			"query-health-lying-len":    healthLyingSuspects,
			"query-health-truncated":    healthTruncated,

			"query-health-oversized-suspects": healthOversizedSuspects,

			"mux-request-count-at-clamp":  muxRequestAtClamp,
			"mux-response-count-at-clamp": muxResponseAtClamp,
			"query-submit-len-at-clamp":   submitAtClamp,
			"query-result-len-at-clamp":   resultAtClamp,
			"query-health-count-at-clamp": healthAtClamp,
		},
		"FuzzReadIDs": {
			"valid-empty":    encodeIDs(nil, nil),
			"valid-ids":      ids,
			"truncated":      idsTruncated,
			"lying-count":    idsLyingCount,
			"count-at-clamp": atClamp32(nil),
			"trailing-bytes": idsTrailing,
		},
		"FuzzReadLists": {
			"valid-empty":    encodeLists(nil, nil),
			"valid-lists":    lists,
			"truncated":      listsTruncated,
			"lying-list-len": listsLyingLen,
			"count-at-clamp": atClamp32(nil),
			// One list whose announced length sits at the clamp.
			"list-len-at-clamp": atClamp32(binary.LittleEndian.AppendUint32(nil, 1)),
			"trailing-bytes":    listsTrailing,
			"nested-overflow":   binary.LittleEndian.AppendUint32(nil, maxFrameEntries+1),
			// A mux payload handed to the inner decoder without stripping the
			// request ID must be rejected, not mis-parsed as a count.
			"mux-prefixed": encodeMuxLists(nil, 42, [][]graph.VertexID{{1, 2}}),
		},
	}
}

// corpusFile renders one seed in the go fuzzing corpus file format.
func corpusFile(data []byte) string {
	return fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
}

// TestWriteFuzzCorpus verifies the committed seed corpora match the current
// frame layout, or regenerates them when KHUZDUL_WRITE_FUZZ_CORPUS=1.
func TestWriteFuzzCorpus(t *testing.T) {
	write := os.Getenv("KHUZDUL_WRITE_FUZZ_CORPUS") != ""
	for target, seeds := range corpusSeeds() {
		dir := filepath.Join("testdata", "fuzz", target)
		if write {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for name, data := range seeds {
			path := filepath.Join(dir, "seed-"+name)
			want := corpusFile(data)
			if write {
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("missing committed seed %s (regenerate with KHUZDUL_WRITE_FUZZ_CORPUS=1): %v", path, err)
				continue
			}
			if string(got) != want {
				t.Errorf("committed seed %s is stale; regenerate with KHUZDUL_WRITE_FUZZ_CORPUS=1", path)
			}
		}
	}
}

package comm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"

	"khuzdul/internal/graph"
	"khuzdul/internal/leakcheck"
	"khuzdul/internal/metrics"
	"khuzdul/internal/partition"
)

func TestFrameRoundTrip(t *testing.T) {
	// The last payload outgrows payloadFirstStep, so readFrame reads it in
	// chunks and joins them; its bytes vary so a misplaced chunk shows.
	long := make([]byte, 5*payloadFirstStep+17)
	for i := range long {
		long[i] = byte(i % 251)
	}
	payloads := [][]byte{nil, {}, {0x42}, bytes.Repeat([]byte{0xAB, 0xCD}, 5000), long}
	for _, p := range payloads {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeFrame(w, frameRequest, p, -1); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		typ, got, err := readFrame(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("readFrame(%d-byte payload): %v", len(p), err)
		}
		if typ != frameRequest || !bytes.Equal(got, p) {
			t.Fatalf("round trip: type %#02x, %d bytes, want %#02x, %d", typ, len(got), frameRequest, len(p))
		}
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	orig := append([]byte(nil), payload...)
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeFrame(w, frameResponse, payload, 3); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if !bytes.Equal(payload, orig) {
		t.Fatal("writeFrame did not restore the caller's buffer after corrupting")
	}
	_, _, err := readFrame(bufio.NewReader(&buf))
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("corrupted payload read as %v, want ErrCorruptFrame", err)
	}
}

func TestFrameHeaderValidation(t *testing.T) {
	// A well-formed empty PING frame as the baseline, then break one header
	// field at a time.
	mk := func(mutate func(hdr []byte)) []byte {
		b := encodeFrame(protoVersion, framePing, nil)
		mutate(b)
		return b
	}
	cases := []struct {
		name   string
		mutate func([]byte)
	}{
		{"bad magic", func(b []byte) { b[0] = 0xFF }},
		{"zero version", func(b []byte) { b[2] = 0 }},
		{"future version", func(b []byte) { b[2] = protoVersion + 1 }},
		{"zero type", func(b []byte) { b[3] = 0 }},
		{"unknown type", func(b []byte) { b[3] = frameTypeMax + 1 }},
		{"oversized length", func(b []byte) { binary.LittleEndian.PutUint32(b[4:], maxFramePayload+1) }},
		{"bad crc", func(b []byte) { b[8] ^= 0xFF }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := readFrame(bufio.NewReader(bytes.NewReader(mk(tc.mutate))))
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("got %v, want ErrCorruptFrame", err)
			}
		})
	}
}

// TestLyingHeaderAllocatesWhatArrives: a HELLO header announcing the
// largest payload the clamp admits, followed by a few bytes or by none, must
// fail as a truncated frame on both read paths without allocating what it
// announced. acceptHello reads such a header before any handshake.
func TestLyingHeaderAllocatesWhatArrives(t *testing.T) {
	for _, sent := range []int{0, 3 * payloadFirstStep} {
		frame := encodeFrame(protoVersion, frameHello, make([]byte, sent))
		binary.LittleEndian.PutUint32(frame[4:], maxFramePayload)
		for name, read := range map[string]func(*bufio.Reader) (uint8, []byte, error){
			"readFrame":       readFrame,
			"readFramePooled": readFramePooled,
		} {
			r := bufio.NewReader(bytes.NewReader(frame))
			var err error
			grew := heapGrowth(func() { _, _, err = read(r) })
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s, %d payload bytes sent: got %v, want a truncated frame", name, sent, err)
			}
			if grew >= 1<<20 {
				t.Errorf("%s, %d payload bytes sent: allocated %d bytes for a header announcing %d", name, sent, grew, maxFramePayload)
			}
		}
	}
}

// encodeFrame returns one frame as it crosses the wire, with version in its
// header byte: writeFrame's bytes, or a peer of another generation's.
func encodeFrame(version, typ uint8, payload []byte) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	writeFrame(w, typ, payload, -1)
	w.Flush()
	b := buf.Bytes()
	b[2] = version
	return b
}

func TestCodecsMatchAccountingFormulas(t *testing.T) {
	// The wire payloads are byte-identical to the accounted formulas — the
	// invariant that keeps TCP and in-process traffic numbers comparable.
	ids := []graph.VertexID{3, 1, 4, 1, 5, 9}
	if got := len(encodeIDs(nil, ids)); uint64(got) != RequestBytes(len(ids)) {
		t.Fatalf("request payload %d bytes, formula says %d", got, RequestBytes(len(ids)))
	}
	lists := [][]graph.VertexID{{1, 2}, {}, {3, 4, 5}}
	if got := len(encodeLists(nil, lists)); uint64(got) != ResponseBytes(lists) {
		t.Fatalf("response payload %d bytes, formula says %d", got, ResponseBytes(lists))
	}

	gotIDs, err := decodeIDs(encodeIDs(nil, ids))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if gotIDs[i] != ids[i] {
			t.Fatalf("id %d decoded as %d, want %d", i, gotIDs[i], ids[i])
		}
	}
	gotLists, err := decodeLists(encodeLists(nil, lists))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotLists) != len(lists) {
		t.Fatalf("%d lists, want %d", len(gotLists), len(lists))
	}
	for i, l := range lists {
		if len(gotLists[i]) != len(l) {
			t.Fatalf("list %d: %d vertices, want %d", i, len(gotLists[i]), len(l))
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	huge := binary.LittleEndian.AppendUint32(nil, maxFrameEntries+1)
	cases := [][]byte{
		nil,                   // too short for the count
		{1, 2},                // still too short
		{2, 0, 0, 0, 9, 9, 9}, // announces 2 ids, carries <1
		huge,                  // absurd count must not allocate
	}
	for i, p := range cases {
		if _, err := decodeIDs(p); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("decodeIDs case %d: got %v, want ErrCorruptFrame", i, err)
		}
		if _, err := decodeLists(p); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("decodeLists case %d: got %v, want ErrCorruptFrame", i, err)
		}
	}
	// Trailing garbage after a valid list set is corruption, not slack.
	p := append(encodeLists(nil, [][]graph.VertexID{{1}}), 0xEE)
	if _, err := decodeLists(p); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("trailing bytes: got %v, want ErrCorruptFrame", err)
	}
}

// TestTCPVersionMismatch: a peer that hangs up on our HELLO without an ack —
// what any build does when the version windows do not overlap — surfaces as
// ErrVersionMismatch, not as a retryable connection error.
func TestTCPVersionMismatch(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hungUp := make(chan struct{})
	go func() {
		defer close(hungUp)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if typ, _, err := readFrame(bufio.NewReader(c)); err != nil || typ != frameHello {
			t.Errorf("peer read type %#02x, err %v; want a HELLO", typ, err)
		}
	}()
	g := graph.Path(8)
	cli, err := NewTCP(testServers(g, partition.NewAssignment(2, 1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.addrs[1] = ln.Addr().String()
	_, err = cli.Fetch(0, 1, []graph.VertexID{1})
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("got %v, want ErrVersionMismatch", err)
	}
	<-hungUp
}

func TestTCPPing(t *testing.T) {
	leakcheck.Check(t)
	g := graph.Path(8)
	asg := partition.NewAssignment(2, 1)
	m := metrics.NewCluster(2)
	f, err := NewTCP(testServers(g, asg), m)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 5; i++ {
		if err := f.Ping(0, 1); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	if err := f.Ping(0, 7); err == nil {
		t.Fatal("ping to unknown node succeeded")
	}
	// Pings are control traffic: nothing lands in the byte accounting.
	if s := m.Summarize(); s.BytesSent != 0 || s.Messages != 0 {
		t.Fatalf("pings were accounted: %d bytes, %d messages", s.BytesSent, s.Messages)
	}
}

// scriptedFaults injects wire faults on chosen exchange ordinals.
type scriptedFaults struct {
	mu       sync.Mutex
	n        int
	corruptN map[int]bool
	dropN    map[int]bool
}

func (s *scriptedFaults) CorruptFrame(from, to int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return s.corruptN[s.n]
}

func (s *scriptedFaults) DropAfterSend(from, to int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropN[s.n]
}

func TestTCPCorruptExchangeDetected(t *testing.T) {
	leakcheck.Check(t)
	g := graph.RMATDefault(100, 400, 5)
	asg := partition.NewAssignment(2, 1)
	m := metrics.NewCluster(2)
	f, err := NewTCP(testServers(g, asg), m)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.SetWireFaults(&scriptedFaults{corruptN: map[int]bool{1: true}})

	ids := []graph.VertexID{}
	for v := 0; v < g.NumVertices(); v++ {
		if asg.Owner(graph.VertexID(v)) == 1 {
			ids = append(ids, graph.VertexID(v))
			if len(ids) == 8 {
				break
			}
		}
	}
	// First exchange carries a flipped payload byte; the server's CRC check
	// must reject it and the client must see a retryable integrity error.
	if _, err := f.Fetch(0, 1, ids); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("corrupted exchange returned %v, want ErrCorruptFrame", err)
	}
	// The retry redials and succeeds with intact data.
	lists, err := f.Fetch(0, 1, ids)
	if err != nil {
		t.Fatalf("clean retry failed: %v", err)
	}
	for i, id := range ids {
		if len(lists[i]) != int(g.Degree(id)) {
			t.Fatalf("retry returned wrong list for %d", id)
		}
	}
	s := m.Summarize()
	if s.CorruptFrames == 0 {
		t.Fatal("no corrupt frames accounted")
	}
	if s.Redials == 0 {
		t.Fatal("no redial accounted after the corruption teardown")
	}
}

func TestTCPDropAfterSend(t *testing.T) {
	leakcheck.Check(t)
	g := graph.RMATDefault(100, 400, 6)
	asg := partition.NewAssignment(2, 1)
	m := metrics.NewCluster(2)
	f, err := NewTCP(testServers(g, asg), m)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.SetWireFaults(&scriptedFaults{dropN: map[int]bool{1: true}})

	var id graph.VertexID
	for v := 0; v < g.NumVertices(); v++ {
		if asg.Owner(graph.VertexID(v)) == 1 {
			id = graph.VertexID(v)
			break
		}
	}
	if _, err := f.Fetch(0, 1, []graph.VertexID{id}); err == nil {
		t.Fatal("mid-exchange drop returned no error")
	}
	lists, err := f.Fetch(0, 1, []graph.VertexID{id})
	if err != nil {
		t.Fatalf("retry after drop failed: %v", err)
	}
	if len(lists[0]) != int(g.Degree(id)) {
		t.Fatal("retry returned wrong list")
	}
	if s := m.Summarize(); s.Redials == 0 {
		t.Fatal("no redial accounted after the drop")
	}
}

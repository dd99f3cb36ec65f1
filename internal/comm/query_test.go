package comm

import (
	"errors"
	"net"
	"testing"
	"time"

	"khuzdul/internal/leakcheck"
)

// TestQueryCodecRoundTrip checks every query-plane payload codec round-trips
// exactly.
func TestQueryCodecRoundTrip(t *testing.T) {
	subs := []QuerySubmit{
		{},
		{ID: 7, Kind: QueryPatternName, System: 1, Induced: true, Spec: "triangle"},
		{ID: 0xFFFFFFFF, Kind: QueryEdgeList, Spec: "4:0-1,1-2,2-3,3-0"},
		{ID: 3, Kind: QueryPlanRef, PlanID: 12},
		{ID: 9, Spec: "triangle", Deadline: 30 * time.Second},
	}
	for _, want := range subs {
		got, err := decodeQuerySubmit(encodeQuerySubmit(nil, &want))
		if err != nil {
			t.Fatalf("submit %+v: %v", want, err)
		}
		if got != want {
			t.Fatalf("submit round trip: got %+v, want %+v", got, want)
		}
	}

	prog := QueryProgress{ID: 9, Partial: 1 << 40}
	gotP, err := decodeQueryProgress(encodeQueryProgress(nil, &prog))
	if err != nil || gotP != prog {
		t.Fatalf("progress round trip: got %+v (%v), want %+v", gotP, err, prog)
	}

	results := []QueryResult{
		{ID: 1, Status: QueryOK, PlanID: 4, Count: 123456, Elapsed: 250 * time.Millisecond},
		{ID: 2, Status: QueryRejected, Detail: "admission window full; retry"},
		{ID: 3, Status: QueryCanceled},
		{ID: 4, Status: QueryFailed, Detail: "unknown pattern"},
	}
	for _, want := range results {
		got, err := decodeQueryResult(encodeQueryResult(nil, &want))
		if err != nil {
			t.Fatalf("result %+v: %v", want, err)
		}
		if got != want {
			t.Fatalf("result round trip: got %+v, want %+v", got, want)
		}
	}

	gotC, err := decodeQueryCancel(encodeQueryCancel(nil, 42))
	if err != nil || gotC.ID != 42 {
		t.Fatalf("cancel round trip: got %+v (%v)", gotC, err)
	}

	healths := []QueryHealth{
		{},
		{Draining: true, ActiveQueries: 3, Window: 4, Submitted: 99, DeadlineExceeded: 2},
		{ActiveQueries: 1, Window: 8, Suspects: []uint32{0, 2, 5}},
	}
	for _, want := range healths {
		got, err := decodeQueryHealth(encodeQueryHealth(nil, &want))
		if err != nil {
			t.Fatalf("health %+v: %v", want, err)
		}
		if got.Draining != want.Draining || got.ActiveQueries != want.ActiveQueries ||
			got.Window != want.Window || got.Submitted != want.Submitted ||
			got.DeadlineExceeded != want.DeadlineExceeded ||
			len(got.Suspects) != len(want.Suspects) {
			t.Fatalf("health round trip: got %+v, want %+v", got, want)
		}
		for i := range want.Suspects {
			if got.Suspects[i] != want.Suspects[i] {
				t.Fatalf("health suspects: got %v, want %v", got.Suspects, want.Suspects)
			}
		}
	}
}

// TestQueryCodecRejects checks the validation paths all surface
// ErrCorruptFrame.
func TestQueryCodecRejects(t *testing.T) {
	bad := [][]byte{
		{},           // too short for anything
		{1, 2, 3},    // short submit
		{0, 0, 0, 0}, // submit below fixed header
	}
	for _, p := range bad {
		if _, err := decodeQuerySubmit(p); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("submit %v: err %v, want ErrCorruptFrame", p, err)
		}
	}
	// Valid submit, then corrupt single fields.
	base := encodeQuerySubmit(nil, &QuerySubmit{ID: 1, Spec: "triangle"})
	mut := func(i int, v byte) []byte {
		p := append([]byte(nil), base...)
		p[i] = v
		return p
	}
	if _, err := decodeQuerySubmit(mut(4, 9)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("bad kind: %v", err)
	}
	if _, err := decodeQuerySubmit(mut(6, 7)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("bad flags: %v", err)
	}
	if _, err := decodeQuerySubmit(mut(19, 0xFF)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("lying spec length: %v", err)
	}
	if _, err := decodeQuerySubmit(mut(18, 0xFF)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("absurd deadline: %v", err)
	}
	if _, err := decodeQuerySubmit(base[:len(base)-1]); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("truncated spec: %v", err)
	}

	if _, err := decodeQueryProgress([]byte{1, 2, 3}); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("short progress: %v", err)
	}
	res := encodeQueryResult(nil, &QueryResult{ID: 1, Status: QueryOK, Detail: "x"})
	res[4] = 9 // invalid status
	if _, err := decodeQueryResult(res); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("bad status: %v", err)
	}
	if _, err := decodeQueryCancel([]byte{1, 2, 3, 4, 5}); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("long cancel: %v", err)
	}

	if _, err := decodeQueryHealth([]byte{1, 2, 3}); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("short health: %v", err)
	}
	h := encodeQueryHealth(nil, &QueryHealth{Window: 4, Suspects: []uint32{1, 3}})
	h[0] = 7 // invalid drain state
	if _, err := decodeQueryHealth(h); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("bad health state: %v", err)
	}
	h[0] = 0
	h[25] = 9 // lying suspect count
	if _, err := decodeQueryHealth(h); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("lying suspect count: %v", err)
	}
	desc := encodeQueryHealth(nil, &QueryHealth{Suspects: []uint32{3, 1}})
	if _, err := decodeQueryHealth(desc); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("descending suspects: %v", err)
	}
}

// TestQueryConnExchange runs a full handshake plus a typed exchange over a
// real loopback socket in both directions.
func TestQueryConnExchange(t *testing.T) {
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
		msg, err := qc.ReadMsg()
		if err != nil {
			srvErr <- err
			return
		}
		sub, ok := msg.(*QuerySubmit)
		if !ok {
			srvErr <- errors.New("expected *QuerySubmit")
			return
		}
		if err := qc.WriteProgress(&QueryProgress{ID: sub.ID, Partial: 10}); err != nil {
			srvErr <- err
			return
		}
		srvErr <- qc.WriteResult(&QueryResult{ID: sub.ID, Status: QueryOK, PlanID: 1, Count: 20})
	}()

	qc, err := DialQuery(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	if err := qc.WriteSubmit(&QuerySubmit{ID: 5, Spec: "triangle"}); err != nil {
		t.Fatal(err)
	}
	msg, err := qc.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := msg.(*QueryProgress); !ok || p.ID != 5 || p.Partial != 10 {
		t.Fatalf("first message: %#v", msg)
	}
	msg, err = qc.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := msg.(*QueryResult); !ok || r.ID != 5 || r.Status != QueryOK || r.Count != 20 {
		t.Fatalf("second message: %#v", msg)
	}
	if err := <-srvErr; err != nil {
		t.Fatal(err)
	}
}

// TestQueryConnRejectsSerialPeer: a client capped at the retired serial
// protocol generation must be refused as a version mismatch, not as a corrupt
// frame. TestOutdatedPeerIsRejected is the data-plane twin.
func TestQueryConnRejectsSerialPeer(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		_, err = AcceptQuery(c, time.Second)
		done <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A serial-generation HELLO: window [1,2], header version 1.
	if _, err := c.Write(encodeFrame(1, frameHello, encodeHello(1, 2, 0))); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("accept err %v, want ErrVersionMismatch", err)
	}
}

package comm

import (
	"encoding/hex"
	"io"
	"net"
	"testing"
	"time"

	"khuzdul/internal/graph"
	"khuzdul/internal/leakcheck"
	"khuzdul/internal/partition"
)

// Wire bytes of generation 3, pinned as hex: any change to the framing or
// handshake code must leave what a peer reads untouched.
const (
	goldenHelloNode0 = "484b030106000000a407a52b030300000000" // HELLO [3,3,node 0]
	goldenHelloQuery = "484b0301060000009cb33d9c0303ffffffff" // HELLO [3,3,QueryClientNode]
	goldenHelloAck   = "484b030201000000a5a02d4103"           // HELLO_ACK [3]
	goldenMuxRequest = "484b0308140000008a91166e" +           // MUX_REQUEST header
		"00000000" + "03000000" + "010000000200000003000000" // request 0, ids {1,2,3}
)

// TestWireGolden drives both planes' real handshake and fetch paths over
// sockets and compares every byte they send against the pinned hex.
func TestWireGolden(t *testing.T) {
	leakcheck.Check(t)
	readHex := func(c net.Conn, want string) {
		t.Helper()
		b := make([]byte, len(want)/2)
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(c, b); err != nil {
			t.Errorf("read %d bytes: %v", len(b), err)
			return
		}
		if got := hex.EncodeToString(b); got != want {
			t.Errorf("wire bytes\n got %s\nwant %s", got, want)
		}
	}
	writeHex := func(c net.Conn, s string) {
		t.Helper()
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(b); err != nil {
			t.Errorf("write: %v", err)
		}
	}
	// fakePeer accepts one connection on a fresh listener and runs script
	// on it; the returned channel closes once the script is done.
	fakePeer := func(script func(net.Conn)) (string, <-chan struct{}) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer ln.Close()
			c, err := ln.Accept()
			if err != nil {
				t.Errorf("accept: %v", err)
				return
			}
			defer c.Close()
			script(c)
		}()
		return ln.Addr().String(), done
	}

	f, err := NewTCP(testServers(graph.Path(8), partition.NewAssignment(2, 1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	t.Run("data client", func(t *testing.T) {
		addr, done := fakePeer(func(c net.Conn) {
			readHex(c, goldenHelloNode0)
			writeHex(c, goldenHelloAck)
			readHex(c, goldenMuxRequest)
		})
		f.addrs[1] = addr
		// The fake peer hangs up after reading the request, so the fetch
		// itself fails; only its bytes matter here.
		f.Fetch(0, 1, []graph.VertexID{1, 2, 3})
		<-done
	})
	t.Run("data server", func(t *testing.T) {
		c, err := net.Dial("tcp", f.addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		writeHex(c, goldenHelloNode0)
		readHex(c, goldenHelloAck)
	})
	t.Run("query client", func(t *testing.T) {
		addr, done := fakePeer(func(c net.Conn) {
			readHex(c, goldenHelloQuery)
			writeHex(c, goldenHelloAck)
		})
		qc, err := DialQuery(addr, 5*time.Second)
		if err != nil {
			t.Fatalf("DialQuery against the pinned ack: %v", err)
		}
		qc.Close()
		<-done
	})
	t.Run("query server", func(t *testing.T) {
		cli, srv := net.Pipe()
		defer cli.Close()
		accepted := make(chan error, 1)
		go func() {
			defer srv.Close()
			_, err := AcceptQuery(srv, 5*time.Second)
			accepted <- err
		}()
		writeHex(cli, goldenHelloQuery)
		readHex(cli, goldenHelloAck)
		if err := <-accepted; err != nil {
			t.Fatalf("AcceptQuery: %v", err)
		}
	})
}

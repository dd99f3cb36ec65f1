package comm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"khuzdul/internal/graph"
	"khuzdul/internal/leakcheck"
	"khuzdul/internal/metrics"
)

// flakyFabric fails the first failN fetches to each destination with a
// transient error, then succeeds.
type flakyFabric struct {
	failN  int64
	calls  []atomic.Int64
	hangTo int // destination whose fetches hang forever (-1 = none)
	hung   chan struct{}
}

func newFlakyFabric(nodes int, failN int64, hangTo int) *flakyFabric {
	return &flakyFabric{failN: failN, calls: make([]atomic.Int64, nodes), hangTo: hangTo, hung: make(chan struct{})}
}

func (f *flakyFabric) Fetch(from, to int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	if to == f.hangTo {
		<-f.hung
		return nil, errors.New("flaky: released")
	}
	if n := f.calls[to].Add(1); n <= f.failN {
		return nil, fmt.Errorf("flaky: transient failure %d to node %d", n, to)
	}
	return make([][]graph.VertexID, len(ids)), nil
}

func (f *flakyFabric) Ping(from, to int) error { return nil }

func (f *flakyFabric) Close() error {
	select {
	case <-f.hung:
	default:
		close(f.hung)
	}
	return nil
}

type permErr struct{}

func (permErr) Error() string   { return "perm" }
func (permErr) Permanent() bool { return true }

// permFabric always fails with a permanent error.
type permFabric struct{ calls atomic.Int64 }

func (f *permFabric) Fetch(from, to int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	f.calls.Add(1)
	return nil, fmt.Errorf("wrapped: %w", permErr{})
}
func (f *permFabric) Ping(from, to int) error { return nil }
func (f *permFabric) Close() error            { return nil }

func TestResilientRetriesTransientErrors(t *testing.T) {
	m := metrics.NewCluster(2)
	inner := newFlakyFabric(2, 2, -1)
	r := NewResilient(inner, 2, RetryConfig{Retries: 4, Backoff: time.Microsecond}, m)
	defer r.Close()
	lists, err := r.Fetch(0, 1, []graph.VertexID{1, 2})
	if err != nil {
		t.Fatalf("fetch failed despite retries: %v", err)
	}
	if len(lists) != 2 {
		t.Fatalf("lists = %d", len(lists))
	}
	if got := m.Summarize().FetchRetries; got != 2 {
		t.Fatalf("FetchRetries = %d, want 2", got)
	}
}

func TestResilientExhaustsRetries(t *testing.T) {
	inner := newFlakyFabric(2, 1000, -1)
	r := NewResilient(inner, 2, RetryConfig{Retries: 3, Backoff: time.Microsecond}, nil)
	defer r.Close()
	_, err := r.Fetch(0, 1, nil)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if got := inner.calls[1].Load(); got != 4 {
		t.Fatalf("attempts = %d, want 4 (1 + 3 retries)", got)
	}
}

func TestResilientTimeoutAndBreaker(t *testing.T) {
	m := metrics.NewCluster(3)
	inner := newFlakyFabric(3, 0, 2) // node 2 hangs forever
	r := NewResilient(inner, 3, RetryConfig{
		Timeout: 5 * time.Millisecond, Retries: 5,
		Backoff: time.Microsecond, BreakerThreshold: 3,
	}, m)
	defer r.Close()

	// Healthy destination still works.
	if _, err := r.Fetch(0, 1, nil); err != nil {
		t.Fatal(err)
	}
	// Hung destination: attempts time out until the breaker trips.
	_, err := r.Fetch(0, 2, nil)
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("err = %v, want ErrPeerDead", err)
	}
	if !r.Dead(2) || r.Dead(1) || r.Dead(0) {
		t.Fatalf("dead state: node2=%v node1=%v node0=%v", r.Dead(2), r.Dead(1), r.Dead(0))
	}
	s := m.Summarize()
	if s.FetchTimeouts < 3 {
		t.Fatalf("FetchTimeouts = %d, want >= 3", s.FetchTimeouts)
	}
	if s.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", s.BreakerTrips)
	}
	// Subsequent fetches to the dead peer fail immediately, without attempts.
	before := s.FetchTimeouts
	if _, err := r.Fetch(1, 2, nil); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("post-trip err = %v", err)
	}
	if got := m.Summarize().FetchTimeouts; got != before {
		t.Fatalf("dead peer still attempted: timeouts %d -> %d", before, got)
	}
}

func TestResilientPermanentErrorFailsFast(t *testing.T) {
	inner := &permFabric{}
	r := NewResilient(inner, 2, RetryConfig{Retries: 5, Backoff: time.Microsecond}, nil)
	defer r.Close()
	_, err := r.Fetch(0, 1, nil)
	var pe PermanentError
	if !errors.As(err, &pe) {
		t.Fatalf("permanent error lost: %v", err)
	}
	if got := inner.calls.Load(); got != 1 {
		t.Fatalf("permanent error retried: %d attempts", got)
	}
}

func TestResilientMarkDead(t *testing.T) {
	r := NewResilient(newFlakyFabric(2, 0, -1), 2, RetryConfig{}, nil)
	defer r.Close()
	r.MarkDead(1)
	if _, err := r.Fetch(0, 1, nil); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("err = %v, want ErrPeerDead", err)
	}
}

func TestResilientBackoffBounds(t *testing.T) {
	r := NewResilient(newFlakyFabric(2, 0, -1), 2, RetryConfig{
		Backoff: 4 * time.Millisecond, MaxBackoff: 16 * time.Millisecond,
	}, nil)
	defer r.Close()
	for attempt := 1; attempt <= 10; attempt++ {
		d := r.backoff(attempt)
		if d <= 0 || d > 16*time.Millisecond {
			t.Fatalf("backoff(%d) = %v out of (0, 16ms]", attempt, d)
		}
	}
}

// TestResilientCloseUnblocksBackoff pins the interruptible backoff: with a
// multi-second backoff ahead of it, a fetch must return the moment the fabric
// closes, classified as ErrFabricClosed, and attempt nothing more. Against a
// time.Sleep backoff this fails — the sleep cannot be interrupted, so the
// fetch stays parked for the full backoff.
func TestResilientCloseUnblocksBackoff(t *testing.T) {
	inner := newFlakyFabric(2, 1000, -1) // every attempt fails
	r := NewResilient(inner, 2, RetryConfig{
		Retries: 3, Backoff: 2 * time.Second, MaxBackoff: 2 * time.Second,
	}, nil)

	done := make(chan error, 1)
	go func() {
		_, err := r.Fetch(0, 1, nil)
		done <- err
	}()
	// Let the first attempt fail and the fetch park in its 2s backoff.
	time.Sleep(20 * time.Millisecond)
	r.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrFabricClosed) {
			t.Fatalf("err = %v, want ErrFabricClosed", err)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("fetch still parked in backoff 500ms after Close")
	}
	if got := inner.calls[1].Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (Close must end the retry schedule)", got)
	}
}

// stuckFabric's fetches hang until the test releases them; its Close does
// not, so only the layer above can free a caller.
type stuckFabric struct{ release chan struct{} }

func (f *stuckFabric) Fetch(from, to int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	<-f.release
	return nil, errors.New("stuck: released")
}
func (f *stuckFabric) Ping(from, to int) error { return nil }
func (f *stuckFabric) Close() error            { return nil }

// TestResilientCloseUnblocksAttempt: a caller parked in an attempt's deadline
// wait is released by Close, not by the deadline or the inner transport.
func TestResilientCloseUnblocksAttempt(t *testing.T) {
	inner := &stuckFabric{release: make(chan struct{})}
	defer close(inner.release)
	r := NewResilient(inner, 2, RetryConfig{Timeout: 5 * time.Second, Retries: 3}, nil)

	done := make(chan error, 1)
	go func() {
		_, err := r.Fetch(0, 1, nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	r.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrFabricClosed) {
			t.Fatalf("err = %v, want ErrFabricClosed", err)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("fetch still parked mid-attempt 500ms after Close")
	}
}

// TestResilientPassThroughOnRealFabric runs the resilient layer over the
// real Local fabric and checks results and accounting are untouched.
func TestResilientPassThroughOnRealFabric(t *testing.T) {
	g := graphForComm(t)
	asg, servers, m := serversForComm(g, 3)
	r := NewResilient(NewLocal(servers, m), 3, RetryConfig{Timeout: time.Second, Retries: 2}, m)
	defer r.Close()
	fetchAll(t, r, g, asg)
	if s := m.Summarize(); s.FetchRetries != 0 || s.FetchTimeouts != 0 || s.BreakerTrips != 0 {
		t.Fatalf("healthy run recorded resilience events: %+v", s)
	}
}

// countingFabric counts the fetches that reach the fabric it wraps.
type countingFabric struct {
	Fabric
	calls atomic.Int64
}

func (c *countingFabric) Fetch(from, to int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	c.calls.Add(1)
	return c.Fabric.Fetch(from, to, ids)
}

// TestUnknownNodeFailsFast fetches from a node outside the cluster over both
// real fabrics, bare and under Resilient with a retry budget: the error must
// match ErrUnknownNode, be permanent for the retry layer, and take exactly
// one attempt — no retry is counted and no backoff is slept.
func TestUnknownNodeFailsFast(t *testing.T) {
	leakcheck.Check(t)
	servers := []Server{
		ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID { return make([][]graph.VertexID, len(ids)) }),
		ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID { return make([][]graph.VertexID, len(ids)) }),
	}
	tcp, err := NewTCP(servers, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	for _, fab := range []struct {
		name  string
		inner Fabric
	}{{"local", NewLocal(servers, nil)}, {"tcp", tcp}} {
		for _, resilient := range []bool{false, true} {
			name := fab.name
			if resilient {
				name += "/resilient"
			}
			t.Run(name, func(t *testing.T) {
				m := metrics.NewCluster(len(servers))
				counted := &countingFabric{Fabric: fab.inner}
				var f Fabric = counted
				if resilient {
					f = NewResilient(counted, len(servers), RetryConfig{Timeout: time.Second, Retries: 3, Backoff: time.Second}, m)
				}
				for _, to := range []int{len(servers), -1} {
					counted.calls.Store(0)
					_, err := f.Fetch(0, to, []graph.VertexID{1})
					if !errors.Is(err, ErrUnknownNode) {
						t.Fatalf("fetch to node %d: %v, want ErrUnknownNode", to, err)
					}
					var pe PermanentError
					if !errors.As(err, &pe) || !pe.Permanent() {
						t.Fatalf("fetch to node %d: %v is not a PermanentError", to, err)
					}
					if n := counted.calls.Load(); n != 1 {
						t.Fatalf("fetch to node %d took %d attempts, want 1", to, n)
					}
					if n := m.Summarize().FetchRetries; n != 0 {
						t.Fatalf("fetch to node %d counted %d retries, want 0", to, n)
					}
				}
			})
		}
	}
}

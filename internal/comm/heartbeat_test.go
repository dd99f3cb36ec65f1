package comm

import (
	"errors"
	"testing"
	"time"

	"khuzdul/internal/graph"
	"khuzdul/internal/leakcheck"
	"khuzdul/internal/partition"
)

// pingStub is a fabric whose ping outcomes are programmable per target.
type pingStub struct {
	fail func(from, to int) bool
}

func (p *pingStub) Fetch(from, to int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	return nil, nil
}
func (p *pingStub) Close() error { return nil }
func (p *pingStub) Ping(from, to int) error {
	if p.fail != nil && p.fail(from, to) {
		return errors.New("stub: peer unreachable")
	}
	return nil
}

// suspects lists the nodes d has declared suspect, ascending.
func suspects(d *Detector, n int) []int {
	var out []int
	for node := 0; node < n; node++ {
		if d.Suspected(node) {
			out = append(out, node)
		}
	}
	return out
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

func TestDetectorSuspectsUnreachablePeer(t *testing.T) {
	const n = 4
	fab := &pingStub{fail: func(from, to int) bool { return to == 2 }}
	d := NewDetector(fab, n, DetectorConfig{
		Interval: 3 * time.Millisecond,
		Timeout:  6 * time.Millisecond,
		Misses:   2,
	}, nil, nil)
	d.Start()
	defer d.Stop()

	if !waitFor(t, 2*time.Second, func() bool { return d.Suspected(2) }) {
		t.Fatal("node 2 never suspected")
	}
	for node := 0; node < n; node++ {
		if node != 2 && d.Suspected(node) {
			t.Fatalf("healthy node %d suspected", node)
		}
	}
	got := suspects(d, n)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("suspects = %v, want [2]", got)
	}
}

func TestDetectorNoFalsePositives(t *testing.T) {
	const n = 4
	d := NewDetector(&pingStub{}, n, DetectorConfig{
		Interval: 2 * time.Millisecond,
		Timeout:  20 * time.Millisecond,
		Misses:   2,
	}, nil, nil)
	d.Start()
	time.Sleep(100 * time.Millisecond)
	d.Stop()
	if got := suspects(d, n); len(got) != 0 {
		t.Fatalf("healthy cluster produced suspects %v", got)
	}
}

func TestDetectorDeadAccuserIsSilenced(t *testing.T) {
	// Every ping fails (total partition), but every accuser is itself dead:
	// a crashed process's timers stop firing, so nobody gets suspected.
	const n = 3
	d := NewDetector(&pingStub{fail: func(int, int) bool { return true }}, n, DetectorConfig{
		Interval: 2 * time.Millisecond,
		Timeout:  4 * time.Millisecond,
		Misses:   1,
	}, nil, func(node int) bool { return true })
	d.Start()
	time.Sleep(80 * time.Millisecond)
	d.Stop()
	if got := suspects(d, n); len(got) != 0 {
		t.Fatalf("dead accusers suspected %v", got)
	}
}

func TestDetectorOverTCPFabric(t *testing.T) {
	leakcheck.Check(t)
	// End to end over real sockets: all peers answer pings, none suspected.
	g := graph.Path(16)
	asg := partition.NewAssignment(3, 1)
	f, err := NewTCP(testServers(g, asg), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d := NewDetector(f, 3, DetectorConfig{
		Interval: 3 * time.Millisecond,
		Timeout:  100 * time.Millisecond,
		Misses:   3,
	}, nil, nil)
	d.Start()
	time.Sleep(60 * time.Millisecond)
	d.Stop()
	if got := suspects(d, 3); len(got) != 0 {
		t.Fatalf("TCP heartbeats produced suspects %v", got)
	}
}

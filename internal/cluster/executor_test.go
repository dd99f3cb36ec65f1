package cluster

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"khuzdul/internal/comm"
	"khuzdul/internal/core"
	"khuzdul/internal/fault"
	"khuzdul/internal/graph"
	"khuzdul/internal/leakcheck"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// TestCancelUnderSpeculationAbandonsFetches: every fetch takes up to 800 ms,
// the caller cancels at 30 ms. The run must return ErrRunCanceled as soon as
// its engines reach a boundary, not after the fetches in flight — the main
// engines' and any speculative copy's alike — have drained.
func TestCancelUnderSpeculationAbandonsFetches(t *testing.T) {
	g := graph.RMATDefault(150, 900, 47)
	pl := mustCompile(t, pattern.Clique(4), g, plan.Options{Style: plan.StyleGraphPi})
	for _, speculate := range []bool{false, true} {
		t.Run(fmt.Sprintf("speculate=%v", speculate), func(t *testing.T) {
			leakcheck.Check(t)
			c := mustCluster(t, g, Config{
				NumNodes: 4, ThreadsPerSocket: 2, ChunkSize: 8, Speculate: speculate,
				Fault:        &fault.Profile{Seed: 3, MaxLatency: 800 * time.Millisecond},
				FetchTimeout: 5 * time.Second,
			})
			cancel := make(chan struct{})
			defer time.AfterFunc(30*time.Millisecond, func() { close(cancel) }).Stop()
			start := time.Now()
			_, err := c.RunWith(pl, countSinks, RunOpts{Cancel: cancel})
			if !errors.Is(err, ErrRunCanceled) {
				t.Fatalf("err = %v, want ErrRunCanceled", err)
			}
			if took := time.Since(start); took > 250*time.Millisecond {
				t.Fatalf("canceled run returned after %v; in-flight fetches were drained, not abandoned", took)
			}
		})
	}
}

// silentPeer is a fabric whose fetches to one peer never answer until the
// test ends: a hung machine with no retry layer above to time it out.
type silentPeer struct {
	comm.Fabric
	peer    int
	release chan struct{}
}

func (f *silentPeer) Fetch(from, to int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	if to == f.peer {
		<-f.release
		return nil, errors.New("silent peer: released")
	}
	return f.Fabric.Fetch(from, to, ids)
}

// TestCancelWithoutRetryLayer: on a chan-fabric cluster with no retry layer,
// a run whose fetches to one peer never answer must still return
// ErrRunCanceled promptly once its caller cancels. No fabric layer can cut
// those fetches short, so the engines must stop waiting for them.
func TestCancelWithoutRetryLayer(t *testing.T) {
	leakcheck.Check(t)
	g := graph.RMATDefault(150, 900, 47)
	pl := mustCompile(t, pattern.Clique(4), g, plan.Options{Style: plan.StyleGraphPi})
	c := mustCluster(t, g, Config{NumNodes: 4, ThreadsPerSocket: 2, ChunkSize: 8})
	if c.resilient != nil {
		t.Fatal("the cluster has a retry layer")
	}
	silent := &silentPeer{Fabric: c.fabric, peer: 2, release: make(chan struct{})}
	c.fabric = silent
	t.Cleanup(func() { close(silent.release) })

	cancel := make(chan struct{})
	defer time.AfterFunc(30*time.Millisecond, func() { close(cancel) }).Stop()
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := c.RunWith(pl, countSinks, RunOpts{Cancel: cancel})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrRunCanceled) {
			t.Fatalf("err = %v, want ErrRunCanceled", err)
		}
		if took := time.Since(start); took > 250*time.Millisecond {
			t.Fatalf("canceled run returned after %v", took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled run still waiting for its unanswered fetches after 5s")
	}
}

// TestRunThreadBudgetGovernsEveryEngine: RunOpts.ThreadsPerSocket is the
// budget of the whole run — the modeled makespan divides by it, and a
// whole-machine engine (recovery, speculation) gets Sockets × the override,
// not Sockets × Config.ThreadsPerSocket.
func TestRunThreadBudgetGovernsEveryEngine(t *testing.T) {
	g := graph.RMATDefault(150, 900, 409)
	pl := mustCompile(t, pattern.Triangle(), g, plan.Options{Style: plan.StyleGraphPi})
	c := mustCluster(t, g, Config{NumNodes: 2, Sockets: 2, ThreadsPerSocket: 4, SequentialNodes: true})
	opts := RunOpts{ThreadsPerSocket: 1}
	res, err := c.RunWith(pl, countSinks, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want time.Duration
	for _, b := range res.PerNode {
		want = max(want, b.Compute/2+(b.Scheduler+b.Cache)/2) // 2 sockets × 1 thread
	}
	if res.ModeledElapsed != want {
		t.Errorf("ModeledElapsed = %v, want %v (modeled for workers the run never had)", res.ModeledElapsed, want)
	}

	r := c.newRun(pl, opts)
	for socket, threads := range map[int]int{0: 1, wholeMachine: 2} {
		eng := r.engine(task{node: 0, socket: socket, sink: &core.CountSink{}})
		if want := fmt.Sprintf("threads=%d ", threads); !strings.Contains(eng.String(), want) {
			t.Errorf("socket %d under a 1-thread budget: %v, want %s", socket, eng, want)
		}
	}
}

// TestRangeSourceViews checks the one DataSource against ownership computed
// by brute force, over every view an engine can be given.
func TestRangeSourceViews(t *testing.T) {
	g := graph.RMATDefault(200, 800, 5)
	const nodes, deadNode = 4, 1
	for _, sockets := range []int{1, 2} {
		c := mustCluster(t, g, Config{NumNodes: nodes, Sockets: sockets})
		c.adopt(newFailover(c.asg, []int{deadNode}))
		views := []struct {
			name   string
			fo     *failover
			socket func(s int) int
			rooted bool // the view's root lists partition the vertex set
		}{
			{"base", nil, func(s int) int { return s }, true},
			{"adopted failover", c.fo.Load(), func(s int) int { return s }, true},
			{"recovery-round failover", newFailover(c.asg, []int{deadNode}), func(int) int { return wholeMachine }, false},
			{"whole-machine", nil, func(int) int { return wholeMachine }, false},
		}
		for _, view := range views {
			t.Run(fmt.Sprintf("%s/sockets=%d", view.name, sockets), func(t *testing.T) {
				var engines []*rangeSource
				for node := 0; node < nodes; node++ {
					for s := 0; s < sockets; s++ {
						if view.fo != nil && view.fo.dead[node] || s > 0 && view.socket(s) == wholeMachine {
							continue
						}
						tk := task{node: node, socket: view.socket(s), fo: view.fo}
						if view.rooted {
							tk.roots = c.rootsOf(view.fo, node, s)
						}
						engines = append(engines, &rangeSource{c: c, local: c.locals[node], task: tk})
					}
				}
				for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
					owner := c.asg.Owner(v)
					adopted := view.fo != nil && view.fo.dead[owner]
					if adopted {
						if owner = view.fo.Owner(v); view.fo.dead[owner] {
							t.Fatalf("vertex %d fails over to dead node %d", v, owner)
						}
					}
					local, rooted := 0, 0
					for _, e := range engines {
						if slices.Contains(e.roots, v) {
							rooted++
						}
						want := core.LocalityRemote
						if e.node == owner {
							want = core.LocalityLocal
							if !adopted && e.socket != wholeMachine && sockets > 1 && c.asg.Socket(v) != e.socket {
								want = core.LocalityCrossSocket
							}
						}
						loc, to := e.Classify(v)
						if loc != want || to != owner {
							t.Fatalf("node %d socket %d: Classify(%d) = (%v, %d), want (%v, %d)",
								e.node, e.socket, v, loc, to, want, owner)
						}
						switch loc {
						case core.LocalityLocal:
							local++
							if !slices.Equal(e.LocalList(v), g.Neighbors(v)) {
								t.Fatalf("node %d socket %d: LocalList(%d) is not its adjacency", e.node, e.socket, v)
							}
						case core.LocalityCrossSocket:
							if !slices.Equal(e.CrossSocketList(v), g.Neighbors(v)) {
								t.Fatalf("node %d socket %d: CrossSocketList(%d) is not its adjacency", e.node, e.socket, v)
							}
						}
					}
					// An adopted shard has no NUMA affinity: every socket of
					// its failover owner holds it.
					wantLocal := 1
					if adopted && view.socket(0) != wholeMachine {
						wantLocal = sockets
					}
					if local != wantLocal {
						t.Fatalf("vertex %d is local on %d engines, want %d", v, local, wantLocal)
					}
					if view.rooted && rooted != 1 {
						t.Fatalf("vertex %d is a root of %d engines, want exactly 1", v, rooted)
					}
				}
			})
		}
	}
}

// TestLedger: a ledger answers for exactly the boundaries its engine
// crossed, in the slot's own coordinates whatever its base, which is what
// lets speculation splice a straggler's prefix onto a copy's suffix.
func TestLedger(t *testing.T) {
	// A straggler over roots [0, 40) in ranges of 8, and a copy launched at
	// boundary 16. Range i holds i+1 matches.
	perRange := func(l *ledger, from, to int) {
		for end := from + 8; end <= to; end += 8 {
			l.sink.Add(uint64(end / 8))
			l.onRangeDone(end-8-l.base, end-l.base)
		}
	}
	straggler := &ledger{sink: &core.CountSink{}}
	cp := &ledger{sink: &core.CountSink{}, base: 16}
	if p, n := cp.snapshot(); p != 16 || n != 0 {
		t.Fatalf("snapshot before any range = (%d, %d), want (16, 0)", p, n)
	}
	if n, ok := cp.at(16); !ok || n != 0 {
		t.Fatalf("at(base) = (%d, %v), want (0, true)", n, ok)
	}
	perRange(straggler, 0, 24) // stopped at q = 24: 1+2+3
	perRange(cp, 16, 40)       // ran to the end: 3+4+5
	straggler.sink.Add(99)     // uncommitted work past the last boundary

	q, committed := straggler.snapshot()
	if q != 24 || committed != 6 {
		t.Fatalf("straggler snapshot = (%d, %d), want (24, 6)", q, committed)
	}
	if n, ok := cp.at(24); !ok || n != 3 {
		t.Fatalf("copy at(24) = (%d, %v), want (3, true)", n, ok)
	}
	for _, p := range []int{8, 20, 48} {
		if n, ok := cp.at(p); ok {
			t.Errorf("copy at(%d) = %d, but it never crossed that boundary", p, n)
		}
	}
	end, _ := cp.at(40)
	mid, _ := cp.at(q)
	if got := committed + end - mid; got != 1+2+3+4+5 {
		t.Fatalf("reconciled slot total = %d, want 15", got)
	}
}

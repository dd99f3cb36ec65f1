package gthinker

import (
	"math/rand"
	"testing"

	"khuzdul/internal/graph"
	"khuzdul/internal/metrics"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

func TestCountMatchesBruteForce(t *testing.T) {
	g := graph.RMATDefault(100, 500, 71)
	for _, pat := range []*pattern.Pattern{
		pattern.Triangle(), pattern.Clique(4), pattern.CycleP(4),
	} {
		want := plan.BruteForceCount(g, pat, false)
		for _, nodes := range []int{1, 3} {
			res, err := Count(g, pat, Config{NumNodes: nodes, ThreadsPerNode: 2, CacheBytes: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Errorf("%v on %d nodes: %d, want %d", pat, nodes, res.Count, want)
			}
		}
	}
}

func TestOverheadMetricsRecorded(t *testing.T) {
	g := graph.RMATDefault(200, 1200, 73)
	res, err := Count(g, pattern.Triangle(), Config{NumNodes: 4, ThreadsPerNode: 2, CacheBytes: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.BytesSent == 0 {
		t.Error("no traffic recorded")
	}
	if s.Breakdown.Cache == 0 {
		t.Error("no cache bookkeeping time recorded")
	}
	if s.Breakdown.Scheduler == 0 {
		t.Error("no scheduler time recorded")
	}
	if s.CacheHits+s.CacheMisses == 0 {
		t.Error("no cache accesses recorded")
	}
}

// TestSequentialModeIdentical: machines that run one after another, each
// fetching from peers that are not running, count what brute force counts,
// and the modeled makespan is read from their busy clocks.
func TestSequentialModeIdentical(t *testing.T) {
	g := graph.RMATDefault(120, 600, 701)
	want := plan.BruteForceCount(g, pattern.Triangle(), false)
	seq, err := Count(g, pattern.Triangle(), Config{NumNodes: 3, ThreadsPerNode: 2, CacheBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Count != want {
		t.Fatalf("sequential machines counted %d, brute force %d", seq.Count, want)
	}
	if seq.ModeledElapsed <= 0 {
		t.Fatal("no modeled makespan")
	}
}

func TestInducedMode(t *testing.T) {
	g := graph.RMATDefault(80, 400, 709)
	want := plan.BruteForceCount(g, pattern.CycleP(4), true)
	res, err := Count(g, pattern.CycleP(4), Config{NumNodes: 2, ThreadsPerNode: 2, CacheBytes: 1 << 16, Induced: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("induced 4-cycle = %d, want %d", res.Count, want)
	}
}

func TestSWCacheRefcounting(t *testing.T) {
	met := &metrics.Node{}
	c := newSWCache(100) // tiny: 2 entries of 10 overflow it
	l := make([]graph.VertexID, 10)
	c.insert(1, 5, l, met)
	c.insert(1, 6, l, met)
	// Both entries referenced by task 1: GC may not evict them.
	if c.lenEntries() != 2 {
		t.Fatalf("entries = %d, want 2", c.lenEntries())
	}
	// Releasing the task makes them collectable; next over-capacity insert
	// triggers GC.
	c.releaseTask(1, met)
	c.insert(2, 7, l, met)
	if c.lenEntries() > 2 {
		t.Fatalf("GC failed: %d entries", c.lenEntries())
	}
	if _, ok := c.acquire(2, 7, met); !ok {
		t.Fatal("entry inserted by live task evicted")
	}
}

func TestSWCacheAcquireRegistersDependency(t *testing.T) {
	met := &metrics.Node{}
	c := newSWCache(1 << 20)
	l := make([]graph.VertexID, 4)
	c.insert(1, 9, l, met)
	if _, ok := c.acquire(2, 9, met); !ok {
		t.Fatal("miss on present entry")
	}
	if _, ok := c.acquire(2, 42, met); ok {
		t.Fatal("hit on absent entry")
	}
	// Task 2 now references vertex 9; releasing task 1 must not evict.
	c.releaseTask(1, met)
	if _, ok := c.acquire(3, 9, met); !ok {
		t.Fatal("entry lost while still referenced")
	}
}

// TestSWCacheIdleListIsUnreferenced drives the cache through a random
// sequence of acquires, inserts and releases by overlapping tasks, at a
// capacity that keeps it collecting, and checks after every step that the
// idle list holds exactly the entries no task references, each once, and
// that the cache is under capacity whenever anything is idle.
func TestSWCacheIdleListIsUnreferenced(t *testing.T) {
	met := &metrics.Node{}
	rng := rand.New(rand.NewSource(1))
	c := newSWCache(400)
	live := map[int64]bool{}
	for step := 0; step < 5000; step++ {
		task := int64(rng.Intn(12))
		v := graph.VertexID(rng.Intn(40))
		switch rng.Intn(3) {
		case 0:
			if _, ok := c.acquire(task, v, met); ok {
				live[task] = true
			}
		case 1:
			c.insert(task, v, make([]graph.VertexID, rng.Intn(20)), met)
			live[task] = true
		default:
			c.releaseTask(task, met)
			delete(live, task)
		}
		idle := map[graph.VertexID]bool{}
		for e := c.idle.next; e != &c.idle; e = e.next {
			if idle[e.v] || c.entries[e.v] != e || len(e.refs) != 0 {
				t.Fatalf("step %d: idle list holds %d twice, evicted or referenced", step, e.v)
			}
			idle[e.v] = true
		}
		for v, e := range c.entries {
			if (len(e.refs) == 0) != idle[v] {
				t.Fatalf("step %d: entry %d has %d references, idle %v", step, v, len(e.refs), idle[v])
			}
			for task := range e.refs {
				if !live[task] {
					t.Fatalf("step %d: entry %d referenced by released task %d", step, v, task)
				}
			}
		}
		if len(idle) > 0 && c.size > c.capacity {
			t.Fatalf("step %d: %d bytes over capacity %d with %d idle entries", step, c.size, c.capacity, len(idle))
		}
	}
}

package core_test

import (
	"errors"
	"sync"
	"testing"

	"khuzdul/internal/comm"
	"khuzdul/internal/core"
	"khuzdul/internal/graph"
	"khuzdul/internal/partition"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// gatedSource fails every fetch to one owner at once and holds every other
// fetch back until the gate opens, then serves it: a run over it fails while
// fetches are still in flight, and those write its chunks' lists after Run
// has returned — the writers a failed run must not hand to the pool.
// failOwner must be the first remote machine in the engine's circulant order,
// or the engine waits for a gated batch before it sees the failure.
type gatedSource struct {
	*testSource
	failOwner int
	gate      chan struct{}
	inflight  sync.WaitGroup
}

var errGated = errors.New("gated source: owner down")

func (s *gatedSource) Fetch(owner int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	if owner == s.failOwner {
		return nil, errGated
	}
	s.inflight.Add(1)
	defer s.inflight.Done()
	<-s.gate
	return s.testSource.Fetch(owner, ids)
}

// TestFailedRunDoesNotPoisonPool interleaves runs that fail (a fetch error
// with other fetches still in flight) or are canceled with clean runs. The
// clean runs must stay exact, the late fetches of the failed runs must race
// with nothing (run under -race), and whatever the pool holds afterwards must
// be fit for reuse: no list, no raw intersection, no open batch.
func TestFailedRunDoesNotPoisonPool(t *testing.T) {
	g := graph.RMATDefault(200, 1400, 97)
	pl := plan.MustCompile(pattern.Clique(4), plan.Options{Style: plan.StyleGraphPi})
	want := plan.CountGraph(pl, g)

	const nodes = 3
	asg := partition.NewAssignment(nodes, 1)
	locals := make([]*partition.Local, nodes)
	servers := make([]comm.Server, nodes)
	for node := range locals {
		l := partition.NewLocal(g, asg, node)
		locals[node] = l
		servers[node] = comm.ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
			out := make([][]graph.VertexID, len(ids))
			for i, id := range ids {
				out[i] = l.MustNeighbors(id)
			}
			return out
		})
	}
	fabric := comm.NewLocal(servers, nil)
	defer fabric.Close()

	recycled := 0
	for round := 0; round < 6; round++ {
		// A run that fails with fetches in flight.
		src := &gatedSource{
			testSource: &testSource{local: locals[0], fabric: fabric},
			failOwner:  1,
			gate:       make(chan struct{}),
		}
		eng := core.NewEngine(core.NewPlanExtender(pl, nil), src, &core.CountSink{},
			core.Config{Threads: 2, ChunkSize: 64, HDS: true})
		if err := eng.Run(); !errors.Is(err, errGated) {
			t.Fatalf("round %d: gated run returned %v", round, err)
		}
		close(src.gate)

		// A run canceled mid-exploration, with fetches in flight.
		stopped := &stopSource{DataSource: &testSource{local: locals[1], fabric: fabric}, stop: make(chan struct{}), n: 40}
		eng = core.NewEngine(core.NewPlanExtender(pl, nil), stopped, &core.CountSink{},
			core.Config{Threads: 2, ChunkSize: 8, HDS: true, Stop: stopped.stop})
		if err := eng.Run(); !errors.Is(err, core.ErrCanceled) {
			t.Fatalf("round %d: canceled run returned %v", round, err)
		}

		// Clean runs, drawing from whatever the pool holds now, while the
		// failed run's released fetches are still landing.
		for _, chunkSize := range []int{8, 0} {
			got, _ := runCluster(t, g, pl, nodes, core.Config{Threads: 2, ChunkSize: chunkSize, HDS: true})
			if got != want {
				t.Fatalf("round %d chunk %d: count %d after failed runs, want %d", round, chunkSize, got, want)
			}
		}
		src.inflight.Wait()

		n, dirty := core.InspectChunkPool(32)
		recycled += n
		for _, d := range dirty {
			t.Errorf("round %d: pooled %s", round, d)
		}
	}
	if recycled == 0 {
		t.Error("no recycled chunk ever came out of the pool: the check above inspected nothing")
	}
}

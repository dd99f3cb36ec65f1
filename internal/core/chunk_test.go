package core

import (
	"errors"
	"testing"

	"khuzdul/internal/graph"
)

var errTest = errors.New("test")

func TestChunkAppendAndReset(t *testing.T) {
	c := new(chunk)
	c.reset(1, 4)
	c.hasLists, c.hasInter = true, true
	if c.len() != 0 || c.full() {
		t.Fatal("fresh chunk not empty")
	}
	inter := []graph.VertexID{7, 8}
	idx := c.append(3, 42, inter)
	if idx != 0 || c.len() != 1 {
		t.Fatalf("append idx=%d len=%d", idx, c.len())
	}
	if c.vertex[0] != 42 || c.parent[0] != 3 || len(c.inter[0]) != 2 || len(c.lists) != 1 {
		t.Fatal("append stored wrong fields")
	}
	c.appendChildren([]child{{parent: 0, vertex: 0, inter: inter}, {parent: 0, vertex: 1}, {parent: 0, vertex: 2}})
	if !c.full() {
		t.Fatalf("chunk with %d/%d entries not full", c.len(), c.cap)
	}
	if len(c.lists) != 4 || len(c.inter) != 4 || len(c.inter[1]) != 2 || c.inter[2] != nil {
		t.Fatalf("appendChildren: %d lists, %d inter", len(c.lists), len(c.inter))
	}
	c.lists[2] = inter
	c.allIdxs()
	c.batches[0].err = errTest

	// The same chunk serves another level at another capacity, and nothing
	// of the first use is reachable from it.
	c.reset(2, 2)
	if c.len() != 0 || c.level != 2 || c.cap != 2 || c.full() {
		t.Fatal("reset did not clear the chunk")
	}
	if len(c.batches) != 0 || c.hasLists || c.hasInter {
		t.Fatal("reset kept batches or column flags")
	}
	if b := c.batchStore[0]; b.err != nil {
		t.Fatal("reset left a retired batch holding an error")
	}
	for _, col := range [][][]graph.VertexID{c.lists[:cap(c.lists)], c.inter[:cap(c.inter)]} {
		for i, l := range col {
			if l != nil {
				t.Fatalf("entry %d of a pointer column survived reset", i)
			}
		}
	}
}

func TestChunkCarriesOnlyNeededColumns(t *testing.T) {
	c := new(chunk)
	c.reset(1, 8)
	c.append(-1, 1, []graph.VertexID{9})
	c.appendChildren([]child{{parent: 0, vertex: 2, inter: []graph.VertexID{9}}})
	if c.len() != 2 || len(c.lists) != 0 || len(c.inter) != 0 {
		t.Fatalf("len=%d lists=%d inter=%d, want 2 0 0", c.len(), len(c.lists), len(c.inter))
	}
}

func TestChunkSoftCapacityOvershoot(t *testing.T) {
	// Capacity is a soft bound: append never fails, full() just turns true.
	c := new(chunk)
	c.reset(0, 2)
	for i := 0; i < 5; i++ {
		c.append(-1, graph.VertexID(i), nil)
	}
	if c.len() != 5 || !c.full() {
		t.Fatalf("len=%d full=%v", c.len(), c.full())
	}
}

func TestFetchBatchReady(t *testing.T) {
	c := new(chunk)
	c.reset(0, 4)
	b := c.newBatch(make(chan struct{}))
	select {
	case <-b.ready:
		t.Fatal("fresh batch already ready")
	default:
	}
	b.closeReady()
	select {
	case <-b.ready:
	default:
		t.Fatal("closed batch not ready")
	}
	select {
	case <-c.newBatch(closedReady).ready:
	default:
		t.Fatal("resolved batch not ready")
	}
	// A retired batch comes back empty, with its index storage.
	b.idxs = append(b.idxs, 1, 2, 3)
	b.next = 2
	c.reset(0, 4)
	if nb := c.newBatch(closedReady); nb != b || len(nb.idxs) != 0 || cap(nb.idxs) < 3 || nb.next != 0 {
		t.Fatalf("reused batch: same=%v idxs=%d/%d next=%d", nb == b, len(nb.idxs), cap(nb.idxs), nb.next)
	}
}

func TestAllIdxs(t *testing.T) {
	c := new(chunk)
	c.reset(0, 8)
	for i := 0; i < 4; i++ {
		c.append(-1, graph.VertexID(10+i), nil)
	}
	c.allIdxs()
	if len(c.batches) != 1 {
		t.Fatalf("%d batches", len(c.batches))
	}
	idxs := c.batches[0].idxs
	if len(idxs) != 4 {
		t.Fatalf("len = %d", len(idxs))
	}
	for i, v := range idxs {
		if int(v) != i {
			t.Fatalf("idxs[%d] = %d", i, v)
		}
	}
	c.reset(0, 8)
	c.allIdxs()
	if len(c.batches[0].idxs) != 0 {
		t.Fatal("allIdxs of an empty chunk not empty")
	}
}

func TestHashVertexSpreads(t *testing.T) {
	// The HDS table hash must spread consecutive IDs (the common case for
	// R-MAT hubs) across slots.
	const mask = 255
	buckets := map[uint32]int{}
	for v := 0; v < 1024; v++ {
		buckets[hashVertex(graph.VertexID(v))&mask]++
	}
	// With 1024 keys into 256 slots, a catastrophic hash would leave most
	// slots empty; require at least half occupied.
	if len(buckets) < 128 {
		t.Fatalf("hashVertex hit only %d/256 slots", len(buckets))
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.ChunkSize <= 0 || cfg.Threads <= 0 || cfg.miniBatch != miniBatch {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.Metrics == nil {
		t.Fatal("nil metrics after defaults")
	}
	// Explicit values survive.
	cfg2 := Config{ChunkSize: 7, Threads: 3, miniBatch: 5}.withDefaults()
	if cfg2.ChunkSize != 7 || cfg2.Threads != 3 || cfg2.miniBatch != 5 {
		t.Fatalf("explicit config overridden: %+v", cfg2)
	}
}

package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"khuzdul/internal/graph"
	"khuzdul/internal/plan"
)

// chunk is a soft-capacity batch of extendable embeddings of one tree level
// (paper §4.2). An embedding is stored as its new vertex plus a parent index
// into the previous level's chunk — the hierarchical representation of
// Figure 8 that realizes vertical data sharing: the active edge lists of the
// earlier positions are reached through the parent chain instead of being
// copied or re-fetched.
//
// A chunk owns all of its per-chunk memory — the columns and what prepare
// builds over them (batches, HDS table, per-owner fetch groups) — allocates
// none of it up front and keeps whatever it has grown to, so a recycled chunk
// serves any level, any ChunkSize and any run (see chunkPool). The invariant
// that makes recycling safe: outside [0, len) every entry of the
// pointer-bearing columns is nil, and reset re-establishes it.
type chunk struct {
	level  int
	parent []int32          // index into the parent chunk (-1 for roots)
	vertex []graph.VertexID // the vertex this embedding added
	// lists[i] is the edge list of vertex[i] once fetched. It may alias the
	// local partition, the static cache, a fetched buffer, or — via
	// horizontal sharing — another embedding's list in the same chunk. The
	// column is carried only at levels whose vertex is an active vertex of a
	// deeper level (hasLists); elsewhere it stays empty.
	lists    [][]graph.VertexID
	hasLists bool
	// inter[i] is the raw intersection stored for vertical computation
	// sharing; children reuse it instead of recomputing multi-way
	// intersections. Shared by all children of one Extend call. Carried only
	// at levels that store one (hasInter).
	inter    [][]graph.VertexID
	hasInter bool
	// rows, rowOff, rowIdx and runs serve a level-1 chunk of a dense plan
	// (see layoutRows): the bit rows its embeddings build, each embedding's
	// row offset into rows and index in its parent's stored set, and the
	// start of each parent's run of children, with the chunk's length at the
	// end. They hold no pointers and keep their capacity across uses.
	rows   []uint64
	rowOff []int
	rowIdx []int32
	runs   []int32
	// batches partition the chunk's embeddings by data source in circulant
	// order (paper §4.3); extension proceeds batch by batch, waiting for
	// each batch's communication to complete while later batches fetch in
	// the background. It is a prefix of batchStore.
	batches []*fetchBatch
	cap     int
	// size mirrors len(vertex) so workers can poll fullness without taking
	// the flush lock.
	size atomic.Int32

	// batchStore holds every fetchBatch this chunk ever built; their index
	// slices keep their capacity across uses.
	batchStore []*fetchBatch
	// table is the horizontal-sharing hash table and groups the per-owner
	// fetch work, both built by prepare only once the chunk meets a vertex
	// it must fetch.
	table  []int32
	groups []fetchGroup
}

// fetchBatch is one circulant communication batch: the embeddings whose
// active edge lists come from one machine (or are already resolved).
type fetchBatch struct {
	idxs  []int32
	next  int // extension progress: idxs[:next] already extended
	ready chan struct{}
	err   error
}

// closedReady is the ready channel of every batch that needs no
// communication.
var closedReady = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// closeReady marks the batch's data as available.
func (b *fetchBatch) closeReady() { close(b.ready) }

// chunkPool recycles chunks across engines and runs: an engine draws from it
// when its own free list is empty and hands its chunks back only at the end
// of a Run that returned nil (Engine.release). A sync.Pool because runs
// execute concurrently on one cluster and idle memory must still return to
// the garbage collector.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// len returns the number of embeddings currently in the chunk.
func (c *chunk) len() int { return int(c.size.Load()) }

// full reports whether the chunk reached its configured capacity. Capacity
// is a soft bound: workers finish the mini-batch they claimed, so a chunk
// can exceed it by a bounded overshoot (threads × mini-batch worth of
// children), preserving the paper's bounded-memory property up to a constant.
func (c *chunk) full() bool { return int(c.size.Load()) >= c.cap }

// reset empties the chunk for reuse at the given level with the given soft
// capacity, dropping every reference the previous use left in the
// pointer-bearing columns — fetched slabs, arena blocks, cache entries — so
// a recycled chunk pins none of them. It must not run while a fetch of the
// previous use may still be writing the chunk: callers reset only chunks
// whose batches were all waited for.
func (c *chunk) reset(level, capacity int) {
	c.level = level
	c.cap = capacity
	c.parent = c.parent[:0]
	c.vertex = c.vertex[:0]
	clear(c.lists)
	c.lists = c.lists[:0]
	clear(c.inter)
	c.inter = c.inter[:0]
	c.hasLists, c.hasInter = false, false
	for _, b := range c.batches {
		b.err = nil
	}
	c.batches = c.batchStore[:0]
	c.size.Store(0)
}

// append adds one embedding and returns its index.
func (c *chunk) append(parent int32, v graph.VertexID, inter []graph.VertexID) int32 {
	idx := int32(len(c.vertex))
	c.parent = append(c.parent, parent)
	c.vertex = append(c.vertex, v)
	if c.hasLists {
		c.lists = append(c.lists, nil)
	}
	if c.hasInter {
		c.inter = append(c.inter, inter)
	}
	c.size.Store(int32(len(c.vertex)))
	return idx
}

// appendChildren adds a worker's buffered children in one pass.
func (c *chunk) appendChildren(buf []child) {
	for i := range buf {
		c.parent = append(c.parent, buf[i].parent)
		c.vertex = append(c.vertex, buf[i].vertex)
	}
	if c.hasInter {
		for i := range buf {
			c.inter = append(c.inter, buf[i].inter)
		}
	}
	if c.hasLists {
		// The entries past the old length are nil already (the chunk
		// invariant, and growth zeroes what it adds), so within capacity
		// this only reslices.
		n := len(c.vertex)
		c.lists = slices.Grow(c.lists, n-len(c.lists))[:n]
	}
	c.size.Store(int32(len(c.vertex)))
}

// newBatch opens the chunk's next communication batch, reusing a retired
// one's index storage. ready is the batch's completion channel: closedReady
// for a batch that waits for nothing.
func (c *chunk) newBatch(ready chan struct{}) *fetchBatch {
	n := len(c.batches)
	if n == len(c.batchStore) {
		c.batchStore = append(c.batchStore, &fetchBatch{})
	}
	c.batches = c.batchStore[:n+1]
	b := c.batches[n]
	b.idxs = b.idxs[:0]
	b.next = 0
	b.ready = ready
	return b
}

// allIdxs opens one resolved batch covering every embedding of the chunk —
// the whole communication plan of a level that fetches nothing.
func (c *chunk) allIdxs() {
	b := c.newBatch(closedReady)
	for i, n := int32(0), int32(c.len()); i < n; i++ {
		b.idxs = append(b.idxs, i)
	}
}

// layoutRows lays out the rows of a level-1 chunk of a dense plan and returns
// their total in words. The children of one parent are contiguous — one
// Extend appends them all to a worker's buffer before any flush — and are, in
// order, the parent's stored set S; the run's n rows of
// plan.DenseRowWords(n) words each sit back to back in rows.
func (c *chunk) layoutRows() int {
	n := c.len()
	c.runs = c.runs[:0]
	c.rowOff = slices.Grow(c.rowOff[:0], n)[:n]
	c.rowIdx = slices.Grow(c.rowIdx[:0], n)[:n]
	words := 0
	for i := 0; i < n; {
		j := i + 1
		for j < n && c.parent[j] == c.parent[i] {
			j++
		}
		if j-i != len(c.inter[i]) {
			panic("core: a dense parent's children are not its stored set")
		}
		c.runs = append(c.runs, int32(i))
		w := plan.DenseRowWords(j - i)
		for k := i; k < j; k++ {
			c.rowOff[k] = words
			c.rowIdx[k] = int32(k - i)
			words += w
		}
		i = j
	}
	c.runs = append(c.runs, int32(n))
	c.rows = slices.Grow(c.rows[:0], words)[:words]
	return words
}

// child is a freshly generated extendable embedding buffered by a worker
// before being flushed into the next-level chunk.
type child struct {
	parent int32
	vertex graph.VertexID
	inter  []graph.VertexID
}

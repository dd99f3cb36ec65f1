package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"khuzdul/internal/cache"
	"khuzdul/internal/graph"
	"khuzdul/internal/metrics"
	"khuzdul/internal/plan"
	"khuzdul/internal/setops"
)

// Config tunes one engine instance (one socket of one machine).
type Config struct {
	// ChunkSize is the soft capacity of a chunk in embeddings (paper §4.2;
	// the paper sizes chunks in bytes, this implementation in embeddings —
	// the bounded-memory argument is identical). Default 1<<15.
	ChunkSize int
	// Threads is the number of compute workers (paper §6 uses a 3:1
	// compute:communication ratio; communication here is goroutines).
	Threads int
	// HDS enables horizontal data sharing within a chunk (§5.2).
	HDS bool
	// Cache is the edge-list cache consulted before remote fetches; nil
	// disables caching (§5.3, Figure 16/17 ablations).
	Cache cache.Cache
	// Metrics receives counters; nil disables metric collection.
	Metrics *metrics.Node
	// OnRangeDone, when set, is called after each contiguous root range
	// [start, end) (indices into DataSource.Roots()) has been explored to
	// completion — every match from those embedding trees has reached the
	// sink. Root ranges complete strictly in order, so the latest end is a
	// checkpoint: on failure, only roots at or past it need re-execution
	// (the chunk lifecycle of §3.3 makes lost work re-derivable from source
	// vertices). Nil disables checkpointing at zero cost.
	OnRangeDone func(start, end int)
	// Stop, once closed, stops Run and makes it return ErrCanceled. Run
	// reads it at every root range and batch boundary and between the dense
	// pass's parents, and a wait for a batch's fetch gives way to it, so a
	// stopped engine never waits out a fetch, whatever the fabric. Ranges
	// committed before the stop have fully reached the sink — the clean
	// prefix straggler speculation reconciles counts on. Nil never stops.
	Stop <-chan struct{}

	// miniBatch is the work-distribution unit in embeddings; 0 selects the
	// constant miniBatch. Only tests set it, to split one parent's children
	// across workers.
	miniBatch int
}

// miniBatch is the work-distribution unit in embeddings (paper §6: 64).
// Units of 16, 64 and 256 measured as a tie, 4 slower (EXPERIMENTS.md).
const miniBatch = 64

func (c Config) withDefaults() Config {
	if c.ChunkSize <= 0 {
		c.ChunkSize = 1 << 15
	}
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.miniBatch <= 0 {
		c.miniBatch = miniBatch
	}
	if c.Metrics == nil {
		c.Metrics = &metrics.Node{}
	}
	return c
}

// flushSize is the per-worker child buffer flushed into the next-level chunk
// under one lock acquisition (paper: half the L1-D cache).
const flushSize = 1024

// Engine executes one client system's EXTEND function over one partition
// with the BFS-DFS hybrid exploration. Create one per socket per machine.
type Engine struct {
	ext  Extender
	src  DataSource
	sink Sink
	// count is the sink when it is a *CountSink: the engine then only counts.
	count *CountSink
	cfg   Config
	met   *metrics.Node
	k     int
	// needsList and storeInter are the extender's per-level answers, asked
	// once: they decide which columns a level's chunks carry.
	needsList  []bool
	storeInter []bool
	// dense is the extender's plan when it finishes levels ≥ 2 on the root's
	// neighborhood (Extender.Dense): a level-1 chunk then builds rows and runs
	// the dense pass instead of feeding a level-2 chunk. emit is the sink's
	// OnMatches for that pass, nil under a CountSink, which it popcounts.
	dense *plan.Plan
	emit  func(prefix, last []graph.VertexID)
	// rowPeak is the most row words one level-1 chunk of a dense plan held.
	rowPeak int

	path []*chunk // current chunk per level along the DFS path
	// free holds this run's retired chunks for reuse at any level; workers
	// is nil outside Run. Both are drawn from and returned to the
	// process-wide pools (see release).
	free    []*chunk
	workers []*workerCtx
	flushMu sync.Mutex
	// live tracks currently allocated extendable embeddings across all live
	// chunks, feeding the PeakEmbeddings metric — the measurable form of
	// the paper's bounded-memory claim (§4.2).
	live atomic.Int64
}

type workerCtx struct {
	scratch *plan.Scratch
	anc     []int32
	emb     []graph.VertexID
	lists   [][]graph.VertexID
	buf     []child
	// bufHigh is the longest buf has been since the worker left the pool:
	// the prefix that may still hold raw-intersection pointers.
	bufHigh int
	matches uint64
	exts    uint64
	// vertHits counts active lists resolved through the parent chain —
	// vertical data sharing (§3.1): each extension at level L reuses L
	// already-fetched lists instead of re-fetching them.
	vertHits uint64
	// getListFn is the method value of getList, created once here so that
	// extendOne does not allocate a fresh closure per embedding.
	getListFn func(pos int) []graph.VertexID
	// runs is the storage the worker's scratch shares work among one
	// parent's children through: the mark set a count-only level's siblings
	// probe against, and the buffers a labeled level's shared set is filtered
	// into once per run (plan.Scratch.LendRuns). It lives here rather than in
	// the per-run scratch so it survives from run to run with the pooled
	// worker; it holds vertex IDs and bitmap words only.
	runs plan.RunStorage
	// arena is bump storage for the raw-intersection copies that vertical
	// candidate sharing stores on child embeddings. Copies are carved out of
	// one large block instead of one heap allocation per embedding; a full
	// block is abandoned to the garbage collector (chunks may still reference
	// its slices) and replaced. The current block stays with a pooled worker
	// and is refilled from its start.
	arena []graph.VertexID
}

func (w *workerCtx) getList(pos int) []graph.VertexID { return w.lists[pos] }

// workerPool recycles worker contexts — child buffer, ancestor/embedding/list
// scratch, the current arena block — under the same rule as chunkPool.
var workerPool = sync.Pool{New: func() any {
	w := &workerCtx{}
	w.getListFn = w.getList
	return w
}}

// getWorker draws a worker context sized for this engine.
func (e *Engine) getWorker() *workerCtx {
	w := workerPool.Get().(*workerCtx)
	if cap(w.anc) < e.k {
		w.anc = make([]int32, e.k)
		w.emb = make([]graph.VertexID, e.k)
		w.lists = make([][]graph.VertexID, e.k)
	}
	w.anc, w.emb, w.lists = w.anc[:e.k], w.emb[:e.k], w.lists[:e.k]
	if cap(w.buf) < flushSize {
		w.buf = make([]child, 0, flushSize)
	}
	w.scratch = e.ext.NewScratch()
	w.scratch.SetCountOnly(e.count != nil)
	w.scratch.LendRuns(&w.runs)
	return w
}

// putWorker returns a worker context to the pool holding no reference into
// the run it served: no scratch, no edge list, no raw intersection. Nothing
// references the arena block any more once the run's chunks are reset, so it
// is refilled from its start.
func putWorker(w *workerCtx) {
	w.scratch = nil
	clear(w.lists)
	clear(w.buf[:w.bufHigh])
	w.bufHigh = 0
	w.arena = w.arena[:0]
	workerPool.Put(w)
}

// arenaBlock is the worker arena's block capacity: large enough to amortize
// refills over thousands of typical raw intersections, small enough that an
// abandoned tail wastes little.
const arenaBlock = 1 << 14

// copyInter copies a raw intersection into the worker's arena and returns a
// full-capacity-clipped slice of it, so later appends by the arena cannot
// write through.
func (w *workerCtx) copyInter(raw []graph.VertexID) []graph.VertexID {
	if len(raw) == 0 {
		return nil
	}
	if len(w.arena)+len(raw) > cap(w.arena) {
		n := arenaBlock
		if len(raw) > n {
			n = len(raw)
		}
		// An amortized block refill, not a per-embedding allocation.
		w.arena = make([]graph.VertexID, 0, n)
	}
	start := len(w.arena)
	w.arena = append(w.arena, raw...)
	return w.arena[start:len(w.arena):len(w.arena)]
}

// NewEngine assembles an engine from a client system's extender, a machine's
// data source and an application sink.
func NewEngine(ext Extender, src DataSource, sink Sink, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		ext:  ext,
		src:  src,
		sink: sink,
		cfg:  cfg,
		met:  cfg.Metrics,
		k:    ext.K(),
	}
	e.count, _ = sink.(*CountSink)
	e.dense = ext.Dense()
	if e.dense != nil && e.count == nil {
		e.emit = sink.OnMatches
	}
	e.path = make([]*chunk, e.k)
	e.needsList = make([]bool, e.k)
	e.storeInter = make([]bool, e.k)
	for l := 0; l < e.k; l++ {
		e.needsList[l] = ext.NeedsList(l)
		e.storeInter[l] = ext.StoreInter(l)
	}
	return e
}

// ErrCanceled is returned by Run once Config.Stop is closed. Every range
// completed before the stop has fully reached the sink; the range in flight
// may have partially counted, so callers must discard everything after the
// last committed range (exactly what the recovery trackers' (prefix,
// committed) checkpoints do).
var ErrCanceled = errors.New("core: engine canceled")

// ErrCountOverflow is returned by Run when a count-only extension counted
// more matches than a uint64 holds — a folded tail or a multiplied last level
// on a hub can — rather than reporting a wrapped number. It is checked before
// every root range is committed, so no overflowed count reaches
// Config.OnRangeDone.
var ErrCountOverflow = errors.New("core: match count overflows uint64")

// checkCanceled reads Config.Stop. process calls it at every batch boundary
// so a canceled engine — a losing speculative copy, a shutdown — releases its
// memory promptly instead of exploring the rest of the chunk tree.
func (e *Engine) checkCanceled() error {
	select {
	case <-e.cfg.Stop:
		return ErrCanceled
	default:
		return nil
	}
}

// Run explores the embedding trees of every root this engine owns. It
// blocks until exploration completes and returns the first fetch error.
//
// The engine's working set — chunks and worker contexts — comes from the
// process-wide pools and goes back only when the exploration completed. A
// run that failed or was canceled may have left fetch goroutines unjoined
// that still write its chunks' lists — a stopped run does not wait for the
// fetches in flight — so it returns nothing and leaves its memory to the
// garbage collector.
func (e *Engine) Run() error {
	e.workers = make([]*workerCtx, e.cfg.Threads)
	for i := range e.workers {
		e.workers[i] = e.getWorker()
	}
	roots := e.src.Roots()
	for start := 0; start < len(roots); start += e.cfg.ChunkSize {
		if err := e.checkCanceled(); err != nil {
			return err
		}
		end := start + e.cfg.ChunkSize
		if end > len(roots) {
			end = len(roots)
		}
		ch := e.rootChunk(roots[start:end])
		var err error
		if ch.len() > 0 {
			e.path[0] = ch
			err = e.process(ch)
		}
		e.putChunk(ch)
		if err == nil {
			err = e.overflowed()
		}
		if err != nil {
			return err
		}
		if e.cfg.OnRangeDone != nil {
			e.cfg.OnRangeDone(start, end)
		}
	}
	e.release()
	return nil
}

// overflowed returns ErrCountOverflow once any worker counted past a uint64.
func (e *Engine) overflowed() error {
	for _, w := range e.workers {
		if w.scratch.Overflowed() {
			return ErrCountOverflow
		}
	}
	return nil
}

// release hands the working set of a run that completed cleanly back to the
// pools. Every chunk is on the free list by then and every batch of every
// chunk has been waited for, so nothing can still write them; reset drops
// what their pointer columns reference.
func (e *Engine) release() {
	for _, ch := range e.free {
		ch.reset(0, 0)
		chunkPool.Put(ch)
	}
	e.free = nil
	clear(e.path)
	for _, w := range e.workers {
		putWorker(w)
	}
	e.workers = nil
}

// rootChunk builds a level-0 chunk from a batch of roots. Root edge lists
// are always local: a machine explores the trees of its own partition.
func (e *Engine) rootChunk(roots []graph.VertexID) *chunk {
	ch := e.getChunk(0)
	for _, v := range roots {
		if e.ext.RootOK(v) {
			ch.append(-1, v, nil)
		}
	}
	if ch.hasLists {
		for i, v := range ch.vertex {
			ch.lists[i] = e.src.LocalList(v)
		}
	}
	ch.allIdxs()
	e.met.RecordPeakEmbeddings(uint64(e.live.Add(int64(ch.len()))))
	return ch
}

// process extends every embedding of ch to completion: DFS among chunks,
// BFS within a chunk (paper Figure 7). ch's communication batches must
// already be prepared and its entry installed in e.path.
func (e *Engine) process(ch *chunk) error {
	if e.dense != nil && ch.level == 1 {
		return e.processDense(ch)
	}
	final := ch.level == e.k-2
	if final {
		for _, b := range ch.batches {
			if err := e.checkCanceled(); err != nil {
				return err
			}
			if err := e.waitBatch(b); err != nil {
				return err
			}
			e.extendRound(ch, b, nil, true)
		}
		return nil
	}
	bi := 0
	for bi < len(ch.batches) {
		next := e.getChunk(ch.level + 1)
		for bi < len(ch.batches) && !next.full() {
			if err := e.checkCanceled(); err != nil {
				e.putChunk(next)
				return err
			}
			b := ch.batches[bi]
			if err := e.waitBatch(b); err != nil {
				e.putChunk(next)
				return err
			}
			e.extendRound(ch, b, next, false)
			if b.next >= len(b.idxs) {
				bi++
			}
		}
		if next.len() > 0 {
			e.prepare(next)
			e.path[next.level] = next
			if err := e.process(next); err != nil {
				e.putChunk(next)
				return err
			}
		}
		// Backtrack: all of next's descendants are complete, so its memory
		// is released (the zombie → terminated transition of Figure 6,
		// bottom-up deallocation).
		e.putChunk(next)
	}
	return nil
}

// processDense finishes every embedding below a level-1 chunk of a dense
// plan: each batch, once its lists arrived, builds its embeddings' rows over
// their parents' stored sets, and then one pass per parent ANDs its children's
// rows through the levels ≥ 2 (plan.Plan.DenseFinish). No level-2 chunk is
// built and no list past level 1 fetched.
func (e *Engine) processDense(ch *chunk) error {
	e.rowPeak = max(e.rowPeak, ch.layoutRows())
	for _, b := range ch.batches {
		if err := e.checkCanceled(); err != nil {
			return err
		}
		if err := e.waitBatch(b); err != nil {
			return err
		}
		e.extendRound(ch, b, nil, false)
	}
	return e.denseRound(ch)
}

// denseRound runs the dense pass over every parent of a level-1 chunk, the
// parents split into mini-batches across the workers. Config.Stop is read
// between parents.
func (e *Engine) denseRound(ch *chunk) error {
	runs := len(ch.runs) - 1
	mini := e.cfg.miniBatch
	nWorkers := min((runs+mini-1)/mini, e.cfg.Threads)
	var cursor atomic.Int64
	var canceled atomic.Bool
	work := func(w *workerCtx) {
		t0 := time.Now()
		for !canceled.Load() {
			start := (int(cursor.Add(1)) - 1) * mini
			if start >= runs {
				break
			}
			for r := start; r < min(start+mini, runs); r++ {
				if e.checkCanceled() != nil {
					canceled.Store(true)
					break
				}
				e.finishRun(w, ch, r)
			}
		}
		e.met.AddCompute(time.Since(t0))
	}
	e.runWorkers(nWorkers, work)
	e.drainWorkers()
	if canceled.Load() {
		return ErrCanceled
	}
	return nil
}

// finishRun runs the dense pass below the r-th parent of a level-1 chunk.
func (e *Engine) finishRun(w *workerCtx, ch *chunk, r int) {
	start, end := ch.runs[r], ch.runs[r+1]
	set := ch.inter[start]
	off := ch.rowOff[start]
	w.emb[0] = e.path[0].vertex[ch.parent[start]]
	rows := ch.rows[off : off+int(end-start)*plan.DenseRowWords(len(set))]
	w.matches += e.dense.DenseFinish(w.scratch, w.emb, set, rows, e.emit)
}

// buildRow builds the row of one level-1 embedding of a dense plan: its
// vertex's neighbors among its parent's stored set, as bits over the set's
// indices. It is that embedding's extension.
func (e *Engine) buildRow(w *workerCtx, ch *chunk, idx int32) {
	set := ch.inter[idx]
	off := ch.rowOff[idx]
	e.dense.DenseRow(w.scratch, ch.rows[off:off+plan.DenseRowWords(len(set))], set, int(ch.rowIdx[idx]), ch.lists[idx])
	w.exts++
	w.vertHits++
}

// waitBatch blocks until a batch's communication completes or Config.Stop
// closes, accounting the wait as network time. A stopped engine leaves the
// fetch running; Run then hands nothing it wrote to the pools.
func (e *Engine) waitBatch(b *fetchBatch) error {
	select {
	case <-b.ready:
		return b.err
	default:
	}
	t0 := time.Now()
	err := ErrCanceled
	select {
	case <-b.ready:
		err = b.err
	case <-e.cfg.Stop:
	}
	e.met.AddNetwork(time.Since(t0))
	return err
}

// extendRound extends the unprocessed embeddings of batch b, appending
// children into next (or counting matches when final). It stops early when
// next fills up, recording progress in b.next.
func (e *Engine) extendRound(ch *chunk, b *fetchBatch, next *chunk, final bool) {
	rem := b.idxs[b.next:]
	if len(rem) == 0 {
		return
	}
	mini := e.cfg.miniBatch
	nWorkers := (len(rem) + mini - 1) / mini
	if nWorkers > e.cfg.Threads {
		nWorkers = e.cfg.Threads
	}
	rows := e.dense != nil && ch.level == 1
	var cursor atomic.Int64
	work := func(w *workerCtx) {
		t0 := time.Now()
		// run is the parent of the embeddings this worker extends, an index
		// into the previous level's chunk: where it changes, a new run of
		// siblings begins (plan.Scratch.NewRun). The key is an index, never a
		// stored slice, whose storage slab reuse recycles; a parent split
		// across mini-batches, workers or batches only starts a run again.
		// Roots all carry parent −1, which is safe: no level 1 is probed or
		// filtered once.
		run := int32(-1)
		for {
			if next != nil && next.full() {
				break
			}
			m := int(cursor.Add(1)) - 1
			start := m * mini
			if start >= len(rem) {
				break
			}
			end := start + mini
			if end > len(rem) {
				end = len(rem)
			}
			for _, idx := range rem[start:end] {
				if rows {
					e.buildRow(w, ch, idx)
					continue
				}
				if p := ch.parent[idx]; p != run {
					run = p
					w.scratch.NewRun()
				}
				e.extendOne(w, ch, idx, next, final)
			}
		}
		if next != nil {
			e.flush(w, next)
		}
		e.met.AddCompute(time.Since(t0))
	}
	e.runWorkers(nWorkers, work)
	consumed := int(cursor.Load()) * mini
	if consumed > len(rem) {
		consumed = len(rem)
	}
	b.next += consumed
	e.drainWorkers()
}

// runWorkers runs work on the first n workers, on the calling goroutine when
// n ≤ 1, and returns when all are done.
func (e *Engine) runWorkers(n int, work func(w *workerCtx)) {
	if n <= 1 {
		work(e.workers[0])
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(w *workerCtx) {
			defer wg.Done()
			work(w)
		}(e.workers[i])
	}
	wg.Wait()
}

// drainWorkers moves the workers' counters into the metrics node, and their
// matches into the sink when it is a CountSink.
func (e *Engine) drainWorkers() {
	for _, w := range e.workers {
		if w.matches > 0 {
			e.met.Matches.Add(w.matches)
			if e.count != nil {
				e.count.Add(w.matches)
			}
			w.matches = 0
		}
		if w.exts > 0 {
			e.met.Extensions.Add(w.exts)
			w.exts = 0
		}
		if w.vertHits > 0 {
			e.met.VerticalHits.Add(w.vertHits)
			w.vertHits = 0
		}
		kc := w.scratch.KernelCounts()
		if kc[setops.KernelMerge] > 0 {
			e.met.KernelMerge.Add(kc[setops.KernelMerge])
			kc[setops.KernelMerge] = 0
		}
		if kc[setops.KernelGallop] > 0 {
			e.met.KernelGallop.Add(kc[setops.KernelGallop])
			kc[setops.KernelGallop] = 0
		}
		if kc[setops.KernelBitmap] > 0 {
			e.met.KernelBitmap.Add(kc[setops.KernelBitmap])
			kc[setops.KernelBitmap] = 0
		}
		if kc[setops.KernelProbe] > 0 {
			e.met.KernelProbe.Add(kc[setops.KernelProbe])
			kc[setops.KernelProbe] = 0
		}
	}
}

// extendOne performs one fine-grained task: extend a single extendable
// embedding by one vertex (paper §3.1). Active edge lists of earlier
// positions are resolved through the parent chain — vertical data sharing.
func (e *Engine) extendOne(w *workerCtx, ch *chunk, idx int32, next *chunk, final bool) {
	level := ch.level
	w.anc[level] = idx
	for l := level; l > 0; l-- {
		w.anc[l-1] = e.path[l].parent[w.anc[l]]
	}
	for l := 0; l <= level; l++ {
		c := e.path[l]
		w.emb[l] = c.vertex[w.anc[l]]
		// A level without the column never had a list: w.lists[l] is nil
		// from the pool and stays nil.
		if c.hasLists {
			w.lists[l] = c.lists[w.anc[l]]
		}
	}
	w.exts++
	w.vertHits += uint64(level)
	var parentRaw []graph.VertexID
	if ch.hasInter {
		parentRaw = ch.inter[idx]
	}
	cands, raw := e.ext.Extend(w.scratch, level+1, w.emb[:level+1], w.getListFn, parentRaw)
	// A count-only scratch may count a level instead of building it — the
	// last, the first of a folded tail or level K−2 of a multiplied plan,
	// whose nil candidates end the walk here — and leave the number for the
	// engine to take.
	w.matches += w.scratch.TakeCount()
	if final {
		w.matches += uint64(len(cands))
		if e.count == nil && len(cands) > 0 {
			e.sink.OnMatches(w.emb[:level+1], cands)
		}
		return
	}
	var interCopy []graph.VertexID
	if e.storeInter[level+1] && len(cands) > 0 {
		interCopy = w.copyInter(raw)
	}
	for _, v := range cands {
		w.buf = append(w.buf, child{parent: idx, vertex: v, inter: interCopy})
	}
	if len(w.buf) >= flushSize {
		e.flush(w, next)
	}
}

// flush moves a worker's buffered children into the next-level chunk under
// one lock acquisition (paper §6: per-thread buffers to avoid contention).
func (e *Engine) flush(w *workerCtx, next *chunk) {
	if len(w.buf) == 0 {
		return
	}
	e.flushMu.Lock()
	next.appendChildren(w.buf)
	e.flushMu.Unlock()
	e.met.RecordPeakEmbeddings(uint64(e.live.Add(int64(len(w.buf)))))
	if len(w.buf) > w.bufHigh {
		w.bufHigh = len(w.buf)
	}
	w.buf = w.buf[:0]
}

// getChunk returns an empty chunk for the given level: one this run already
// retired, else one from the pool.
func (e *Engine) getChunk(level int) *chunk {
	var ch *chunk
	if n := len(e.free); n > 0 {
		ch = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ch = chunkPool.Get().(*chunk)
	}
	ch.reset(level, e.cfg.ChunkSize)
	ch.hasLists, ch.hasInter = e.needsList[level], e.storeInter[level]
	return ch
}

func (e *Engine) putChunk(ch *chunk) {
	e.live.Add(-int64(ch.len()))
	e.free = append(e.free, ch)
}

// Metrics returns the engine's metrics node.
func (e *Engine) Metrics() *metrics.Node { return e.met }

// String describes the engine configuration.
func (e *Engine) String() string {
	return fmt.Sprintf("engine{k=%d chunk=%d threads=%d hds=%v cache=%v}",
		e.k, e.cfg.ChunkSize, e.cfg.Threads, e.cfg.HDS, e.cfg.Cache != nil)
}

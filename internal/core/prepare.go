package core

import (
	"time"

	"khuzdul/internal/graph"
)

// fetchGroup collects the per-owner fetch work for one chunk.
type fetchGroup struct {
	owner     int
	fetchIdxs []int32 // embeddings whose vertex list must be fetched
	aliasFrom []int32 // horizontal sharing: ch.lists[aliasTo[i]] = ch.lists[aliasFrom[i]]
	aliasTo   []int32
}

// sampleEvery is the cache-call sampling period: a time.Now pair costs as
// much as the lookup it wraps, so one call in sampleEvery is timed and the
// total is scaled from it.
const sampleEvery = 64

// sampleTimer estimates the total duration of a series of calls from the
// timed ones.
type sampleTimer struct {
	calls, timed int64
	dur          time.Duration
}

// start counts one call and returns its start time if it is one to time, the
// zero time otherwise; stop takes either.
func (t *sampleTimer) start() time.Time {
	t.calls++
	if t.calls%sampleEvery != 1 {
		return time.Time{}
	}
	return time.Now()
}

func (t *sampleTimer) stop(t0 time.Time) {
	if !t0.IsZero() {
		t.timed++
		t.dur += time.Since(t0)
	}
}

// estimate scales the timed calls' duration to all calls.
func (t *sampleTimer) estimate() time.Duration {
	if t.timed == 0 {
		return 0
	}
	return time.Duration(int64(t.dur) * t.calls / t.timed)
}

// openFetch readies the chunk's fetch scratch for one prepare pass: empty
// per-owner groups and, under horizontal sharing, an all-empty table of at
// least two slots per embedding. prepare calls it at the chunk's first vertex
// that needs fetching, so chunks that resolve everything locally never pay
// for either.
func (c *chunk) openFetch(numNodes int, hds bool) {
	if cap(c.groups) < numNodes {
		c.groups = make([]fetchGroup, numNodes)
	}
	c.groups = c.groups[:numNodes]
	for i := range c.groups {
		g := &c.groups[i]
		g.owner = i
		g.fetchIdxs = g.fetchIdxs[:0]
		g.aliasFrom = g.aliasFrom[:0]
		g.aliasTo = g.aliasTo[:0]
	}
	if !hds {
		return
	}
	size := 1
	for size < 2*c.len() {
		size <<= 1
	}
	if cap(c.table) < size {
		c.table = make([]int32, size)
	}
	c.table = c.table[:size]
	for i := range c.table {
		c.table[i] = -1
	}
}

// prepare seals a chunk: it classifies every embedding's new vertex by
// locality, resolves local / cross-socket / cached / horizontally-shared
// lists immediately, groups the rest into per-machine batches in circulant
// order (local machine's resolved batch first, then machines K+1, K+2, …
// mod N — paper §4.3), and fires one background fetch per remote batch so
// communication overlaps with the extension of earlier batches.
func (e *Engine) prepare(ch *chunk) {
	t0 := time.Now()
	defer func() { e.met.AddScheduler(time.Since(t0)) }()

	if !ch.hasLists {
		ch.allIdxs()
		return
	}

	n := ch.len()
	numNodes := e.src.NumNodes()
	local := e.src.LocalNode()
	resolved := ch.newBatch(closedReady)

	// Horizontal data sharing: a per-chunk open-addressed table keyed by
	// vertex, one slot per hash, no collision chains — colliding inserts are
	// simply dropped (paper §5.2), trading a little duplicate traffic for a
	// near-free table.
	var mask uint32
	fetching := false

	var cacheTime sampleTimer
	var remote, cacheHits, cacheMisses, hdsHits uint64
	for i := 0; i < n; i++ {
		v := ch.vertex[i]
		loc, owner := e.src.Classify(v)
		switch loc {
		case LocalityLocal:
			ch.lists[i] = e.src.LocalList(v)
			resolved.idxs = append(resolved.idxs, int32(i))
			continue
		case LocalityCrossSocket:
			ch.lists[i] = e.src.CrossSocketList(v)
			resolved.idxs = append(resolved.idxs, int32(i))
			continue
		}
		if e.cfg.Cache != nil {
			tc := cacheTime.start()
			l, ok := e.cfg.Cache.Get(v)
			cacheTime.stop(tc)
			if ok {
				ch.lists[i] = l
				resolved.idxs = append(resolved.idxs, int32(i))
				cacheHits++
				continue
			}
			cacheMisses++
		}
		if !fetching {
			fetching = true
			ch.openFetch(numNodes, e.cfg.HDS)
			mask = uint32(len(ch.table) - 1)
		}
		g := &ch.groups[owner]
		if e.cfg.HDS {
			h := hashVertex(v) & mask
			switch first := ch.table[h]; {
			case first == -1:
				ch.table[h] = int32(i)
			case ch.vertex[first] == v:
				// Same vertex already being fetched in this chunk: share it.
				g.aliasFrom = append(g.aliasFrom, first)
				g.aliasTo = append(g.aliasTo, int32(i))
				hdsHits++
				continue
			default:
				// Hash collision with a different vertex: fetch redundantly
				// rather than maintain a collision chain.
			}
		}
		g.fetchIdxs = append(g.fetchIdxs, int32(i))
		remote++
	}

	e.met.Fetches.Add(uint64(n))
	e.met.RemoteFetches.Add(remote)
	e.met.CacheHits.Add(cacheHits)
	e.met.CacheMisses.Add(cacheMisses)
	e.met.HDSHits.Add(hdsHits)
	if d := cacheTime.estimate(); d > 0 {
		e.met.AddCache(d)
	}
	if !fetching {
		return
	}

	// Circulant order over remote machines: (local+1)%N, (local+2)%N, …
	// Aliased embeddings ride in the batch of the embedding that fetches.
	for d := 1; d < numNodes; d++ {
		g := &ch.groups[(local+d)%numNodes]
		if len(g.fetchIdxs) == 0 {
			continue
		}
		b := ch.newBatch(make(chan struct{}))
		b.idxs = append(b.idxs, g.fetchIdxs...)
		b.idxs = append(b.idxs, g.aliasTo...)
		go e.runFetch(ch, b, g)
	}
}

// runFetch performs one circulant batch's blocking fetch and publishes the
// lists, then releases extenders waiting on the batch. Closing the batch is
// the last thing it does to the chunk, which is what lets a chunk whose
// batches were all waited for be reset and recycled.
func (e *Engine) runFetch(ch *chunk, b *fetchBatch, g *fetchGroup) {
	// The request is the one piece of a fetch that is not recycled: a
	// retrying fabric abandons a timed-out attempt that may still be reading
	// it and succeeds on the next, so the chunk can be reset while a reader
	// is alive.
	vs := make([]graph.VertexID, len(g.fetchIdxs))
	for j, idx := range g.fetchIdxs {
		vs[j] = ch.vertex[idx]
	}
	lists, err := e.src.Fetch(g.owner, vs)
	if err != nil {
		b.err = err
		b.closeReady()
		return
	}
	var cacheTime sampleTimer
	for j, idx := range g.fetchIdxs {
		ch.lists[idx] = lists[j]
		if e.cfg.Cache != nil {
			tc := cacheTime.start()
			e.cfg.Cache.MaybePut(vs[j], lists[j])
			cacheTime.stop(tc)
		}
	}
	for j := range g.aliasTo {
		ch.lists[g.aliasTo[j]] = ch.lists[g.aliasFrom[j]]
	}
	if d := cacheTime.estimate(); d > 0 {
		e.met.AddCache(d)
	}
	b.closeReady()
}

// hashVertex mixes a vertex ID for the HDS table.
func hashVertex(v graph.VertexID) uint32 {
	h := uint32(v)
	h ^= h >> 16
	h *= 0x7feb352d
	h ^= h >> 15
	h *= 0x846ca68b
	h ^= h >> 16
	return h
}

package gthinker

import (
	"time"

	"sync"

	"khuzdul/internal/graph"
	"khuzdul/internal/metrics"
)

// swCache is G-thinker's general software cache for remote edge lists. It
// maintains the map between tasks and the edge lists they depend on
// (paper Figure 2): every acquire and insert updates reference sets under a
// global lock, and garbage collection evicts unreferenced entries when the
// cache exceeds capacity. This bookkeeping is the "high computation
// overhead" the paper measures as the cache portion of Figure 15. The entries
// no task references sit on an idle list, oldest release first, so a
// collection evicts only what it frees and never reads a referenced entry.
type swCache struct {
	mu       sync.Mutex
	entries  map[graph.VertexID]*swEntry
	taskDeps map[int64][]graph.VertexID // task → vertices it holds references to
	idle     swEntry                    // sentinel of the circular idle list
	size     uint64
	capacity uint64
}

type swEntry struct {
	v    graph.VertexID
	list []graph.VertexID
	refs map[int64]bool // tasks currently depending on this entry
	// prev and next link the entry into the idle list exactly while refs is
	// empty.
	prev, next *swEntry
}

func newSWCache(capacity uint64) *swCache {
	c := &swCache{
		entries:  map[graph.VertexID]*swEntry{},
		taskDeps: map[int64][]graph.VertexID{},
		capacity: capacity,
	}
	c.idle.prev, c.idle.next = &c.idle, &c.idle
	return c
}

// acquire looks up v for a task, registering the dependency on hit.
func (c *swCache) acquire(task int64, v graph.VertexID, met *metrics.Node) ([]graph.VertexID, bool) {
	t0 := time.Now()
	defer func() { met.AddCache(time.Since(t0)) }()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[v]
	if !ok {
		return nil, false
	}
	c.refLocked(task, e)
	return e.list, true
}

// insert stores a fetched list and registers the fetching task's reference.
func (c *swCache) insert(task int64, v graph.VertexID, list []graph.VertexID, met *metrics.Node) {
	t0 := time.Now()
	defer func() { met.AddCache(time.Since(t0)) }()
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[v]; ok {
		c.refLocked(task, e)
		return
	}
	e := &swEntry{v: v, list: list, refs: map[int64]bool{task: true}}
	c.entries[v] = e
	c.taskDeps[task] = append(c.taskDeps[task], v)
	c.size += 16 + 4*uint64(len(list))
	if c.size > c.capacity {
		c.gcLocked()
	}
}

// refLocked registers task's dependency on e, taking e off the idle list if
// it was the first reference.
func (c *swCache) refLocked(task int64, e *swEntry) {
	if e.refs[task] {
		return
	}
	if len(e.refs) == 0 {
		e.prev.next, e.next.prev = e.next, e.prev
		e.prev, e.next = nil, nil
	}
	e.refs[task] = true
	c.taskDeps[task] = append(c.taskDeps[task], e.v)
}

// releaseTask drops all of a completed task's references, putting each entry
// whose last reference it was on the idle list, and garbage collects if over
// capacity.
func (c *swCache) releaseTask(task int64, met *metrics.Node) {
	t0 := time.Now()
	defer func() { met.AddCache(time.Since(t0)) }()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, v := range c.taskDeps[task] {
		if e, ok := c.entries[v]; ok && e.refs[task] {
			delete(e.refs, task)
			if len(e.refs) == 0 {
				e.prev, e.next = c.idle.prev, &c.idle
				e.prev.next, c.idle.prev = e, e
			}
		}
	}
	delete(c.taskDeps, task)
	if c.size > c.capacity {
		c.gcLocked()
	}
}

// gcLocked evicts idle entries, oldest release first, until the cache is
// under capacity or nothing is idle — the cache's "are all tasks accessing
// this edge list completed?" check, answered by the idle list.
func (c *swCache) gcLocked() {
	for c.size > c.capacity && c.idle.next != &c.idle {
		e := c.idle.next
		c.idle.next, e.next.prev = e.next, &c.idle
		c.size -= 16 + 4*uint64(len(e.list))
		delete(c.entries, e.v)
	}
}

// lenEntries returns the number of cached lists (tests only).
func (c *swCache) lenEntries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Package cache implements the software edge-list caches the paper studies.
// The Khuzdul design (§5.3) is the STATIC cache: fill once with hot
// (high-degree) vertices, never evict — no replacement bookkeeping, no
// task↔data dependency maps. For the Figure 16 comparison the package also
// implements FIFO, LIFO, LRU and MRU replacement caches; their extra
// maintenance cost per access is exactly the phenomenon the paper measures.
package cache

import (
	"fmt"
	"strings"
	"sync"

	"khuzdul/internal/graph"
)

// Policy selects a cache design.
type Policy int

const (
	// Static is the paper's insert-once, never-evict design.
	Static Policy = iota
	// FIFO evicts the earliest-inserted entry.
	FIFO
	// LIFO evicts the latest-inserted entry.
	LIFO
	// LRU evicts the least-recently-used entry.
	LRU
	// MRU evicts the most-recently-used entry.
	MRU
)

// ParsePolicy parses a policy name.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "static", "":
		return Static, nil
	case "fifo":
		return FIFO, nil
	case "lifo":
		return LIFO, nil
	case "lru":
		return LRU, nil
	case "mru":
		return MRU, nil
	}
	return Static, fmt.Errorf("cache: unknown policy %q", s)
}

func (p Policy) String() string {
	switch p {
	case Static:
		return "STATIC"
	case FIFO:
		return "FIFO"
	case LIFO:
		return "LIFO"
	case LRU:
		return "LRU"
	case MRU:
		return "MRU"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Cache is a vertex → edge-list cache. Implementations are safe for
// concurrent use.
type Cache interface {
	// Get returns the cached edge list of v.
	Get(v graph.VertexID) ([]graph.VertexID, bool)
	// MaybePut offers a fetched edge list; the policy decides whether to
	// admit it. Returns true if the list was cached.
	MaybePut(v graph.VertexID, list []graph.VertexID) bool
	// Len returns the number of cached entries.
	Len() int
	// SizeBytes returns the accounted size of cached data.
	SizeBytes() uint64
	// Policy returns the cache's policy.
	Policy() Policy
}

// entryBytes accounts an entry: 4 bytes per vertex plus fixed overhead.
func entryBytes(list []graph.VertexID) uint64 { return 16 + 4*uint64(len(list)) }

// New constructs a cache of the given policy. capacityBytes bounds the
// accounted size; degThreshold applies to the Static policy only (minimum
// degree for admission, the paper's default is 64).
func New(policy Policy, capacityBytes uint64, degThreshold uint32) Cache {
	if policy == Static {
		return NewStatic(capacityBytes, degThreshold)
	}
	return newReplacement(policy, capacityBytes)
}

// StaticCache is the paper's no-replacement design. Admission: degree at or
// above the threshold while the cache is not full; after the first rejection
// for capacity the cache is frozen and every later MaybePut is a no-op, so
// the steady-state fast path is a read-lock-only lookup.
type StaticCache struct {
	mu        sync.RWMutex
	data      map[graph.VertexID][]graph.VertexID
	size      uint64
	capacity  uint64
	threshold uint32
	full      bool
}

// NewStatic returns a static cache with the given capacity and degree
// admission threshold.
func NewStatic(capacityBytes uint64, degThreshold uint32) *StaticCache {
	return &StaticCache{
		data:      map[graph.VertexID][]graph.VertexID{},
		capacity:  capacityBytes,
		threshold: degThreshold,
	}
}

// Get implements Cache.
func (c *StaticCache) Get(v graph.VertexID) ([]graph.VertexID, bool) {
	c.mu.RLock()
	l, ok := c.data[v]
	c.mu.RUnlock()
	return l, ok
}

// MaybePut implements Cache.
func (c *StaticCache) MaybePut(v graph.VertexID, list []graph.VertexID) bool {
	if uint32(len(list)) < c.threshold {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.full {
		return false
	}
	if _, ok := c.data[v]; ok {
		return true
	}
	b := entryBytes(list)
	if c.size+b > c.capacity {
		// Frozen from now on: no eviction, no further admission (paper §5.3).
		c.full = true
		return false
	}
	c.data[v] = list
	c.size += b
	return true
}

// Len implements Cache.
func (c *StaticCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.data)
}

// SizeBytes implements Cache.
func (c *StaticCache) SizeBytes() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.size
}

// Policy implements Cache.
func (c *StaticCache) Policy() Policy { return Static }

// Full reports whether the cache has frozen.
func (c *StaticCache) Full() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.full
}

// replacementCache implements FIFO/LIFO/LRU/MRU with a map plus an intrusive
// doubly-linked list ordered by insertion (FIFO/LIFO) or recency (LRU/MRU).
// Every access mutates shared state under a mutex — the bookkeeping cost the
// paper contrasts with STATIC.
type replacementCache struct {
	policy   Policy
	mu       sync.Mutex
	data     map[graph.VertexID]*rcEntry
	head     *rcEntry // most recent (insertion or use)
	tail     *rcEntry // least recent
	size     uint64
	capacity uint64
	// evictions counts entries removed; exported via Evictions for tests.
	evictions uint64
}

type rcEntry struct {
	v          graph.VertexID
	list       []graph.VertexID
	prev, next *rcEntry
}

func newReplacement(policy Policy, capacityBytes uint64) *replacementCache {
	return &replacementCache{
		policy:   policy,
		data:     map[graph.VertexID]*rcEntry{},
		capacity: capacityBytes,
	}
}

func (c *replacementCache) Get(v graph.VertexID) ([]graph.VertexID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.data[v]
	if !ok {
		return nil, false
	}
	if c.policy == LRU || c.policy == MRU {
		c.moveToHead(e)
	}
	return e.list, true
}

func (c *replacementCache) MaybePut(v graph.VertexID, list []graph.VertexID) bool {
	b := entryBytes(list)
	if b > c.capacity {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.data[v]; ok {
		if c.policy == LRU || c.policy == MRU {
			c.moveToHead(e)
		}
		return true
	}
	for c.size+b > c.capacity {
		c.evictOne()
	}
	e := &rcEntry{v: v, list: list}
	c.pushHead(e)
	c.data[v] = e
	c.size += b
	return true
}

// evictOne removes the victim the policy dictates.
func (c *replacementCache) evictOne() {
	var victim *rcEntry
	switch c.policy {
	case FIFO, LRU:
		victim = c.tail
	case LIFO, MRU:
		victim = c.head
	}
	if victim == nil {
		return
	}
	c.unlink(victim)
	delete(c.data, victim.v)
	c.size -= entryBytes(victim.list)
	c.evictions++
}

func (c *replacementCache) pushHead(e *rcEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *replacementCache) unlink(e *rcEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *replacementCache) moveToHead(e *rcEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushHead(e)
}

func (c *replacementCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.data)
}

func (c *replacementCache) SizeBytes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

func (c *replacementCache) Policy() Policy {
	return c.policy
}

// Evictions returns the number of evicted entries.
func (c *replacementCache) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

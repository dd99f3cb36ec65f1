// Package metrics is the metrics half of the directive matrix: one
// dead gauge for metriclive plus one stale metriclive ignore.
package metrics

import "sync/atomic"

// Stats has one counter nothing ever writes.
type Stats struct {
	Hits   atomic.Uint64
	Misses atomic.Uint64
}

// Summarize reads both counters.
func (s *Stats) Summarize() uint64 {
	return s.Hits.Load() + s.Misses.Load()
}

// Touch writes only Misses: Hits stays a dead gauge.
func (s *Stats) Touch() {
	s.Misses.Add(1)
}

// fixed carries a stale metriclive ignore: the counter it excused was wired
// up long ago.
func fixed() {
	//khuzdulvet:ignore metriclive tier3 matrix: the counter was wired up
	_ = 0
}

// Package cluster is the locksend fixture: blocking fabric or channel
// operations while a mutex is held must be flagged; copy-then-release and
// non-blocking selects are the legal near misses.
package cluster

import (
	"sync"

	"locksend/internal/comm"
)

// State guards shared bookkeeping with a mutex.
type State struct {
	mu     sync.Mutex
	fabric comm.Fabric
	events chan int
	seq    int
}

// FetchUnderLock holds mu across a blocking fabric call.
func (s *State) FetchUnderLock(ids []uint64) ([]uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fabric.Fetch(0, 1, ids) // want "fabric Fetch while"
}

// SendUnderLock performs a channel send while holding mu.
func (s *State) SendUnderLock(v int) {
	s.mu.Lock()
	s.events <- v // want "channel send while"
	s.mu.Unlock()
}

// ReceiveUnderLock blocks on a receive while holding mu.
func (s *State) ReceiveUnderLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.events // want "blocking channel receive while"
}

// SelectUnderLock waits on communication with no default while holding mu.
func (s *State) SelectUnderLock(stop <-chan struct{}) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "blocking select while"
	case v := <-s.events:
		return v
	case <-stop:
		return 0
	}
}

// DrainUnderLock ranges over a channel while holding mu.
func (s *State) DrainUnderLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for v := range s.events { // want "range over channel"
		total += v
	}
	return total
}

// SendAfterEarlyReturn releases mu only on the early-return arm: the path
// that continues still holds it when it sends.
func (s *State) SendAfterEarlyReturn(stop bool) {
	s.mu.Lock()
	if stop {
		s.mu.Unlock()
		return
	}
	s.events <- 1 // want "channel send while"
	s.mu.Unlock()
}

// SnapshotThenSend copies under the lock and sends after releasing it.
func (s *State) SnapshotThenSend() {
	s.mu.Lock()
	v := s.seq
	s.mu.Unlock()
	s.events <- v
}

// PollUnderLock uses a default clause, so the select cannot block.
func (s *State) PollUnderLock() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-s.events:
		return v, true
	default:
		return 0, false
	}
}

// SpawnUnderLock hands the send to a goroutine, which runs in its own
// context and does not hold the spawner's lock.
func (s *State) SpawnUnderLock(done chan<- int) {
	s.mu.Lock()
	s.seq++
	v := s.seq
	s.mu.Unlock()
	go func() { done <- v }()
}

// WalkUnderLock ranges over a slice, not a channel, which never blocks.
func (s *State) WalkUnderLock(vs []int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, v := range vs {
		total += v
	}
	return total
}

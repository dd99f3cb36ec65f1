// Package tier3dir is the directive matrix fixture for lockorder: a live
// ignore directive must suppress exactly its finding, and a stale ignore
// naming lockorder must be audited.
package tier3dir

import "sync"

type P struct{ mu sync.Mutex }
type Q struct{ mu sync.Mutex }

var p P
var q Q

// lockPQ and lockQP close a cycle that is reported.
func lockPQ() {
	p.mu.Lock()
	q.mu.Lock()
	q.mu.Unlock()
	p.mu.Unlock()
}

func lockQP() {
	q.mu.Lock()
	p.mu.Lock()
	p.mu.Unlock()
	q.mu.Unlock()
}

type R struct{ mu sync.Mutex }
type S struct{ mu sync.Mutex }

var r R
var s S

// lockRS and lockSR close a second cycle, whose finding (at its
// lexically-first edge, R before S) carries a live suppression: the finding
// is silenced and the directive is not stale.
func lockRS() {
	r.mu.Lock()
	//khuzdulvet:ignore lockorder tier3 matrix: suppressed on purpose
	s.mu.Lock()
	s.mu.Unlock()
	r.mu.Unlock()
}

func lockSR() {
	s.mu.Lock()
	r.mu.Lock()
	r.mu.Unlock()
	s.mu.Unlock()
}

// fixed holds a stale ignore: the excused cycle no longer exists, so the
// directive is reported.
func fixed() {
	//khuzdulvet:ignore lockorder tier3 matrix: the cycle was fixed
	_ = 0
}

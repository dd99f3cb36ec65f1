// Package lockorder is the lockorder fixture: two goroutines acquiring the
// same pair of mutexes in opposite orders — directly or through a callee —
// must be flagged as a potential deadlock; consistent ordering,
// release-before-reacquire, and goroutine-spawned acquisitions are the legal
// near misses. A call through an interface orders the held lock before what
// every implementation acquires.
package lockorder

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

var a A
var b B

// lockAB orders A before B. The cycle finding lands on this edge because it
// is first in sorted-key order.
func lockAB() {
	a.mu.Lock()
	b.mu.Lock() // want "potential deadlock: lock-order cycle"
	b.mu.Unlock()
	a.mu.Unlock()
}

// lockBA orders B before A: together with lockAB this closes the cycle.
func lockBA() {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}

type C struct{ mu sync.Mutex }
type D struct{ mu sync.Mutex }

var c C
var d D

// lockCthenCallD holds C.mu across a call that acquires D.mu: the edge is
// call-mediated, discovered through the transitive acquisition sets.
func lockCthenCallD() {
	c.mu.Lock()
	defer c.mu.Unlock()
	dWork() // want "potential deadlock: lock-order cycle"
}

func dWork() {
	d.mu.Lock()
	d.mu.Unlock()
}

// lockDthenCallC closes the interprocedural cycle in the other direction.
func lockDthenCallC() {
	d.mu.Lock()
	defer d.mu.Unlock()
	cWork()
}

func cWork() {
	c.mu.Lock()
	c.mu.Unlock()
}

type G struct{ mu sync.Mutex }
type H struct{ mu sync.Mutex }

var g G
var h H

// lockGHAfterEarlyReturn releases G only on the early-return arm, so the
// path past it takes H with G still held: the cycle's only G→H edge.
func lockGHAfterEarlyReturn(stop bool) {
	g.mu.Lock()
	if stop {
		g.mu.Unlock()
		return
	}
	h.mu.Lock() // want "potential deadlock: lock-order cycle"
	h.mu.Unlock()
	g.mu.Unlock()
}

// lockHG closes the cycle with H before G.
func lockHG() {
	h.mu.Lock()
	g.mu.Lock()
	g.mu.Unlock()
	h.mu.Unlock()
}

type E struct{ mu sync.Mutex }
type F struct{ mu sync.Mutex }

var e E
var f F

// lockEF and lockEFAgain agree on E before F: consistent order, no cycle.
func lockEF() {
	e.mu.Lock()
	f.mu.Lock()
	f.mu.Unlock()
	e.mu.Unlock()
}

func lockEFAgain() {
	e.mu.Lock()
	f.mu.Lock()
	f.mu.Unlock()
	e.mu.Unlock()
}

// unlockFirst releases F before taking E: no F-before-E edge exists, so the
// E→F order above stays acyclic.
func unlockFirst() {
	f.mu.Lock()
	f.mu.Unlock()
	e.mu.Lock()
	e.mu.Unlock()
}

// spawnUnderF holds F while spawning a goroutine that locks E. The goroutine
// acquires on its own stack, so this must NOT create an F→E edge (which
// would falsely close a cycle with lockEF's E→F).
func spawnUnderF() {
	f.mu.Lock()
	go func() {
		e.mu.Lock()
		e.mu.Unlock()
	}()
	f.mu.Unlock()
}

// spawnNamedUnderF spawns a named function the same way: the callee's
// acquisitions stay off the spawner's held set too.
func spawnNamedUnderF() {
	f.mu.Lock()
	go lockEJust()
	f.mu.Unlock()
}

func lockEJust() {
	e.mu.Lock()
	e.mu.Unlock()
}

// handOverHand locks two different instances of the same type in sequence:
// instance-insensitive keys collapse them, and the self-edge is dropped
// rather than reported.
func handOverHand(x, y *A) {
	x.mu.Lock()
	y.mu.Lock()
	y.mu.Unlock()
	x.mu.Unlock()
}

type I struct{ mu sync.Mutex }
type J struct{ mu sync.Mutex }

var i I
var j J

// worker is called through an interface: the call graph expands the call to
// every declared implementation, so jWorker's J lock is ordered after I.
type worker interface{ work() }

type jWorker struct{}

func (jWorker) work() {
	j.mu.Lock()
	j.mu.Unlock()
}

func lockIthenWork(w worker) {
	i.mu.Lock()
	defer i.mu.Unlock()
	w.work() // want "potential deadlock: lock-order cycle"
}

// lockJI closes the interface-mediated cycle.
func lockJI() {
	j.mu.Lock()
	i.mu.Lock()
	i.mu.Unlock()
	j.mu.Unlock()
}

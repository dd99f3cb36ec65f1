// Package tier4dir is the directive matrix fixture for guardfield and
// timerstop: hotpath roots must not gate (or suppress) them, a live ignore
// directive must suppress exactly its finding, and stale ignores naming them
// must be audited.
package tier4dir

import (
	"sync"
	"time"
)

// reg.n is guarded at four locked sites; the stray read sits inside a
// hotpath root, where guardfield fires just the same.
type reg struct {
	mu sync.Mutex
	n  int
}

var r reg

func lockInc() {
	r.mu.Lock()
	r.n++
	r.mu.Unlock()
}

func lockDec() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n--
}

func lockReset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n = 0
}

func lockGet() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// hotPeek is a hotpath root with a lock-free read of the guarded field:
// guardfield runs everywhere, so the directive changes nothing.
//
//khuzdulvet:hotpath tier4 matrix root
func hotPeek() int {
	return r.n
}

// pump is a hotpath root whose ticker has no deferred Stop: timerstop fires
// inside root-marked functions just the same.
//
//khuzdulvet:hotpath tier4 matrix root
func pump(stop chan struct{}) {
	t := time.NewTicker(time.Second)
	for {
		select {
		case <-t.C:
			lockInc()
		case <-stop:
			return
		}
	}
}

// schedule carries a live timerstop suppression: the discarded timer's
// finding is silenced and the directive is not stale.
func schedule(f func()) {
	//khuzdulvet:ignore timerstop tier4 matrix: suppressed on purpose
	time.AfterFunc(time.Second, f)
}

// fixedAll holds one stale ignore per analyzer of the matrix: the excused findings
// no longer exist, so each directive is reported.
func fixedAll() {
	//khuzdulvet:ignore guardfield tier4 matrix: the access was locked
	//khuzdulvet:ignore timerstop tier4 matrix: the ticker is stopped now
	_ = 0
}

// Package tier4dir is the tier-4 directive matrix fixture: hotpath/longrun
// roots must not gate (or suppress) the tier-4 analyzers, a live ignore
// directive must suppress exactly its finding, and stale ignores naming the
// tier-4 analyzers must be audited.
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

// pump is a longrun root that leaks its ticker on the stop path: timerstop
// fires inside root-marked functions just the same.
//
//khuzdulvet:longrun tier4 matrix root
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

// fixedAll holds one stale ignore per tier-4 analyzer: the excused findings
// no longer exist, so each directive is reported.
func fixedAll() {
	//khuzdulvet:ignore guardfield tier4 matrix: the access was locked
	//khuzdulvet:ignore timerstop tier4 matrix: the ticker is stopped now
	_ = 0
}

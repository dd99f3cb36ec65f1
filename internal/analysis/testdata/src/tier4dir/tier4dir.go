// Package tier4dir is the directive matrix fixture for timerstop: a hotpath
// root must not gate (or suppress) it, a live ignore directive must suppress
// exactly its finding, and a stale ignore naming it must be audited.
package tier4dir

import "time"

var ticks int

// pump is a hotpath root whose ticker has no deferred Stop: timerstop fires
// inside root-marked functions just the same.
//
//khuzdulvet:hotpath tier4 matrix root
func pump(stop chan struct{}) {
	t := time.NewTicker(time.Second)
	for {
		select {
		case <-t.C:
			ticks++
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

// fixed holds a stale ignore: the excused finding no longer exists, so the
// directive is reported.
func fixed() {
	//khuzdulvet:ignore timerstop tier4 matrix: the ticker is stopped now
	_ = 0
}

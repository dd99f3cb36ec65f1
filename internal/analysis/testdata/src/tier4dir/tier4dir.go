// Package tier4dir is the directive matrix fixture for timerstop: a live
// ignore directive must suppress exactly its finding, and a stale ignore
// naming it must be audited.
package tier4dir

import "time"

var ticks int

// pump's ticker has no deferred Stop.
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

// Package comm is the directive matrix fixture for lockorder, wirebound and
// metriclive: hotpath roots must not gate (or suppress) them, a live ignore
// directive must suppress exactly its finding, and stale ignores naming them
// must be audited.
package comm

import (
	"encoding/binary"
	"sync"
)

type P struct{ mu sync.Mutex }
type Q struct{ mu sync.Mutex }

var p P
var q Q

// lockPQ and lockQP close a cycle between two hotpath roots: lockorder runs
// everywhere, so the directives change nothing.
//
//khuzdulvet:hotpath tier3 matrix root
func lockPQ() {
	p.mu.Lock()
	q.mu.Lock()
	q.mu.Unlock()
	p.mu.Unlock()
}

//khuzdulvet:hotpath tier3 matrix root
func lockQP() {
	q.mu.Lock()
	p.mu.Lock()
	p.mu.Unlock()
	q.mu.Unlock()
}

// decodeSuppressed carries a live wirebound suppression: the finding is
// silenced and the directive is not stale.
func decodeSuppressed(b []byte) []byte {
	n := int(binary.LittleEndian.Uint32(b))
	//khuzdulvet:ignore wirebound tier3 matrix: suppressed on purpose
	return make([]byte, n)
}

// fixedAll holds one stale ignore per comm-side analyzer of the matrix: the excused
// findings no longer exist, so each directive is reported.
func fixedAll() {
	//khuzdulvet:ignore wirebound tier3 matrix: the decode was removed
	//khuzdulvet:ignore lockorder tier3 matrix: the cycle was fixed
	_ = 0
}

// Package staleignore exercises the stale-ignore audit: a directive still
// excusing a live finding stays silent, one whose finding has since been
// fixed is itself reported so escape hatches cannot rot.
package staleignore

import "time"

// LiveSuppression still contains the discarded timer its directive excuses.
func LiveSuppression(f func()) {
	//khuzdulvet:ignore timerstop fixture: a used suppression is not stale
	time.AfterFunc(time.Millisecond, f)
}

// FixedSuppression lost the timer its directive once excused; the directive
// is now stale and must be reported.
func FixedSuppression() {
	//khuzdulvet:ignore timerstop fixture: the excused timer was removed
}

// Package cluster exercises the khuzdulvet ignore directive: a well-formed
// directive suppresses the finding on its line or the line below, a
// malformed directive is a finding itself, and an uncovered violation still
// fires.
package cluster

import "time"

// ArmSuppressed documents why its discarded timer is exempt.
func ArmSuppressed(f func()) {
	//khuzdulvet:ignore timerstop fixture exercising a documented suppression
	time.AfterFunc(time.Millisecond, f)
}

// ArmSuppressedInline carries the directive on the offending line.
func ArmSuppressedInline(f func()) {
	time.AfterFunc(time.Millisecond, f) //khuzdulvet:ignore timerstop same-line suppression form
}

// ArmMalformed names no reason, so the directive itself is a finding and
// the timer still fires.
func ArmMalformed(f func()) {
	//khuzdulvet:ignore timerstop
	time.AfterFunc(time.Millisecond, f)
}

// ArmBare has no directive at all.
func ArmBare(f func()) {
	time.AfterFunc(time.Millisecond, f)
}

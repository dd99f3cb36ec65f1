// Package timerstop is the timerstop fixture: every time.NewTicker,
// NewTimer and AfterFunc result must be bound to a local whose Stop is
// deferred by the very next statement. Each reported shape is one the rule
// rejects on purpose; the clean functions are the one sanctioned shape in
// the places it occurs.
package timerstop

import "time"

// tickClean is the sanctioned shape.
func tickClean(d time.Duration, work func()) {
	t := time.NewTicker(d)
	defer t.Stop()
	for range t.C {
		work()
	}
}

// afterClean arms a callback that cannot outlive the function.
func afterClean(d time.Duration, fire func()) {
	tm := time.AfterFunc(d, fire)
	defer tm.Stop()
	fire()
}

// clauseClean creates its timer inside a select clause and a closure: the
// shape holds in any statement list.
func clauseClean(d time.Duration, done chan struct{}) {
	select {
	case <-done:
		t := time.NewTimer(d)
		defer t.Stop()
		<-t.C
	default:
	}
	go func() {
		t := time.NewTimer(d)
		defer t.Stop()
		<-t.C
	}()
}

// rebindClean reuses a variable declared earlier.
func rebindClean(d time.Duration) {
	var t *time.Timer
	t = time.NewTimer(d)
	defer t.Stop()
	<-t.C
}

// discarded drops the handle: nothing can ever stop it.
func discarded(d time.Duration, fire func()) {
	time.AfterFunc(d, fire) // want "time.AfterFunc result is not bound"
	_ = time.NewTimer(d)    // want "time.NewTimer result is not bound"
}

// noStop binds the timer and never stops it.
func noStop(d time.Duration) {
	t := time.NewTimer(d) // want "time.NewTimer result is not bound"
	<-t.C
}

// laterStop stops after the select, as a drain loop once did: any return
// added between the two lines leaks the timer.
func laterStop(d time.Duration, done chan struct{}) {
	t := time.NewTimer(d) // want "time.NewTimer result is not bound"
	select {
	case <-done:
	case <-t.C:
	}
	t.Stop()
}

// deferLater defers the Stop, but not on the next statement.
func deferLater(d time.Duration, work func()) {
	t := time.NewTicker(d) // want "time.NewTicker result is not bound"
	work()
	defer t.Stop()
}

// deferClosure stops through a deferred closure instead of the method.
func deferClosure(d time.Duration) {
	t := time.NewTimer(d) // want "time.NewTimer result is not bound"
	defer func() { t.Stop() }()
	<-t.C
}

// wrongStop defers the Stop of another timer.
func wrongStop(d time.Duration) {
	a := time.NewTimer(d) // want "time.NewTimer result is not bound"
	b := time.NewTimer(d)
	defer b.Stop()
	<-a.C
}

// newDeadline hands its timer to the caller.
func newDeadline(d time.Duration) *time.Timer {
	return time.NewTimer(d) // want "time.NewTimer result is not bound"
}

// newBound binds first, then returns.
func newBound(d time.Duration) *time.Timer {
	t := time.NewTimer(d) // want "time.NewTimer result is not bound"
	return t
}

// pacer keeps its ticker in a field.
type pacer struct {
	tick *time.Ticker
}

func (p *pacer) start(d time.Duration) {
	p.tick = time.NewTicker(d) // want "time.NewTicker result is not bound"
}

func (p *pacer) stop() { p.tick.Stop() }

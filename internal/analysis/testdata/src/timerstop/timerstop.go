// Package timerstop is the timerstop fixture: every time.NewTicker,
// NewTimer and AfterFunc result must be stopped on every exit path. The
// analyzer is defer-aware, treats a received timer (not ticker) channel as
// fired, follows timers through returning functions to their callers, and
// accepts struct-field stores only when some code in the program stops the
// field. Clean counter-examples exercise each of those paths.
package timerstop

import "time"

// tickClean defers Stop immediately: every exit is covered.
func tickClean(d time.Duration, work func()) {
	t := time.NewTicker(d)
	defer t.Stop()
	for range t.C {
		work()
	}
}

// tickLeakOnBranch stops only on the slow path; the early return leaks.
func tickLeakOnBranch(d time.Duration, fast bool) {
	t := time.NewTicker(d) // want "not stopped on every exit path"
	if fast {
		return
	}
	t.Stop()
}

// timerSelect is clean: one arm receives from C (the timer fired, no Stop
// owed), the other stops it explicitly.
func timerSelect(d time.Duration, done chan struct{}) {
	t := time.NewTimer(d)
	select {
	case <-t.C:
	case <-done:
		t.Stop()
	}
}

// tickSelect looks identical but holds a ticker: receiving a tick does not
// stop a ticker, so the C arm leaks.
func tickSelect(d time.Duration, done chan struct{}) {
	t := time.NewTicker(d) // want "not stopped on every exit path"
	select {
	case <-t.C:
	case <-done:
		t.Stop()
	}
}

// stopAfterLoop is clean: the loop only receives ticks, Stop follows.
func stopAfterLoop(d time.Duration, n int) {
	t := time.NewTicker(d)
	for i := 0; i < n; i++ {
		<-t.C
	}
	t.Stop()
}

// resetLoop is clean: Reset is neutral and the deferred Stop covers every
// exit of the infinite loop.
func resetLoop(d time.Duration, done chan struct{}) {
	t := time.NewTimer(d)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			t.Reset(d)
		case <-done:
			return
		}
	}
}

// fireAndForget discards the AfterFunc handle outright: nothing can ever
// stop it.
func fireAndForget(d time.Duration, f func()) {
	time.AfterFunc(d, f) // want "discarded"
}

// blankTimer discards through the blank identifier: same leak.
func blankTimer(d time.Duration) {
	_ = time.NewTimer(d) // want "discarded"
}

// scheduled is the clean AfterFunc shape: bind and defer Stop.
func scheduled(d time.Duration, f func()) {
	tm := time.AfterFunc(d, f)
	defer tm.Stop()
	f()
}

// newPulse creates and returns: the ticker escapes to the caller, which
// now owns the Stop. Clean here, tracked again at every call site.
func newPulse() *time.Ticker {
	return time.NewTicker(time.Second)
}

// usePulse is the responsible caller.
func usePulse(done chan struct{}) {
	t := newPulse()
	defer t.Stop()
	select {
	case <-t.C:
	case <-done:
	}
}

// usePulseLeak takes ownership from the source and drops it.
func usePulseLeak(done chan struct{}) {
	t := newPulse() // want "not stopped on every exit path"
	select {
	case <-t.C:
	case <-done:
	}
}

// loopers stores its ticker in a field that no code anywhere stops: both
// the direct store and the store-through-a-local leak.
type loopers struct {
	tick *time.Ticker
}

func (l *loopers) start(d time.Duration) {
	l.tick = time.NewTicker(d) // want "no code in the program ever stops"
}

func (l *loopers) swap(d time.Duration) {
	t := time.NewTicker(d) // want "no code in the program ever stops"
	l.tick = t
}

func (l *loopers) poll() {
	<-l.tick.C
}

// managed stores its ticker in a field with a program-wide Stop: both store
// shapes are clean.
type managed struct {
	tick *time.Ticker
}

func (m *managed) start(d time.Duration) {
	m.tick = time.NewTicker(d)
}

func (m *managed) restart(d time.Duration) {
	t := time.NewTicker(d)
	m.tick = t
}

func (m *managed) stop() {
	m.tick.Stop()
}

// worker hands the ticker to a goroutine whose closure stops it: the
// closure discharges the obligation.
func worker(d time.Duration, done chan struct{}, work func()) {
	t := time.NewTicker(d)
	go func() {
		defer t.Stop()
		for {
			select {
			case <-t.C:
				work()
			case <-done:
				return
			}
		}
	}()
}

// leakyWorker's closure only receives ticks — it cannot stop the ticker,
// so the outer scope still owes the Stop and never pays.
func leakyWorker(d time.Duration, done chan struct{}, work func()) {
	t := time.NewTicker(d) // want "not stopped on every exit path"
	go func() {
		for {
			select {
			case <-t.C:
				work()
			case <-done:
				return
			}
		}
	}()
}

// insideGo creates inside a goroutine literal: the literal body is its own
// scope with its own exit check, and the done arm leaks the timer.
func insideGo(d time.Duration, done chan struct{}) {
	go func() {
		t := time.NewTimer(d) // want "not stopped on every exit path"
		select {
		case <-t.C:
		case <-done:
		}
	}()
}

// rebind overwrites a live ticker with a fresh one: the first becomes
// unreachable before anything stops it.
func rebind(a, b time.Duration) {
	t := time.NewTicker(a) // want "rebound before being stopped"
	t = time.NewTicker(b)
	t.Stop()
}

// rebindStopped stops the first ticker before reusing the variable: clean.
func rebindStopped(a, b time.Duration) {
	t := time.NewTicker(a)
	t.Stop()
	t = time.NewTicker(b)
	t.Stop()
}

// rebindFromSource overwrites a live ticker obtained from an in-program
// source: the rebind check follows source bindings too.
func rebindFromSource(done chan struct{}) {
	t := newPulse() // want "rebound before being stopped"
	t = newPulse()
	defer t.Stop()
	select {
	case <-t.C:
	case <-done:
	}
}

// escapeToCallee hands the timer to another function: ownership transfers,
// nothing to report here.
func escapeToCallee(d time.Duration) {
	t := time.NewTimer(d)
	adopt(t)
}

func adopt(t *time.Timer) {
	t.Stop()
}

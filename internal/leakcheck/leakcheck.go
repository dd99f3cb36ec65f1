// Package leakcheck fails tests that leak goroutines. The chaos and TCP
// fabric tests exercise exactly the code whose goroutines are easiest to
// strand — abandoned fetch attempts, heartbeat loops, speculative engines —
// and a join visible in the source proves nothing about whether it is
// reached. This check is the tree's one guard that every goroutine is
// joined, with nothing but the standard library: snapshot the goroutine
// count at test start, then after the test give exiting goroutines a
// settle window and fail if the count never returns to the baseline.
package leakcheck

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// patience bounds the settle loop: goroutines legitimately unwinding after
// Close (parked fetch attempts, detector loops draining) get this long to
// disappear before the test is declared leaky.
const patience = 2 * time.Second

// Check snapshots the current goroutine count and registers a cleanup that
// fails the test if the count has not settled back to the baseline by the
// end of the test. Call it first thing, before any fabric or cluster is
// built.
func Check(t testing.TB) {
	t.Helper()
	before := baseline()
	t.Cleanup(func() {
		if msg := settle(before, patience); msg != "" {
			t.Error(msg)
		}
	})
}

// baseline returns the goroutine count once it has held still for a few
// polls, so goroutines an earlier test released but that are still exiting
// are not counted: one of them exiting later would hide a goroutine the test
// leaves parked. A count that keeps moving is read as it stands after a
// bounded wait.
func baseline() int {
	const still, poll, maxWait = 5, time.Millisecond, 200 * time.Millisecond
	n := runtime.NumGoroutine()
	for same, deadline := 0, time.Now().Add(maxWait); same < still && time.Now().Before(deadline); {
		time.Sleep(poll)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// settle polls until the goroutine count drops to the baseline or the
// patience budget runs out, and returns a leak report (with all stacks) in
// the latter case.
func settle(before int, patience time.Duration) string {
	deadline := time.Now().Add(patience)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			return ""
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Sprintf("goroutine leak: %d at test start, %d after settle window\n%s", before, n, buf)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

package leakcheck

import (
	"strings"
	"testing"
	"time"
)

// TestSettleToleratesUnwindingGoroutines: a goroutine that exits shortly
// after the test body must not be reported — the settle window absorbs it.
func TestSettleToleratesUnwindingGoroutines(t *testing.T) {
	before := baseline()
	done := make(chan struct{})
	go func() {
		time.Sleep(30 * time.Millisecond)
		close(done)
	}()
	if msg := settle(before, 2*time.Second); msg != "" {
		t.Fatalf("settle reported an unwinding goroutine as a leak:\n%s", msg)
	}
	<-done
}

// TestSettleReportsStuckGoroutine: a goroutine parked forever must be
// reported once patience runs out, with its stack in the report. The
// baseline waits out goroutines still exiting from earlier tests (or from
// this one's earlier iterations under -count), whose exit during the settle
// window would otherwise hide the parked one.
func TestSettleReportsStuckGoroutine(t *testing.T) {
	before := baseline()
	block := make(chan struct{})
	started := make(chan struct{})
	go func() {
		close(started)
		<-block
	}()
	<-started
	msg := settle(before, 50*time.Millisecond)
	if msg == "" {
		t.Fatal("settle missed a permanently parked goroutine")
	}
	if !strings.Contains(msg, "goroutine leak") || !strings.Contains(msg, "goroutine ") {
		t.Fatalf("leak report lacks count or stacks:\n%s", msg)
	}
	close(block)
}

// TestCheckCleanTest: Check on a test that leaks nothing stays silent.
func TestCheckCleanTest(t *testing.T) {
	Check(t)
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
}

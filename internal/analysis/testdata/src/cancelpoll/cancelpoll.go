// Package cancelpoll is the cancelpoll fixture: loops reachable from a
// //khuzdulvet:longrun root that block on channels without observing
// cancellation must be flagged; polled selects, Canceled()-style predicates
// (direct or via a callee), compute-only loops and spawned goroutines are
// the legal near misses.
package cancelpoll

// RunBare blocks on work forever with no way out.
//
//khuzdulvet:longrun fixture root
func RunBare(work chan int) {
	for { // want "blocks on channel communication but never polls"
		v := <-work
		_ = v
	}
}

// RunPolled selects on the stop channel alongside work: cancellable.
//
//khuzdulvet:longrun fixture root
func RunPolled(work chan int, stop chan struct{}) {
	for {
		select {
		case v := <-work:
			_ = v
		case <-stop:
			return
		}
	}
}

// RunPredicate polls a Canceled-shaped predicate each iteration.
//
//khuzdulvet:longrun fixture root
func RunPredicate(work chan int, canceled func() bool) {
	for {
		if canceled() {
			return
		}
		v := <-work
		_ = v
	}
}

// RunIndirect reaches a blocking loop through a callee.
//
//khuzdulvet:longrun fixture root
func RunIndirect(work chan int) {
	drain(work)
}

// drain is unmarked but reachable from RunIndirect.
func drain(work chan int) {
	for { // want "blocks on channel communication but never polls"
		<-work
	}
}

// RunHelperPoll polls through a callee: waitStop observes the stop channel.
//
//khuzdulvet:longrun fixture root
func RunHelperPoll(work chan int, stop chan struct{}) {
	for {
		if waitStop(stop) {
			return
		}
		<-work
	}
}

func waitStop(stop chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// RunRange ranges over a channel, which is itself a blocking receive.
//
//khuzdulvet:longrun fixture root
func RunRange(work chan int) {
	total := 0
	for v := range work { // want "ranges over a channel but never polls"
		total += v
	}
	_ = total
}

// RunCompute never touches a channel: compute loops need no polling.
//
//khuzdulvet:longrun fixture root
func RunCompute(items []int) int {
	total := 0
	for _, v := range items {
		total += v
	}
	return total
}

// RunNested blocks only in the inner loop: the finding lands there, not on
// the outer loop.
//
//khuzdulvet:longrun fixture root
func RunNested(batches [][]chan int) {
	for _, bs := range batches {
		for _, b := range bs { // want "blocks on channel communication but never polls"
			<-b
		}
	}
}

// RunSpawner only spawns goroutines; the loop itself never parks.
//
//khuzdulvet:longrun fixture root
func RunSpawner(work chan int, n int) {
	for i := 0; i < n; i++ {
		go func() { <-work }()
	}
}

// spawnLit and spawnCall hand drain to a goroutine: the goroutine blocks on
// its own stack, so neither spawner blocks.
func spawnLit(work chan int) { go func() { drain(work) }() }

func spawnCall(work chan int) { go drain(work) }

// coldDrain blocks but is unreachable from any longrun root: no finding.
func coldDrain(work chan int) {
	for {
		<-work
	}
}

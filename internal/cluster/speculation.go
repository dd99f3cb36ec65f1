// Straggler speculation. A machine slowed by a degraded disk, a noisy
// neighbor or an injected slowdown stretches the whole run: every other
// machine finishes its partition and idles while the straggler grinds on.
// The driver samples each engine's completed-root prefix, and once idle
// survivors exist it re-executes the slowest engine's unfinished root
// suffix on one of them, served from the full in-process graph (the same
// shard-reload stand-in task recovery uses). Both copies keep running;
// whichever completes the tail first wins.
//
// Exactness is the point. Engines complete root ranges strictly in order at
// ChunkSize granularity, so the straggler's checkpoints and the speculative
// copy's checkpoints land on the same global range boundaries (the copy
// starts at a boundary p and advances by the same ChunkSize). When the copy
// finishes first, the straggler is cancelled and stops at some boundary
// q ≥ p; the slot's exact total is then
//
//	committed(straggler, q) + copy(total) − copy(q)
//
// — every root in [0, q) counted once by the straggler, every root in
// [q, total) once by the copy, regardless of when the cancellation lands.
// When the straggler finishes first (or the copy fails), the copy is
// cancelled and its counts are discarded wholesale. Either way the result
// is bit-identical to a run without speculation.
package cluster

import (
	"errors"
	"math"
	"sync"
	"time"

	"khuzdul/internal/core"
	"khuzdul/internal/graph"
)

// specTick is the monitor's sampling period. Sampling only reads per-slot
// checkpoint pairs, so the period trades reaction latency against nothing
// measurable.
const specTick = 10 * time.Millisecond

// specRun is one speculative re-execution: the straggler slot it shadows,
// the survivor hosting it, and its ledger, based at the boundary it started
// from.
type specRun struct {
	slot   int
	node   int
	ledger *ledger
	stop   *stopper
	err    error // written by the copy's goroutine; read after wg.Wait
}

// speculator is the per-run straggler speculation controller. It owns the
// monitor goroutine, the speculative engines, and the stop signal of every
// engine in the run: a main engine's is raised when its copy wins, a copy's
// when its straggler finishes first, and all of them when the caller cancels
// — a copy that kept running after the query was abandoned would go on
// fetching and extending work nobody wants.
type speculator struct {
	r       *run
	ledgers []*ledger
	roots   [][]graph.VertexID
	began   time.Time
	stops   []*stopper // each slot's main engine's stop signal

	mu    sync.Mutex
	done  []bool
	errs  []error
	specs map[int]*specRun // by straggler slot
	tried []bool           // at most one speculative copy per slot
	busy  []bool           // nodes currently hosting a copy

	quit *stopper // stops the monitor
	wg   sync.WaitGroup
}

// newSpeculator arms speculation over a run whose every slot is tracked
// (ledgers has no nil entry) and starts the monitor.
func newSpeculator(r *run, ledgers []*ledger) *speculator {
	c := r.c
	slots := len(ledgers)
	s := &speculator{
		r:       r,
		ledgers: ledgers,
		roots:   make([][]graph.VertexID, slots),
		began:   time.Now(),
		stops:   make([]*stopper, slots),
		done:    make([]bool, slots),
		errs:    make([]error, slots),
		specs:   make(map[int]*specRun),
		tried:   make([]bool, slots),
		busy:    make([]bool, c.cfg.NumNodes),
		quit:    newStopper(),
	}
	for slot := range s.stops {
		s.stops[slot] = newStopper()
		s.roots[slot] = c.rootsOf(r.fo, slot/c.cfg.Sockets, slot%c.cfg.Sockets)
	}
	s.wg.Add(1)
	go s.monitor()
	return s
}

// slotDone records a main engine's completion. Its speculative copy, if
// any, is stopped: either the straggler won the race, or the slot failed
// and task recovery (which discards speculation wholesale) takes over.
func (s *speculator) slotDone(slot int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done[slot] = true
	s.errs[slot] = err
	if sp := s.specs[slot]; sp != nil {
		sp.stop.stop()
	}
}

// monitor samples progress each tick and speculates when idle survivors and
// a straggler coexist. When the caller cancels it stops every engine of the
// run and retires: nothing is worth speculating on any more.
func (s *speculator) monitor() {
	defer s.wg.Done()
	t := time.NewTicker(specTick)
	defer t.Stop()
	for {
		select {
		case <-s.quit.ch:
			return
		case <-s.r.cancel:
			for _, st := range s.stops {
				st.stop()
			}
			s.stopCopies()
			return
		case <-t.C:
		}
		s.maybeSpeculate()
	}
}

// stopCopies stops every speculative copy launched so far.
func (s *speculator) stopCopies() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sp := range s.specs {
		sp.stop.stop()
	}
}

// maybeSpeculate launches at most one speculative copy per tick: the
// running slot with the largest estimated remaining time, on the
// lowest-numbered idle survivor.
func (s *speculator) maybeSpeculate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	idle := s.idleNodeLocked()
	if idle < 0 {
		return
	}
	elapsed := time.Since(s.began).Seconds()
	best, bestEst := -1, -1.0
	for slot := range s.ledgers {
		if s.done[slot] || s.tried[slot] {
			continue
		}
		prefix, _ := s.ledgers[slot].snapshot()
		remaining := len(s.roots[slot]) - prefix
		if remaining <= 0 {
			continue
		}
		// Estimated seconds to finish at the observed rate; a slot with no
		// completed range yet is maximally suspect.
		est := math.MaxFloat64
		if prefix > 0 && elapsed > 0 {
			est = float64(remaining) * elapsed / float64(prefix)
		}
		if est > bestEst {
			best, bestEst = slot, est
		}
	}
	if best < 0 {
		return
	}
	s.launchLocked(best, idle)
}

// idleNodeLocked returns the lowest-numbered machine whose every slot has
// finished cleanly and that is alive and not already hosting a copy, or -1.
func (s *speculator) idleNodeLocked() int {
	c := s.r.c
	for node := 0; node < c.cfg.NumNodes; node++ {
		if s.busy[node] || c.isDead(node) {
			continue
		}
		idle := true
		for sock := 0; sock < c.cfg.Sockets; sock++ {
			slot := node*c.cfg.Sockets + sock
			if !s.done[slot] || s.errs[slot] != nil {
				idle = false
				break
			}
		}
		if idle {
			return node
		}
	}
	return -1
}

// launchLocked starts one speculative copy of slot's unfinished roots on
// node. Called with s.mu held.
func (s *speculator) launchLocked(slot, node int) {
	prefix, _ := s.ledgers[slot].snapshot()
	suffix := s.roots[slot][prefix:]
	if len(suffix) == 0 {
		return
	}
	sp := &specRun{
		slot:   slot,
		node:   node,
		ledger: &ledger{sink: &core.CountSink{}, base: prefix, met: s.r.c.met.Nodes[node]},
		stop:   newStopper(),
	}
	s.specs[slot] = sp
	s.tried[slot] = true
	s.busy[node] = true
	s.wg.Add(1)
	go s.runSpec(sp, suffix)
}

// runSpec executes one speculative copy: a whole-machine task routed by the
// run's failover view (the base assignment when nobody has ever died — a
// straggler is just slow, not dead), exactly like a recovery engine. On
// clean completion it stops the straggler, which halts at its next range
// boundary, and finish reconciles the two halves.
func (s *speculator) runSpec(sp *specRun, suffix []graph.VertexID) {
	defer s.wg.Done()
	sp.err = s.r.engine(task{
		node: sp.node, socket: wholeMachine, fo: s.r.fo, roots: suffix,
		sink: sp.ledger.sink, ledger: sp.ledger, stop: sp.stop.ch,
	}).Run()
	s.mu.Lock()
	s.busy[sp.node] = false
	win := sp.err == nil && !s.done[sp.slot]
	s.mu.Unlock()
	if win {
		s.stops[sp.slot].stop()
	}
}

// finish stops the monitor, stops and drains every outstanding copy, and
// returns the per-slot count overrides for speculation wins: slots whose
// main engine was stopped by a clean speculative copy. errs is the main
// engines' outcome slice. When the run goes on to task recovery the caller
// ignores the overrides — recovery re-executes everything past each slot's
// checkpoint, which subsumes the speculative work.
func (s *speculator) finish(errs []error) map[int]uint64 {
	s.quit.stop()
	s.stopCopies()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	overrides := make(map[int]uint64)
	for slot, sp := range s.specs {
		if sp.err != nil || !errors.Is(errs[slot], core.ErrCanceled) {
			continue
		}
		q, committed := s.ledgers[slot].snapshot()
		end, okEnd := sp.ledger.at(len(s.roots[slot]))
		mid, okMid := sp.ledger.at(q)
		if !okEnd || !okMid {
			// Unreachable by construction (the straggler is only stopped
			// after the copy crossed every boundary from its base to total,
			// and q only grows); refuse the override rather than guess.
			continue
		}
		overrides[slot] = committed + end - mid
		s.r.c.met.Nodes[sp.node].SpeculationWins.Add(1)
	}
	return overrides
}

package comm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"khuzdul/internal/graph"
	"khuzdul/internal/metrics"
)

// This file adds the resilience layer over a Fabric: per-attempt deadlines,
// exponential backoff with deterministic jitter, bounded retries, and a
// circuit breaker that classifies a peer as dead after N consecutive
// timeouts. The base fabrics stay oblivious — resilience composes over any
// transport (including the fault-injecting wrapper) exactly like the flow
// control HUGE layers over its RPC substrate. Cancellation is not this
// layer's concern: an engine stops waiting for a fetch through its own stop
// channel, on every fabric alike, and a fetch nobody waits for any more runs
// on here until it succeeds, exhausts its retries, trips the breaker (at most
// BreakerThreshold timeouts) or the fabric closes.

// ErrFetchTimeout marks a fetch attempt that exceeded its deadline.
var ErrFetchTimeout = errors.New("comm: fetch timeout")

// ErrPeerDead marks a fetch addressed to a peer the circuit breaker has
// declared dead. The cluster driver treats it as a recovery trigger.
var ErrPeerDead = errors.New("comm: peer dead")

// ErrRetriesExhausted marks a fetch that failed on every allowed attempt
// without the peer being declared dead (e.g. persistent transient errors).
var ErrRetriesExhausted = errors.New("comm: retries exhausted")

// ErrFabricClosed marks a fetch abandoned because the fabric was closed
// mid-retry. It is not a peer failure: the cluster driver never enters
// recovery on it.
var ErrFabricClosed = errors.New("comm: fabric closed")

// PermanentError is implemented by errors that retrying cannot fix; the
// resilient fabric fails fast on them.
type PermanentError interface{ Permanent() bool }

// RetryConfig tunes the resilient fabric.
type RetryConfig struct {
	// Timeout bounds each fetch attempt (0 = attempts never time out).
	Timeout time.Duration
	// Retries is the number of additional attempts after the first.
	Retries int
	// Backoff is the sleep before the first retry; it doubles per attempt.
	// Default 1ms.
	Backoff time.Duration
	// MaxBackoff caps the backoff growth. Default 100ms.
	MaxBackoff time.Duration
	// BreakerThreshold is the number of consecutive timed-out attempts to one
	// peer after which it is declared dead. Default 3.
	BreakerThreshold int
	// Seed drives the deterministic backoff jitter.
	Seed int64
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.Backoff <= 0 {
		c.Backoff = time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 100 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	return c
}

// Resilient wraps a Fabric with deadlines, retries and a circuit breaker.
// It is safe for concurrent use; breaker state is shared by all callers.
type Resilient struct {
	inner Fabric
	cfg   RetryConfig
	m     *metrics.Cluster
	dead  []atomic.Bool
	// suspect, when set, contributes an external death oracle's verdicts
	// to Dead. No cluster installs one; see SetSuspector.
	suspect func(node int) bool
	// consec counts consecutive timed-out attempts per peer; any successful
	// attempt resets it.
	consec []atomic.Int64
	seq    atomic.Uint64 // jitter decision counter
	// closed unblocks every backoff wait and pending attempt when the fabric
	// shuts down, so Close never strands a caller mid-retry.
	closed    chan struct{}
	closeOnce sync.Once
}

// NewResilient returns a resilient fabric over inner for a numNodes
// cluster. m may be nil to disable accounting of retries/timeouts/trips.
func NewResilient(inner Fabric, numNodes int, cfg RetryConfig, m *metrics.Cluster) *Resilient {
	return &Resilient{
		inner:  inner,
		cfg:    cfg.withDefaults(),
		m:      m,
		dead:   make([]atomic.Bool, numNodes),
		consec: make([]atomic.Int64, numNodes),
		closed: make(chan struct{}),
	}
}

// SetSuspector installs an external death oracle, consulted alongside the
// breaker. The cluster declares peers dead by the breaker alone; this hook
// and Detector remain only for the stack probe in bench/. Call before
// sharing the fabric across goroutines.
func (r *Resilient) SetSuspector(suspect func(node int) bool) { r.suspect = suspect }

// Dead reports whether the breaker (or an installed suspector) has declared
// node dead.
func (r *Resilient) Dead(node int) bool {
	if node < 0 || node >= len(r.dead) {
		return false
	}
	return r.dead[node].Load() || (r.suspect != nil && r.suspect(node))
}

// MarkDead force-trips the breaker for node. The driver uses it to carry
// crash-injected deaths into the breaker at the start of a recovery round,
// so stray fetches from concurrent runs fail fast.
func (r *Resilient) MarkDead(node int) {
	if node >= 0 && node < len(r.dead) {
		r.dead[node].Store(true)
	}
}

// Fetch implements Fabric with the retry/deadline/breaker discipline.
// Closing the fabric interrupts backoff waits and the current attempt's
// deadline wait; the fetch then fails with ErrFabricClosed instead of
// running out its retry schedule.
func (r *Resilient) Fetch(from, to int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	if r.Dead(to) {
		return nil, fmt.Errorf("comm: fetch %d->%d: %w", from, to, ErrPeerDead)
	}
	var lastErr error
	for attempt := 0; attempt <= r.cfg.Retries; attempt++ {
		if attempt > 0 {
			if r.m != nil {
				r.m.Nodes[from].FetchRetries.Add(1)
			}
			if err := r.waitBackoff(from, to, r.backoff(attempt)); err != nil {
				return nil, err
			}
			if r.Dead(to) {
				return nil, fmt.Errorf("comm: fetch %d->%d: %w", from, to, ErrPeerDead)
			}
		}
		lists, err := r.attempt(from, to, ids)
		if err == nil {
			r.consec[to].Store(0)
			return lists, nil
		}
		lastErr = err
		var pe PermanentError
		if errors.As(err, &pe) && pe.Permanent() {
			return nil, err
		}
		if errors.Is(err, ErrFabricClosed) {
			// No retry can succeed on a closed fabric.
			return nil, err
		}
		if errors.Is(err, ErrFetchTimeout) {
			if r.m != nil {
				r.m.Nodes[from].FetchTimeouts.Add(1)
			}
			if n := r.consec[to].Add(1); n == int64(r.cfg.BreakerThreshold) {
				r.dead[to].Store(true)
				if r.m != nil {
					r.m.Nodes[from].BreakerTrips.Add(1)
				}
			}
			if r.Dead(to) {
				return nil, fmt.Errorf("comm: fetch %d->%d: breaker open after %d consecutive timeouts: %w",
					from, to, r.cfg.BreakerThreshold, ErrPeerDead)
			}
		}
	}
	return nil, fmt.Errorf("comm: fetch %d->%d failed after %d attempts: %w (last error: %v)",
		from, to, r.cfg.Retries+1, ErrRetriesExhausted, lastErr)
}

// waitBackoff blocks for the pre-retry backoff d, or until the fabric
// closes. A sleep here would strand Close for the whole backoff schedule —
// this wait is exactly the sleepban invariant's motivating case.
func (r *Resilient) waitBackoff(from, to int, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-r.closed:
		return fmt.Errorf("comm: fetch %d->%d interrupted in backoff: %w", from, to, ErrFabricClosed)
	}
}

// attempt performs one bounded fetch attempt. The inner fetch runs in its
// own goroutine so a hung transport cannot block the caller past the
// deadline; an abandoned attempt's goroutine parks until the inner fabric
// is closed.
func (r *Resilient) attempt(from, to int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	if r.cfg.Timeout <= 0 {
		return r.inner.Fetch(from, to, ids)
	}
	type result struct {
		lists [][]graph.VertexID
		err   error
	}
	ch := make(chan result, 1)
	go func() {
		lists, err := r.inner.Fetch(from, to, ids)
		ch <- result{lists, err}
	}()
	t := time.NewTimer(r.cfg.Timeout)
	defer t.Stop()
	select {
	case res := <-ch:
		return res.lists, res.err
	case <-t.C:
		return nil, fmt.Errorf("comm: fetch %d->%d exceeded %v deadline: %w",
			from, to, r.cfg.Timeout, ErrFetchTimeout)
	case <-r.closed:
		return nil, fmt.Errorf("comm: fetch %d->%d abandoned mid-attempt: %w", from, to, ErrFabricClosed)
	}
}

// backoff returns the pre-retry sleep for the given attempt: exponential
// growth capped at MaxBackoff, with deterministic jitter in [50%,100%] of
// the nominal value so synchronized retries from many workers spread out.
func (r *Resilient) backoff(attempt int) time.Duration {
	d := r.cfg.Backoff << (attempt - 1)
	if d > r.cfg.MaxBackoff || d <= 0 {
		d = r.cfg.MaxBackoff
	}
	h := retryMix(uint64(r.cfg.Seed), r.seq.Add(1))
	return d/2 + time.Duration(h%uint64(d/2+1))
}

// Ping implements Fabric by delegating to the inner transport. Pings bypass
// the retry/breaker discipline: the prober owns its own timeout and miss
// accounting.
func (r *Resilient) Ping(from, to int) error { return r.inner.Ping(from, to) }

// Close implements Fabric. It releases every caller parked in a backoff or
// deadline wait (they fail with ErrFabricClosed) before closing the inner
// transport.
func (r *Resilient) Close() error {
	r.closeOnce.Do(func() { close(r.closed) })
	return r.inner.Close()
}

// retryMix hashes the jitter decision counter with the seed.
func retryMix(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Package service implements mining-as-a-service: a resident query server
// over one Khuzdul cluster. The cluster stays up with partitions loaded and
// caches warm; concurrent clients connect over the framed TCP wire, submit
// pattern queries (named pattern, edge list, or a previously compiled
// plan), and receive streamed partial counts plus a terminal result per
// query.
//
// Five mechanisms keep a multi-tenant server honest:
//
//   - Admission control. A bounded window of concurrently executing
//     queries; submissions beyond it are rejected immediately with a
//     retryable status instead of queueing without bound.
//   - Worker budgets. Each admitted query runs with a per-socket thread
//     budget (by default the cluster's threads split across the window), so
//     one heavy 5-motif query cannot starve point lookups.
//   - Cancellation. An explicit CANCEL frame or the client's disconnect
//     closes the query's cancel channel, which stops every engine at its
//     next range or batch boundary, or at once while it waits for a remote
//     fetch, on any fabric — a canceled query releases its admission slot
//     promptly even mid-fetch.
//   - Deadlines. Each query carries an optional deadline (client-requested,
//     capped by Config.QueryDeadline); when it fires, the same cancel
//     channel closes and the query completes with QueryDeadlineExceeded.
//     The deadline bounds everything the query does, including crash
//     recovery rounds.
//   - Graceful drain. Drain stops accepting work (new submissions are
//     rejected with a retryable DRAINING status), lets in-flight queries
//     finish up to a timeout, then hard-cancels the stragglers. Every
//     query — even a hard-canceled one — receives a terminal result frame
//     before its connection is severed.
package service

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"khuzdul/internal/cluster"
	"khuzdul/internal/comm"
	"khuzdul/internal/core"
	"khuzdul/internal/metrics"
	"khuzdul/internal/plan"
)

// Config tunes the query server. The zero value listens on an ephemeral
// loopback port with a window of DefaultMaxConcurrent queries.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:0"; the actual address
	// is available from Server.Addr).
	Addr string
	// MaxConcurrent is the admission window: queries executing at once
	// across all connections (default DefaultMaxConcurrent).
	MaxConcurrent int
	// WorkerBudget is the per-socket engine thread count each query runs
	// with (default: the cluster's ThreadsPerSocket divided across the
	// admission window, at least 1).
	WorkerBudget int
	// ProgressInterval is the period between streamed partial counts
	// (default DefaultProgressInterval; negative disables streaming).
	ProgressInterval time.Duration
	// QueryDeadline caps every query's execution time. A submission's own
	// deadline is honored up to this cap; queries without one inherit it.
	// 0 means no server-side cap.
	QueryDeadline time.Duration
}

// ErrInvalidConfig marks a Config that New refuses: a negative
// MaxConcurrent, WorkerBudget or QueryDeadline.
var ErrInvalidConfig = errors.New("service: invalid config")

// Validate reports the first setting New cannot honor, wrapped around
// ErrInvalidConfig and named by its field. Zero is valid everywhere; a
// negative ProgressInterval is the documented "streaming off".
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		n    int
	}{{"MaxConcurrent", c.MaxConcurrent}, {"WorkerBudget", c.WorkerBudget}} {
		if f.n < 0 {
			return fmt.Errorf("%w: %s must not be negative, got %d", ErrInvalidConfig, f.name, f.n)
		}
	}
	if c.QueryDeadline < 0 {
		return fmt.Errorf("%w: QueryDeadline must not be negative, got %v", ErrInvalidConfig, c.QueryDeadline)
	}
	return nil
}

// Defaults for Config's zero fields.
const (
	DefaultMaxConcurrent    = 4
	DefaultProgressInterval = 25 * time.Millisecond
)

// DefaultIOTimeout bounds the server's handshake and each frame write to a
// client, so a stalled client cannot pin a query goroutine; Dial uses it
// when given no timeout.
const DefaultIOTimeout = 10 * time.Second

// Server is a running query service over one resident cluster.
type Server struct {
	cl  *cluster.Cluster
	cfg Config
	reg *registry
	met *metrics.Service
	ln  net.Listener
	// admit is the admission window: a token held per executing query.
	admit  chan struct{}
	budget int
	nslots int // NumNodes × Sockets, for progress-sink preallocation

	mu sync.Mutex
	// conns maps each live connection to its query state (nil until the
	// handshake completes); Drain's hard-cancel walks the states.
	conns    map[net.Conn]*connState
	draining bool

	// qwg counts in-flight queries (one ticket per admitted submission,
	// reserved under mu so Drain's wait cannot race a new admit).
	qwg sync.WaitGroup
	// drainKill is set when Drain gives up waiting and hard-cancels;
	// queries canceled after that report a DRAINING detail.
	drainKill atomic.Bool

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
	drainOnce sync.Once
	drainDone chan struct{}
	drainErr  error
}

// New starts a query server over cl. The cluster must outlive the server
// and must not have speculation enabled — speculation assumes it owns the
// whole cluster per run, while the service schedules queries itself.
func New(cl *cluster.Cluster, cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ccfg := cl.Config()
	if ccfg.Speculate {
		return nil, errors.New("service: clusters with Speculate are not servable; the service schedules queries itself")
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = DefaultMaxConcurrent
	}
	if cfg.ProgressInterval == 0 {
		cfg.ProgressInterval = DefaultProgressInterval
	}
	budget := cfg.WorkerBudget
	if budget <= 0 {
		budget = ccfg.ThreadsPerSocket / cfg.MaxConcurrent
		if budget < 1 {
			budget = 1
		}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("service: listen: %w", err)
	}
	s := &Server{
		cl:        cl,
		cfg:       cfg,
		reg:       newRegistry(cl.Graph()),
		met:       &metrics.Service{},
		ln:        ln,
		admit:     make(chan struct{}, cfg.MaxConcurrent),
		budget:    budget,
		nslots:    ccfg.NumNodes * ccfg.Sockets,
		conns:     make(map[net.Conn]*connState),
		closed:    make(chan struct{}),
		drainDone: make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's actual listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Metrics returns the live service counters.
func (s *Server) Metrics() *metrics.Service { return s.met }

// SummaryLine renders the service counters in the CLI summary style.
func (s *Server) SummaryLine() string { return s.met.SummaryLine() }

// Close shuts the server down immediately: it is Drain with a zero
// timeout, so in-flight queries are hard-canceled right away — but each
// still receives its terminal result frame (QueryCanceled with a DRAINING
// detail) before its connection is severed, and all server goroutines are
// joined before Close returns.
func (s *Server) Close() error { return s.Drain(0) }

// Drain shuts the server down gracefully: stop accepting connections,
// reject new submissions with a retryable DRAINING status, wait up to
// timeout for in-flight queries to finish, then hard-cancel whatever is
// left. Hard-canceled queries still get a terminal result frame before
// their connections are severed. Drain is idempotent — concurrent and
// repeated calls share one shutdown and all block until it completes; the
// first call's timeout wins.
func (s *Server) Drain(timeout time.Duration) error {
	s.drainOnce.Do(func() {
		s.drainErr = s.drain(timeout)
		close(s.drainDone)
	})
	<-s.drainDone
	return s.drainErr
}

func (s *Server) drain(timeout time.Duration) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	err := s.ln.Close()

	// Let in-flight queries finish on their own, up to the timeout. The
	// dispatch loops stay alive during the wait so clients can still cancel
	// their queries and probe health.
	finished := make(chan struct{})
	go func() {
		s.qwg.Wait()
		close(finished)
	}()
	graceful := timeout > 0
	if graceful {
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case <-finished:
		case <-t.C:
			graceful = false
		}
	}
	if !graceful {
		// Hard-cancel the stragglers. Their runQuery goroutines observe the
		// cancel at the next range boundary, write the terminal result frame,
		// and only then release their qwg ticket — so waiting on qwg below
		// guarantees every client saw a final status before we sever.
		s.drainKill.Store(true)
		s.mu.Lock()
		for _, st := range s.conns {
			if st != nil {
				st.cancelAll()
			}
		}
		s.mu.Unlock()
		<-finished
	}

	s.closeOnce.Do(func() { close(s.closed) })
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// acceptLoop admits client connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			// Listener closed (Close) or a fatal accept error; either way
			// the server stops admitting.
			return
		}
		s.mu.Lock()
		if s.draining || chanClosed(s.closed) {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = nil
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// chanClosed reports whether the cancel/close signal has fired.
func chanClosed(closed <-chan struct{}) bool {
	select {
	case <-closed:
		return true
	default:
		return false
	}
}

// connState tracks one client connection's in-flight queries: the cancel
// channel per active query ID plus the join group for its query goroutines.
type connState struct {
	qc *comm.QueryConn
	wg sync.WaitGroup

	mu     sync.Mutex
	active map[uint32]chan struct{}
}

// begin registers a query and returns its cancel channel, or false when the
// ID is already in flight on this connection.
func (st *connState) begin(id uint32) (chan struct{}, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.active[id]; dup {
		return nil, false
	}
	ch := make(chan struct{})
	st.active[id] = ch
	return ch, true
}

// cancelQuery closes one query's cancel channel (idempotent: an already
// finished or canceled ID is a no-op).
func (st *connState) cancelQuery(id uint32) bool {
	st.mu.Lock()
	ch, ok := st.active[id]
	delete(st.active, id)
	st.mu.Unlock()
	if ok {
		close(ch)
	}
	return ok
}

// finish retires a completed query's registration.
func (st *connState) finish(id uint32) {
	st.mu.Lock()
	delete(st.active, id)
	st.mu.Unlock()
}

// cancelAll aborts every in-flight query (client disconnect, server close).
func (st *connState) cancelAll() {
	st.mu.Lock()
	for id, ch := range st.active {
		close(ch)
		delete(st.active, id)
	}
	st.mu.Unlock()
}

// serveConn runs one client connection: handshake, then the dispatch loop
// reading submissions and cancels until the client disconnects. Disconnect
// — deliberate or not — cancels every query the connection still has in
// flight: results would have nowhere to go.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	defer c.Close()
	qc, err := comm.AcceptQuery(c, DefaultIOTimeout)
	if err != nil {
		return
	}
	st := &connState{qc: qc, active: make(map[uint32]chan struct{})}
	s.mu.Lock()
	if _, live := s.conns[c]; live {
		s.conns[c] = st
	}
	s.mu.Unlock()
dispatch:
	for {
		if chanClosed(s.closed) {
			break
		}
		msg, err := qc.ReadMsg()
		if err != nil {
			break
		}
		switch m := msg.(type) {
		case *comm.QuerySubmit:
			s.submit(st, m)
		case *comm.QueryCancel:
			st.cancelQuery(m.ID)
		case *comm.QueryHealthProbe:
			h := s.Health()
			qc.WriteHealth(h.wire())
		default:
			// Clients must not send server-side frames; the connection's
			// framing discipline is broken, so drop it.
			break dispatch
		}
	}
	st.cancelAll()
	st.wg.Wait()
}

// submit applies admission control to one submission and, if admitted,
// launches its query goroutine. Called from the connection's dispatch
// goroutine, so per-connection submission order is preserved.
func (s *Server) submit(st *connState, sub *comm.QuerySubmit) {
	s.met.QueriesSubmitted.Add(1)
	// Reserve the drain ticket under mu: once Drain sets draining it can
	// wait on qwg knowing no further tickets will appear.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.met.QueriesRejected.Add(1)
		st.qc.WriteResult(&comm.QueryResult{
			ID:     sub.ID,
			Status: comm.QueryRejected,
			Detail: "DRAINING: server is shutting down; retry on another replica",
		})
		return
	}
	s.qwg.Add(1)
	s.mu.Unlock()
	launched := false
	defer func() {
		if !launched {
			s.qwg.Done()
		}
	}()
	select {
	case s.admit <- struct{}{}:
	default:
		s.met.QueriesRejected.Add(1)
		st.qc.WriteResult(&comm.QueryResult{
			ID:     sub.ID,
			Status: comm.QueryRejected,
			Detail: fmt.Sprintf("admission window full (%d queries executing); retry after a result returns", s.cfg.MaxConcurrent),
		})
		return
	}
	cancel, ok := st.begin(sub.ID)
	if !ok {
		<-s.admit
		s.met.QueriesFailed.Add(1)
		st.qc.WriteResult(&comm.QueryResult{
			ID:     sub.ID,
			Status: comm.QueryFailed,
			Detail: fmt.Sprintf("query id %d is already in flight on this connection", sub.ID),
		})
		return
	}
	launched = true
	st.wg.Add(1)
	sub2 := *sub
	go s.runQuery(st, &sub2, cancel)
}

// deadlineFor resolves one submission's effective deadline: the client's
// request, capped by the server-side Config.QueryDeadline (which also
// applies to queries that asked for none). 0 means unbounded.
func (s *Server) deadlineFor(sub *comm.QuerySubmit) time.Duration {
	d := sub.Deadline
	if s.cfg.QueryDeadline > 0 && (d == 0 || d > s.cfg.QueryDeadline) {
		d = s.cfg.QueryDeadline
	}
	return d
}

// runQuery executes one admitted query end to end and delivers its terminal
// result. The query's admission token, its ActiveQueries count and its
// connection registration are all released before the result frame is
// written, so a client that resubmits the moment a result arrives finds the
// slot free (and may reuse the query ID). The qwg ticket is released only
// after the write, so Drain can guarantee clients a final status.
func (s *Server) runQuery(st *connState, sub *comm.QuerySubmit, cancel chan struct{}) {
	defer s.qwg.Done()
	defer st.wg.Done()
	cur := s.met.ActiveQueries.Add(1)
	if cur > 0 {
		s.met.RecordActivePeak(uint64(cur))
	}
	res := s.execute(st, sub, cancel)
	st.finish(sub.ID)
	s.met.ActiveQueries.Add(-1)
	<-s.admit
	st.qc.WriteResult(res)
}

// execute resolves the plan, arms the deadline, streams progress while the
// cluster runs it under this query's cancel channel and worker budget, and
// returns the terminal result.
func (s *Server) execute(st *connState, sub *comm.QuerySubmit, cancel chan struct{}) *comm.QueryResult {
	// The deadline covers the query's whole server-side life — plan
	// resolution, execution, and any crash-recovery rounds it triggers.
	var deadlined atomic.Bool
	deadline := s.deadlineFor(sub)
	if deadline > 0 {
		tm := time.AfterFunc(deadline, func() {
			deadlined.Store(true)
			st.cancelQuery(sub.ID)
		})
		defer tm.Stop()
	}

	// canceled classifies a cancellation after the fact: the deadline
	// fired, drain hard-canceled us, or the client asked.
	canceled := func(planID uint32, elapsed time.Duration) *comm.QueryResult {
		switch {
		case deadlined.Load():
			s.met.QueriesDeadlineExceeded.Add(1)
			return &comm.QueryResult{
				ID: sub.ID, Status: comm.QueryDeadlineExceeded, PlanID: planID,
				Elapsed: elapsed, Detail: fmt.Sprintf("deadline %v exceeded", deadline),
			}
		case s.drainKill.Load():
			s.met.QueriesCanceled.Add(1)
			return &comm.QueryResult{
				ID: sub.ID, Status: comm.QueryCanceled, PlanID: planID,
				Elapsed: elapsed, Detail: "DRAINING: hard-canceled at drain timeout",
			}
		default:
			s.met.QueriesCanceled.Add(1)
			return &comm.QueryResult{
				ID: sub.ID, Status: comm.QueryCanceled, PlanID: planID, Elapsed: elapsed,
			}
		}
	}

	planID, pl, err := s.reg.resolve(sub)
	if err != nil {
		s.met.QueriesFailed.Add(1)
		return &comm.QueryResult{ID: sub.ID, Status: comm.QueryFailed, Detail: err.Error()}
	}
	if chanClosed(cancel) {
		return canceled(planID, 0)
	}

	start := time.Now()
	res, runErr := s.runPlan(st, sub.ID, pl, cancel)
	elapsed := time.Since(start)
	s.met.AddQueryDuration(elapsed)
	switch {
	case runErr == nil:
		s.met.QueriesOK.Add(1)
		return &comm.QueryResult{
			ID: sub.ID, Status: comm.QueryOK, PlanID: planID,
			Count: res.Count, Elapsed: elapsed,
		}
	case errors.Is(runErr, cluster.ErrRunCanceled):
		return canceled(planID, elapsed)
	default:
		s.met.QueriesFailed.Add(1)
		return &comm.QueryResult{
			ID: sub.ID, Status: comm.QueryFailed, PlanID: planID,
			Elapsed: elapsed, Detail: runErr.Error(),
		}
	}
}

// runPlan executes pl on the resident cluster with this query's budget and
// cancel channel, streaming partial counts while it runs. Sinks are
// preallocated per (node, socket) slot so the progress goroutine can read
// their atomic counters concurrently with the run.
func (s *Server) runPlan(st *connState, id uint32, pl *plan.Plan, cancel <-chan struct{}) (cluster.Result, error) {
	sinks := make([]*core.CountSink, s.nslots)
	for i := range sinks {
		sinks[i] = &core.CountSink{}
	}
	sockets := s.cl.Config().Sockets
	factory := func(node, socket int) core.Sink { return sinks[node*sockets+socket] }

	done := make(chan struct{})
	var pwg sync.WaitGroup
	if s.cfg.ProgressInterval > 0 {
		pwg.Add(1)
		go s.streamProgress(st, id, sinks, cancel, done, &pwg)
	}
	res, err := s.cl.RunWith(pl, factory, cluster.RunOpts{
		Cancel:           cancel,
		ThreadsPerSocket: s.budget,
		KeepMetrics:      true,
	})
	close(done)
	pwg.Wait()
	return res, err
}

// Health is a point-in-time snapshot of the server's fitness to serve:
// whether it is draining, how loaded its admission window is, lifetime
// counters, and which cluster nodes are currently suspected dead.
type Health struct {
	// Draining reports an in-progress graceful shutdown; new submissions
	// are being rejected with a retryable DRAINING status.
	Draining bool
	// ActiveQueries is the number of queries executing right now.
	ActiveQueries int
	// Window is the admission window (Config.MaxConcurrent).
	Window int
	// Submitted and DeadlineExceeded are lifetime counters.
	Submitted        uint64
	DeadlineExceeded uint64
	// SuspectNodes lists cluster nodes currently suspected dead (breaker
	// declared or crash-injected), ascending. Queries keep completing —
	// the cluster re-partitions dead shards onto survivors — but counts
	// here persisting across probes mean degraded capacity.
	SuspectNodes []int
}

// Health snapshots the server's current fitness.
func (s *Server) Health() Health {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	active := s.met.ActiveQueries.Load()
	if active < 0 {
		active = 0
	}
	return Health{
		Draining:         draining,
		ActiveQueries:    int(active),
		Window:           s.cfg.MaxConcurrent,
		Submitted:        s.met.QueriesSubmitted.Load(),
		DeadlineExceeded: s.met.QueriesDeadlineExceeded.Load(),
		SuspectNodes:     s.cl.DeadNodes(),
	}
}

// wire renders the snapshot as its QUERY_HEALTH payload.
func (h Health) wire() *comm.QueryHealth {
	suspects := make([]uint32, len(h.SuspectNodes))
	for i, n := range h.SuspectNodes {
		suspects[i] = uint32(n)
	}
	return &comm.QueryHealth{
		Draining:         h.Draining,
		ActiveQueries:    uint32(h.ActiveQueries),
		Window:           uint32(h.Window),
		Submitted:        h.Submitted,
		DeadlineExceeded: h.DeadlineExceeded,
		Suspects:         suspects,
	}
}

// fromWire converts a received QUERY_HEALTH payload back to a snapshot.
func healthFromWire(w *comm.QueryHealth) Health {
	suspects := make([]int, len(w.Suspects))
	for i, n := range w.Suspects {
		suspects[i] = int(n)
	}
	return Health{
		Draining:         w.Draining,
		ActiveQueries:    int(w.ActiveQueries),
		Window:           int(w.Window),
		Submitted:        w.Submitted,
		DeadlineExceeded: w.DeadlineExceeded,
		SuspectNodes:     suspects,
	}
}

// streamProgress periodically sums the query's sink counters and streams
// the partial count to the client, until the run finishes or the query is
// canceled.
func (s *Server) streamProgress(st *connState, id uint32, sinks []*core.CountSink, cancel <-chan struct{}, done <-chan struct{}, pwg *sync.WaitGroup) {
	defer pwg.Done()
	t := time.NewTicker(s.cfg.ProgressInterval)
	defer t.Stop()
	last := ^uint64(0)
	for {
		select {
		case <-done:
			return
		case <-cancel:
			return
		case <-t.C:
			var partial uint64
			for _, cs := range sinks {
				partial += cs.Count()
			}
			if partial == last {
				continue
			}
			last = partial
			// Write errors mean the client is gone; the dispatch loop will
			// notice and cancel the query.
			st.qc.WriteProgress(&comm.QueryProgress{ID: id, Partial: partial})
		}
	}
}

package service

import (
	"errors"
	"strings"
	"testing"
	"time"

	"khuzdul/internal/apps"
	"khuzdul/internal/comm"
	"khuzdul/internal/leakcheck"
)

// TestDrainRejectsNewSubmits: once Drain starts, new submissions bounce
// with the retryable DRAINING status while the in-flight query keeps
// running; the drain completes when the in-flight query is canceled.
func TestDrainRejectsNewSubmits(t *testing.T) {
	leakcheck.Check(t)
	_, srv := newTestServer(t, slowClusterConfig(t, "10ms"), Config{
		MaxConcurrent: 2,
		WorkerBudget:  1,
	})
	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	q, err := cli.Submit(Spec{Pattern: "K4"})
	if err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	waitFor(t, 10*time.Second, "the query to start executing", func() bool {
		return m.ActiveQueries.Load() == 1
	})

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(30 * time.Second) }()
	waitFor(t, 10*time.Second, "the server to enter draining state", func() bool {
		return srv.Health().Draining
	})

	out, err := cli.Run(Spec{Pattern: "triangle"})
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: err %v (outcome %+v), want ErrDraining", err, out)
	}
	if out.Status != comm.QueryRejected {
		t.Fatalf("submit during drain: status %d, want QueryRejected", out.Status)
	}

	// The in-flight query is still being served; release it and the drain
	// finishes gracefully.
	if err := q.Cancel(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Result(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled in-flight query: %v, want ErrCanceled", err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestDrainWaitsForInflight: a drain with headroom lets the running query
// finish and deliver its exact count before connections are severed.
func TestDrainWaitsForInflight(t *testing.T) {
	leakcheck.Check(t)
	want := oneShotCount(t, Spec{Pattern: "triangle"})
	_, srv := newTestServer(t, fastClusterConfig(), Config{})
	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	q, err := cli.Submit(Spec{Pattern: "triangle"})
	if err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	waitFor(t, 10*time.Second, "the query to be admitted", func() bool {
		return m.ActiveQueries.Load() == 1 || m.QueriesOK.Load() == 1
	})
	if err := srv.Drain(30 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	out, err := q.Result()
	if err != nil {
		t.Fatalf("query across graceful drain: %v", err)
	}
	if out.Count != want {
		t.Fatalf("count across graceful drain = %d, want %d", out.Count, want)
	}
	if n := m.QueriesOK.Load(); n != 1 {
		t.Fatalf("QueriesOK = %d, want 1", n)
	}
}

// TestDrainHardCancelSendsFinalFrame: when the drain timeout expires, the
// straggler is hard-canceled — but the client still receives a terminal
// result frame carrying the DRAINING detail, not a bare connection reset.
func TestDrainHardCancelSendsFinalFrame(t *testing.T) {
	leakcheck.Check(t)
	_, srv := newTestServer(t, slowClusterConfig(t, "25ms"), Config{
		MaxConcurrent:    1,
		WorkerBudget:     1,
		ProgressInterval: 5 * time.Millisecond,
	})
	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	q, err := cli.Submit(Spec{Pattern: "K4"})
	if err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	waitFor(t, 10*time.Second, "the query to start executing", func() bool {
		return m.ActiveQueries.Load() == 1
	})
	select {
	case <-q.Progress():
	case <-time.After(10 * time.Second):
		t.Fatal("no progress streamed within 10s")
	}

	if err := srv.Drain(20 * time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}
	out, err := q.Result()
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("hard-canceled query: err %v (outcome %+v), want ErrDraining via a final frame", err, out)
	}
	if out.Status != comm.QueryCanceled {
		t.Fatalf("hard-canceled query status %d, want QueryCanceled", out.Status)
	}
	if !strings.HasPrefix(out.Detail, drainingPrefix) {
		t.Fatalf("hard-canceled query detail %q, want a %s prefix", out.Detail, drainingPrefix)
	}
	if n := m.QueriesCanceled.Load(); n != 1 {
		t.Fatalf("QueriesCanceled = %d, want 1", n)
	}
}

// TestCloseIsDrainZero: Close hard-cancels immediately but each in-flight
// query still gets a terminal frame, and repeated Close calls are safe.
func TestCloseIsDrainZero(t *testing.T) {
	leakcheck.Check(t)
	_, srv := newTestServer(t, slowClusterConfig(t, "25ms"), Config{
		MaxConcurrent: 1,
		WorkerBudget:  1,
	})
	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	q, err := cli.Submit(Spec{Pattern: "K4"})
	if err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	waitFor(t, 10*time.Second, "the query to start executing", func() bool {
		return m.ActiveQueries.Load() == 1
	})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	out, err := q.Result()
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("query across Close: err %v (outcome %+v), want ErrDraining via a final frame", err, out)
	}
	if out.Status != comm.QueryCanceled {
		t.Fatalf("query across Close: status %d, want QueryCanceled", out.Status)
	}
}

// TestQueryDeadlineExceeded: a query whose client deadline fires mid-run
// completes with the dedicated deadline status — promptly, not after the
// multi-second fetch schedule it would otherwise run.
func TestQueryDeadlineExceeded(t *testing.T) {
	leakcheck.Check(t)
	_, srv := newTestServer(t, slowClusterConfig(t, "25ms"), Config{
		MaxConcurrent: 1,
		WorkerBudget:  1,
	})
	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const deadline = 150 * time.Millisecond
	start := time.Now()
	out, err := cli.Run(Spec{Pattern: "K4", Deadline: deadline})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("deadline query: err %v (outcome %+v), want ErrDeadlineExceeded", err, out)
	}
	if out.Status != comm.QueryDeadlineExceeded {
		t.Fatalf("deadline query status %d, want QueryDeadlineExceeded", out.Status)
	}
	// The cancellation must actually cut the run short: well under the
	// multi-second uncanceled schedule, with slack for a range boundary.
	if elapsed > deadline+5*time.Second {
		t.Fatalf("deadline query returned after %v, deadline %v", elapsed, deadline)
	}
	m := srv.Metrics()
	if n := m.QueriesDeadlineExceeded.Load(); n != 1 {
		t.Fatalf("QueriesDeadlineExceeded = %d, want 1", n)
	}
	if n := m.QueriesCanceled.Load(); n != 0 {
		t.Fatalf("QueriesCanceled = %d, want 0 (deadline has its own status)", n)
	}
}

// TestGraphPiCliqueWithinDeadline: compiling runs after admission and no
// deadline can interrupt it, so a GraphPi compile must itself be bounded —
// a K8 query completes well inside its deadline instead of holding an
// admission slot through a factorial order search.
func TestGraphPiCliqueWithinDeadline(t *testing.T) {
	leakcheck.Check(t)
	_, srv := newTestServer(t, fastClusterConfig(), Config{MaxConcurrent: 1, WorkerBudget: 1})
	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const deadline = 5 * time.Second
	start := time.Now()
	out, err := cli.Run(Spec{Pattern: "K8", System: apps.KGraphPi, Deadline: deadline})
	if err != nil {
		t.Fatalf("K8 GraphPi query: err %v (outcome %+v)", err, out)
	}
	if elapsed := time.Since(start); elapsed > deadline {
		t.Fatalf("K8 GraphPi query returned after %v, deadline %v", elapsed, deadline)
	}
}

// TestServerDeadlineCap: Config.QueryDeadline bounds queries that asked
// for no deadline at all, and caps ones that asked for more.
func TestServerDeadlineCap(t *testing.T) {
	leakcheck.Check(t)
	_, srv := newTestServer(t, slowClusterConfig(t, "25ms"), Config{
		MaxConcurrent: 1,
		WorkerBudget:  1,
		QueryDeadline: 150 * time.Millisecond,
	})
	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// No client deadline: the server cap applies.
	if _, err := cli.Run(Spec{Pattern: "K4"}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("capped query: %v, want ErrDeadlineExceeded", err)
	}
	// A client deadline beyond the cap is clamped to it.
	if _, err := cli.Run(Spec{Pattern: "K4", Deadline: time.Hour}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("over-cap query: %v, want ErrDeadlineExceeded", err)
	}
	if n := srv.Metrics().QueriesDeadlineExceeded.Load(); n != 2 {
		t.Fatalf("QueriesDeadlineExceeded = %d, want 2", n)
	}
}

// TestReusedIDOutlivesFinishedDeadline: a query's deadline belongs to that
// query alone. Once the query has finished, its deadline must not cancel a
// later query that reuses its ID on the same connection — the server's
// deadline timer has to be stopped when execute returns, not left to fire.
func TestReusedIDOutlivesFinishedDeadline(t *testing.T) {
	leakcheck.Check(t)
	_, srv := newTestServer(t, slowClusterConfig(t, "200ms"), Config{MaxConcurrent: 1, WorkerBudget: 1})
	qc, err := comm.DialQuery(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	results := make(chan *comm.QueryResult, 4)
	go func() {
		for {
			msg, err := qc.ReadMsg()
			if err != nil {
				return // the deferred Close ends the reader
			}
			if r, ok := msg.(*comm.QueryResult); ok {
				results <- r
			}
		}
	}()
	result := func(what string) *comm.QueryResult {
		t.Helper()
		select {
		case r := <-results:
			return r
		case <-time.After(10 * time.Second):
			t.Fatalf("no result for %s", what)
			return nil
		}
	}

	const id = 7
	if err := qc.WriteSubmit(&comm.QuerySubmit{ID: id, Spec: "K4", Deadline: 300 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := qc.WriteCancel(id); err != nil {
		t.Fatal(err)
	}
	if r := result("the first query"); r.ID != id {
		t.Fatalf("first result for query %d, want %d", r.ID, id)
	}

	// The same ID again, with no deadline: only its own cancel may end it.
	// Uncanceled, K4 runs for seconds under this latency; the first query's
	// deadline would fall inside the wait below.
	if err := qc.WriteSubmit(&comm.QuerySubmit{ID: id, Spec: "K4"}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-results:
		t.Fatalf("reused ID ended early: status %d (%s); the finished query's deadline fired into it", r.Status, r.Detail)
	case <-time.After(time.Second):
	}
	if err := qc.WriteCancel(id); err != nil {
		t.Fatal(err)
	}
	if r := result("the reused ID"); r.Status != comm.QueryCanceled {
		t.Fatalf("reused ID ended with status %d (%s), want QueryCanceled", r.Status, r.Detail)
	}
}

// TestSequentialSubmitsAdmitted: a client that waits for each result before
// submitting again is never refused at MaxConcurrent 1 — the admission token
// is back in the window before the result frame reaches the client.
func TestSequentialSubmitsAdmitted(t *testing.T) {
	leakcheck.Check(t)
	_, srv := newTestServer(t, fastClusterConfig(), Config{MaxConcurrent: 1, WorkerBudget: 1})
	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const runs = 300
	for i := 0; i < runs; i++ {
		if out, err := cli.Run(Spec{Pattern: "triangle"}); err != nil {
			t.Fatalf("run %d of %d: err %v (outcome %+v), want admitted", i+1, runs, err, out)
		}
	}
	m := srv.Metrics()
	if n := m.QueriesRejected.Load(); n != 0 {
		t.Fatalf("QueriesRejected = %d, want 0", n)
	}
	if n := m.ActiveQueries.Load(); n != 0 {
		t.Fatalf("ActiveQueries = %d after every result returned, want 0", n)
	}
}

// TestHealthProbe: the health frame reports drain state and load over the
// same connection queries use.
func TestHealthProbe(t *testing.T) {
	leakcheck.Check(t)
	_, srv := newTestServer(t, slowClusterConfig(t, "10ms"), Config{
		MaxConcurrent: 3,
		WorkerBudget:  1,
	})
	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	h, err := cli.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Draining || h.ActiveQueries != 0 || h.Window != 3 || len(h.SuspectNodes) != 0 {
		t.Fatalf("idle health = %+v, want not draining, 0 active, window 3, no suspects", h)
	}

	q, err := cli.Submit(Spec{Pattern: "K4"})
	if err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	waitFor(t, 10*time.Second, "the query to start executing", func() bool {
		return m.ActiveQueries.Load() == 1
	})
	h, err = cli.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.ActiveQueries != 1 || h.Submitted == 0 {
		t.Fatalf("busy health = %+v, want 1 active and nonzero submitted", h)
	}
	if err := q.Cancel(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Result(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled query: %v, want ErrCanceled", err)
	}
}

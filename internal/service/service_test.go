package service

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"khuzdul/internal/apps"
	"khuzdul/internal/cluster"
	"khuzdul/internal/comm"
	"khuzdul/internal/fault"
	"khuzdul/internal/graph"
	"khuzdul/internal/leakcheck"
	"khuzdul/internal/pattern"
)

// testGraph is the shared input for service tests: big enough that remote
// fetches happen, small enough for CI.
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.RMATDefault(400, 1600, 7)
}

// fastClusterConfig is a healthy 3-node TCP cluster with shared caches —
// the resident-server shape.
func fastClusterConfig() cluster.Config {
	return cluster.Config{
		NumNodes:         3,
		ThreadsPerSocket: 2,
		Transport:        cluster.TransportTCP,
		CacheFraction:    0.1,
		SharedCache:      true,
	}
}

// slowClusterConfig injects deterministic per-fetch latency and shrinks the
// chunk size so every query crosses many fetch batches — long enough to
// observe admission and cancellation mid-run, bounded enough for CI. The
// generous FetchTimeout keeps the injected latency from tripping the
// resilience layer's deadlines.
func slowClusterConfig(t *testing.T, maxLatency string) cluster.Config {
	t.Helper()
	prof, err := fault.ParseProfile("seed=11,latency=" + maxLatency)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastClusterConfig()
	cfg.ChunkSize = 8
	cfg.Fault = prof
	cfg.FetchTimeout = 10 * time.Second
	cfg.FetchRetries = 1
	return cfg
}

func newTestServer(t *testing.T, ccfg cluster.Config, scfg Config) (*cluster.Cluster, *Server) {
	t.Helper()
	cl, err := cluster.New(testGraph(t), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cl, scfg)
	if err != nil {
		cl.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		cl.Close()
	})
	return cl, srv
}

// oneShotCount runs spec the pre-service way: a dedicated Cluster.Count on
// a fresh cluster, the baseline the service's answers must match exactly.
func oneShotCount(t *testing.T, spec Spec) uint64 {
	t.Helper()
	g := testGraph(t)
	cl, err := cluster.New(g, cluster.Config{NumNodes: 3, ThreadsPerSocket: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pat, err := pattern.Parse(spec.Pattern)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := apps.Compile(spec.System, pat, g, apps.CompileOptions{Induced: spec.Induced})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Count(pl)
	if err != nil {
		t.Fatal(err)
	}
	return res.Count
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestConcurrentQueriesMatchOneShot is the tentpole's correctness check: a
// resident server answers 8 concurrent pattern queries over the TCP mux
// fabric, and every count is bit-identical to a one-shot Cluster.Count of
// the same pattern.
func TestConcurrentQueriesMatchOneShot(t *testing.T) {
	leakcheck.Check(t)
	specs := []Spec{
		{Pattern: "triangle"},
		{Pattern: "K4"},
		{Pattern: "3:0-1,1-2"},
		{Pattern: "4:0-1,1-2,2-3,3-0"},
		{Pattern: "triangle", System: apps.KAutomine},
		{Pattern: "house", Induced: true},
		{Pattern: "tailed-triangle"},
		{Pattern: "K4", Induced: true},
	}
	want := make([]uint64, len(specs))
	for i, s := range specs {
		want[i] = oneShotCount(t, s)
	}

	_, srv := newTestServer(t, fastClusterConfig(), Config{MaxConcurrent: len(specs)})
	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	got := make([]uint64, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func(i int, s Spec) {
			defer wg.Done()
			out, err := cli.Run(s)
			got[i], errs[i] = out.Count, err
		}(i, s)
	}
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("query %q: %v", specs[i].Pattern, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("query %q: served count %d, one-shot count %d", specs[i].Pattern, got[i], want[i])
		}
	}
	m := srv.Metrics()
	if n := m.QueriesOK.Load(); n != uint64(len(specs)) {
		t.Errorf("QueriesOK = %d, want %d", n, len(specs))
	}
	if m.ActiveQueryPeak.Load() == 0 {
		t.Error("ActiveQueryPeak stayed 0 despite concurrent queries")
	}
}

// TestOverlappingQueriesTwoClients checks interleaving across separate
// connections: two overlapping queries return the same counts as serial
// runs.
func TestOverlappingQueriesTwoClients(t *testing.T) {
	leakcheck.Check(t)
	wantTri := oneShotCount(t, Spec{Pattern: "triangle"})
	wantK4 := oneShotCount(t, Spec{Pattern: "K4"})

	_, srv := newTestServer(t, fastClusterConfig(), Config{MaxConcurrent: 2})
	c1, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	q1, err := c1.Submit(Spec{Pattern: "triangle"})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := c2.Submit(Spec{Pattern: "K4"})
	if err != nil {
		t.Fatal(err)
	}
	out1, err1 := q1.Result()
	out2, err2 := q2.Result()
	if err1 != nil || err2 != nil {
		t.Fatalf("results: %v, %v", err1, err2)
	}
	if out1.Count != wantTri || out2.Count != wantK4 {
		t.Fatalf("counts (%d, %d), want (%d, %d)", out1.Count, out2.Count, wantTri, wantK4)
	}
}

// TestAdmissionRejection: with a window of one, a second submission is
// bounced with the retryable rejection status while the first still runs —
// and succeeds when retried after the window frees.
func TestAdmissionRejection(t *testing.T) {
	leakcheck.Check(t)
	_, srv := newTestServer(t, slowClusterConfig(t, "10ms"), Config{
		MaxConcurrent: 1,
		WorkerBudget:  1,
	})
	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	q1, err := cli.Submit(Spec{Pattern: "K4"})
	if err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	waitFor(t, 10*time.Second, "query 1 to start executing", func() bool {
		return m.ActiveQueries.Load() == 1
	})

	out, err := cli.Run(Spec{Pattern: "triangle"})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("second query: err %v (outcome %+v), want ErrRejected", err, out)
	}
	if out.Status != comm.QueryRejected {
		t.Fatalf("second query status %d, want QueryRejected", out.Status)
	}
	if m.QueriesRejected.Load() != 1 {
		t.Fatalf("QueriesRejected = %d, want 1", m.QueriesRejected.Load())
	}

	// Abort the hog and verify a retry is admitted once the window frees.
	if err := q1.Cancel(); err != nil {
		t.Fatal(err)
	}
	if _, err := q1.Result(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled query: %v, want ErrCanceled", err)
	}
	waitFor(t, 10*time.Second, "the admission window to free", func() bool {
		return m.ActiveQueries.Load() == 0
	})
	var retried Outcome
	waitFor(t, 10*time.Second, "the retried query to be admitted", func() bool {
		out, err := cli.Run(Spec{Pattern: "triangle"})
		if errors.Is(err, ErrRejected) {
			return false
		}
		if err != nil {
			t.Fatal(err)
		}
		retried = out
		return true
	})
	if want := oneShotCount(t, Spec{Pattern: "triangle"}); retried.Count != want {
		t.Fatalf("retried count %d, want %d", retried.Count, want)
	}
}

// TestDisconnectCancelsMidRange is the cancellation-plumbing proof: a
// client disconnect mid-run must abort the query — mid-range, abandoning
// in-flight remote fetches — long before the run could finish on its own.
// Against a build without the cancel wiring (RunOpts.Cancel ignored), the
// query keeps executing its multi-second fetch schedule and completes as
// QueriesOK, so the canceled-counter wait below times out and the test
// fails.
func TestDisconnectCancelsMidRange(t *testing.T) {
	leakcheck.Check(t)
	// ~25ms injected latency per fetch across hundreds of small-chunk fetch
	// batches puts the uncanceled run's duration far beyond the 5s bound the
	// canceled query must meet.
	_, srv := newTestServer(t, slowClusterConfig(t, "25ms"), Config{
		MaxConcurrent:    1,
		WorkerBudget:     1,
		ProgressInterval: 5 * time.Millisecond,
	})
	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}

	q, err := cli.Submit(Spec{Pattern: "K4"})
	if err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	waitFor(t, 10*time.Second, "the query to start executing", func() bool {
		return m.ActiveQueries.Load() == 1
	})
	// Wait until the run is demonstrably mid-range: a streamed partial count
	// proves engines are extending embeddings, not warming up.
	select {
	case <-q.Progress():
	case <-time.After(10 * time.Second):
		t.Fatal("no progress streamed within 10s")
	}

	disconnect := time.Now()
	cli.Close()
	waitFor(t, 5*time.Second, "the disconnected query to be canceled", func() bool {
		return m.QueriesCanceled.Load() == 1 && m.ActiveQueries.Load() == 0
	})
	t.Logf("cancel-to-idle latency: %v", time.Since(disconnect))
	if n := m.QueriesOK.Load(); n != 0 {
		t.Fatalf("QueriesOK = %d after disconnect, want 0 (run must not complete)", n)
	}
}

// TestPlanRefReuse: the plan ID returned with a result re-submits the
// compiled plan and returns the identical count; an unknown plan ID fails
// cleanly.
func TestPlanRefReuse(t *testing.T) {
	leakcheck.Check(t)
	_, srv := newTestServer(t, fastClusterConfig(), Config{})
	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	first, err := cli.Run(Spec{Pattern: "triangle"})
	if err != nil {
		t.Fatal(err)
	}
	if first.PlanID == 0 {
		t.Fatal("first result carries no plan id")
	}
	again, err := cli.Run(Spec{PlanID: first.PlanID})
	if err != nil {
		t.Fatal(err)
	}
	if again.Count != first.Count {
		t.Fatalf("plan-ref count %d, want %d", again.Count, first.Count)
	}
	if again.PlanID != first.PlanID {
		t.Fatalf("plan-ref echoed plan %d, want %d", again.PlanID, first.PlanID)
	}
	if _, err := cli.Run(Spec{PlanID: 99999}); !errors.Is(err, ErrQueryFailed) {
		t.Fatalf("unknown plan id: %v, want ErrQueryFailed", err)
	}
}

// TestBadQueryFails: an unparseable pattern fails the query without
// disturbing the server.
func TestBadQueryFails(t *testing.T) {
	leakcheck.Check(t)
	_, srv := newTestServer(t, fastClusterConfig(), Config{})
	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Run(Spec{Pattern: "no-such-pattern-%%"}); !errors.Is(err, ErrQueryFailed) {
		t.Fatalf("bad pattern: %v, want ErrQueryFailed", err)
	}
	// The server still answers.
	out, err := cli.Run(Spec{Pattern: "triangle"})
	if err != nil || out.Status != comm.QueryOK {
		t.Fatalf("follow-up query: %+v, %v", out, err)
	}
}

// TestServerCloseCancelsClients: closing the server mid-query severs the
// connection and strands no goroutines (leakcheck) — pending client calls
// return, not hang.
func TestServerCloseCancelsClients(t *testing.T) {
	leakcheck.Check(t)
	cl, err := cluster.New(testGraph(t), slowClusterConfig(t, "10ms"))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv, err := New(cl, Config{MaxConcurrent: 1, WorkerBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer cli.Close()
	q, err := cli.Submit(Spec{Pattern: "K4"})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	m := srv.Metrics()
	waitFor(t, 10*time.Second, "the query to start executing", func() bool {
		return m.ActiveQueries.Load() == 1
	})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Result(); err == nil {
		t.Fatal("query resolved cleanly across a server shutdown")
	}
}

// TestNewRejectsInvalidConfig: New refuses every negative setting it cannot
// honor, by field, before it listens; a negative ProgressInterval is the
// documented "streaming off" and passes.
func TestNewRejectsInvalidConfig(t *testing.T) {
	leakcheck.Check(t)
	cl, err := cluster.New(testGraph(t), fastClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"MaxConcurrent", Config{MaxConcurrent: -1}},
		{"WorkerBudget", Config{WorkerBudget: -1}},
		{"QueryDeadline", Config{QueryDeadline: -time.Second}},
	} {
		t.Run(tc.field, func(t *testing.T) {
			srv, err := New(cl, tc.cfg)
			if err == nil {
				srv.Close()
				t.Fatalf("New accepted a negative %s", tc.field)
			}
			if !errors.Is(err, ErrInvalidConfig) || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("err = %v, want ErrInvalidConfig naming %s", err, tc.field)
			}
		})
	}
	srv, err := New(cl, Config{ProgressInterval: -1})
	if err != nil {
		t.Fatalf("negative ProgressInterval refused: %v", err)
	}
	srv.Close()
}

// TestSpeculatingClusterRefused: the service owns scheduling; a cluster
// with speculation enabled is a configuration error.
func TestSpeculatingClusterRefused(t *testing.T) {
	leakcheck.Check(t)
	cfg := fastClusterConfig()
	cfg.Speculate = true
	cl, err := cluster.New(testGraph(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := New(cl, Config{}); err == nil {
		t.Fatal("New accepted a speculating cluster")
	}
}

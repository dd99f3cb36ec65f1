package service

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"khuzdul/internal/leakcheck"
)

// TestServiceCountersMove drives every query outcome through one server —
// rejected, canceled, failed, deadline-exceeded and ok — and reads every
// metrics.Service counter back, so a counter whose write is dropped, or one
// added without an outcome here that moves it, fails. (Service.SummaryLine's
// coverage test in metrics is the surfaced half.)
func TestServiceCountersMove(t *testing.T) {
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
	m := srv.Metrics()

	// A hog holds the window of one: the next submission is rejected, then
	// the hog is canceled.
	hog, err := cli.Submit(Spec{Pattern: "K4"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the hog to start executing", func() bool {
		return m.ActiveQueries.Load() == 1
	})
	if _, err := cli.Run(Spec{Pattern: "triangle"}); !errors.Is(err, ErrRejected) {
		t.Fatalf("submission past the window: %v, want ErrRejected", err)
	}
	if err := hog.Cancel(); err != nil {
		t.Fatal(err)
	}
	if _, err := hog.Result(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled hog: %v, want ErrCanceled", err)
	}
	waitFor(t, 10*time.Second, "the window to free", func() bool {
		return m.ActiveQueries.Load() == 0
	})

	if _, err := cli.Run(Spec{Pattern: "no-such-pattern-%%"}); !errors.Is(err, ErrQueryFailed) {
		t.Fatalf("bad pattern: %v, want ErrQueryFailed", err)
	}
	if _, err := cli.Run(Spec{Pattern: "K4", Deadline: 50 * time.Millisecond}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("deadline query: %v, want ErrDeadlineExceeded", err)
	}
	if _, err := cli.Run(Spec{Pattern: "triangle"}); err != nil {
		t.Fatalf("ok query: %v", err)
	}

	want := map[string]int64{
		"QueriesSubmitted":        5,
		"QueriesRejected":         1,
		"QueriesOK":               1,
		"QueriesCanceled":         1,
		"QueriesFailed":           1,
		"QueriesDeadlineExceeded": 1,
		"ActiveQueries":           0, // read at 1 above, while the hog ran
		"ActiveQueryPeak":         1,
	}
	mv := reflect.ValueOf(m).Elem()
	for i := 0; i < mv.NumField(); i++ {
		f := mv.Type().Field(i)
		if !f.IsExported() {
			continue // queryDurationNS surfaces through AvgQueryDuration, checked below
		}
		var got int64
		switch x := mv.Field(i).Addr().Interface().(type) {
		case *atomic.Uint64:
			got = int64(x.Load())
		case *atomic.Int64:
			got = x.Load()
		default:
			t.Fatalf("Service.%s has unhandled type %s", f.Name, f.Type)
		}
		w, ok := want[f.Name]
		if !ok {
			t.Errorf("Service.%s = %d: no outcome here is known to move it", f.Name, got)
			continue
		}
		if got != w {
			t.Errorf("Service.%s = %d, want %d", f.Name, got, w)
		}
	}
	if m.AvgQueryDuration() == 0 {
		t.Error("AvgQueryDuration is 0: no run accrued its latency")
	}
}

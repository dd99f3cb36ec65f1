package metrics

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestSummarizeCoversEveryNodeCounter walks Node's exported atomic fields by
// reflection, gives each a distinct value, and checks the same-named Summary
// field carries it after Summarize — so a counter added to Node without a
// summary surface fails here. This is the surfaced half of the metrics
// invariant; cluster's TestSummaryEveryCounterMoves is the written half.
func TestSummarizeCoversEveryNodeCounter(t *testing.T) {
	// Point-in-time gauges have no summed summary form; each must name the
	// summarized field that stands in for it.
	gauges := map[string]string{
		"InFlightFetches": "InFlightPeak",
	}
	c := NewCluster(1)
	n := c.Nodes[0]
	nv := reflect.ValueOf(n).Elem()
	nt := nv.Type()
	want := map[string]uint64{}
	val := uint64(3)
	for i := 0; i < nt.NumField(); i++ {
		f := nt.Field(i)
		if !f.IsExported() {
			continue // the *NS fields surface through Breakdown, checked below
		}
		switch x := nv.Field(i).Addr().Interface().(type) {
		case *atomic.Uint64:
			x.Store(val)
		case *atomic.Int64:
			x.Store(int64(val))
		default:
			t.Fatalf("Node.%s has unhandled type %s", f.Name, f.Type)
		}
		want[f.Name] = val
		val += 7
	}
	n.AddCompute(1 * time.Second)
	n.AddNetwork(2 * time.Second)
	n.AddScheduler(3 * time.Second)
	n.AddCache(4 * time.Second)

	s := c.Summarize()
	sv := reflect.ValueOf(s)
	for name, v := range want {
		if stand, ok := gauges[name]; ok {
			if !sv.FieldByName(stand).IsValid() {
				t.Errorf("gauge Node.%s: stand-in Summary.%s missing", name, stand)
			}
			continue
		}
		fld := sv.FieldByName(name)
		if !fld.IsValid() {
			t.Errorf("Node.%s is incremented but has no Summary field: never surfaced", name)
			continue
		}
		if got := fld.Uint(); got != v {
			t.Errorf("Summary.%s = %d, want %d", name, got, v)
		}
	}
	wantBreakdown := Breakdown{Compute: 1 * time.Second, Network: 2 * time.Second,
		Scheduler: 3 * time.Second, Cache: 4 * time.Second}
	if s.Breakdown != wantBreakdown {
		t.Errorf("Summary.Breakdown = %+v, want %+v", s.Breakdown, wantBreakdown)
	}
}

// TestSummaryMergeCoversEveryField fills a Summary with distinct values by
// reflection and merges it into a zero Summary: sums and maxima alike must
// reproduce the source, so a field added to Summary but forgotten in Merge
// fails here (the CountAll bug class — the hand-rolled merge had dropped
// the NUMA counters, PeakEmbeddings and the breakdown).
func TestSummaryMergeCoversEveryField(t *testing.T) {
	var src Summary
	sv := reflect.ValueOf(&src).Elem()
	st := sv.Type()
	for i := 0; i < st.NumField(); i++ {
		f := sv.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(100 + 7*i))
		case reflect.Struct: // Breakdown
			for j := 0; j < f.NumField(); j++ {
				f.Field(j).SetInt(int64((j + 1) * int(time.Second)))
			}
		default:
			t.Fatalf("Summary.%s has unhandled kind %s", st.Field(i).Name, f.Kind())
		}
	}
	var dst Summary
	dst.Merge(src)
	if !reflect.DeepEqual(dst, src) {
		t.Errorf("Merge into zero lost fields:\n got %+v\nwant %+v", dst, src)
	}
	// Merging twice doubles counters but keeps peaks: spot-check the two rules.
	dst.Merge(src)
	if dst.BytesSent != 2*src.BytesSent {
		t.Errorf("counters must add: BytesSent = %d, want %d", dst.BytesSent, 2*src.BytesSent)
	}
	if dst.InFlightPeak != src.InFlightPeak || dst.PeakEmbeddings != src.PeakEmbeddings {
		t.Errorf("peaks must max, not add: %d/%d, want %d/%d",
			dst.InFlightPeak, dst.PeakEmbeddings, src.InFlightPeak, src.PeakEmbeddings)
	}
}

// TestServiceSummaryLineCoversEveryCounter gives every exported Service
// counter a distinct value and checks the rendered summary line quotes each
// one — the CLI line is the service counters' only surface.
func TestServiceSummaryLineCoversEveryCounter(t *testing.T) {
	// ActiveQueries is the point-in-time gauge; its high-water mark
	// ActiveQueryPeak is the summarized form.
	gauges := map[string]bool{"ActiveQueries": true}
	var s Service
	sv := reflect.ValueOf(&s).Elem()
	st := sv.Type()
	want := map[string]uint64{}
	val := uint64(1111)
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if !f.IsExported() {
			continue // queryDurationNS surfaces through the avg, checked below
		}
		switch x := sv.Field(i).Addr().Interface().(type) {
		case *atomic.Uint64:
			x.Store(val)
		case *atomic.Int64:
			x.Store(int64(val))
		default:
			t.Fatalf("Service.%s has unhandled type %s", f.Name, f.Type)
		}
		want[f.Name] = val
		val += 1111
	}
	s.AddQueryDuration(8 * time.Second)
	line := s.SummaryLine()
	for name, v := range want {
		if gauges[name] {
			continue
		}
		if !strings.Contains(line, fmt.Sprintf("%d", v)) {
			t.Errorf("SummaryLine omits Service.%s (=%d): %q", name, v, line)
		}
	}
	if s.AvgQueryDuration() == 0 {
		t.Error("queryDurationNS never surfaced through AvgQueryDuration")
	}
}

// TestNodeResetZeroesEveryField sets every Node field by reflection — the
// exported counters and the unexported breakdown clocks alike — and requires
// Reset to zero each one, so a counter added to Node without a line in Reset
// fails here instead of accumulating across runs.
func TestNodeResetZeroesEveryField(t *testing.T) {
	var n Node
	nv := reflect.ValueOf(&n).Elem()
	// field returns a settable view of field i, unexported or not.
	field := func(i int) any {
		f := nv.Field(i)
		return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Interface()
	}
	for i := 0; i < nv.NumField(); i++ {
		switch x := field(i).(type) {
		case *atomic.Uint64:
			x.Store(uint64(i + 1))
		case *atomic.Int64:
			x.Store(int64(i + 1))
		default:
			t.Fatalf("Node.%s has unhandled type %s", nv.Type().Field(i).Name, nv.Type().Field(i).Type)
		}
	}
	n.Reset()
	for i := 0; i < nv.NumField(); i++ {
		var v int64
		switch x := field(i).(type) {
		case *atomic.Uint64:
			v = int64(x.Load())
		case *atomic.Int64:
			v = x.Load()
		}
		if v != 0 {
			t.Errorf("Node.%s = %d after Reset, want 0", nv.Type().Field(i).Name, v)
		}
	}
}

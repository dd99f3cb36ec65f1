package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// budget says how long a measurement loop keeps going: until a deadline, or,
// with -iters, for a fixed number of rounds so counters repeat exactly.
type budget struct {
	deadline time.Time
	iters    int
}

func (b budget) more(done int) bool {
	if b.iters > 0 {
		return done < b.iters
	}
	// At least one round, however short the time slice.
	return done == 0 || time.Now().Before(b.deadline)
}

// recorder accumulates one workload's untraced samples.
type recorder struct {
	latencies []float64 // seconds, one per query
	// kinds[i] says which query of a mix sample i was; batch workloads have
	// one kind.
	kinds     []int
	failed    int
	firstErr  error
	wall, cpu time.Duration
	mallocs   uint64
}

func (r *recorder) add(kind int, latency time.Duration, err error) {
	r.latencies = append(r.latencies, latency.Seconds())
	r.kinds = append(r.kinds, kind)
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
			fmt.Fprintf(os.Stderr, "bench: query failed: %v\n", err)
		}
	}
}

// measure runs one slice of a workload's queries and charges it wall time,
// process CPU time and heap allocations.
func (in *instance) measure(b budget, rec *recorder) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	cpu := cpuTime()
	t0 := time.Now()
	if in.w.query == nil {
		in.runService(b, rec)
	} else {
		for n := 0; b.more(n); n++ {
			q0 := time.Now()
			err := in.w.query(in)
			rec.add(0, time.Since(q0), err)
		}
	}
	rec.wall += time.Since(t0)
	rec.cpu += cpuTime() - cpu
	runtime.ReadMemStats(&ms)
	rec.mallocs += ms.Mallocs - mallocs
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func medianDuration(v []time.Duration) float64 {
	s := make([]float64, len(v))
	for i, d := range v {
		s[i] = d.Seconds()
	}
	return median(s)
}

// best is the no-interference cost of a query: the fastest sample of each
// kind, averaged over the kinds. For a single-kind workload that is the plain
// minimum; for a mix it is what one pass over the mix costs at its best, per
// query, rather than the fastest run of the cheapest pattern.
func (r *recorder) best() float64 {
	mins := map[int]float64{}
	for i, l := range r.latencies {
		if m, ok := mins[r.kinds[i]]; !ok || l < m {
			mins[r.kinds[i]] = l
		}
	}
	sum := 0.0
	for _, m := range mins {
		sum += m
	}
	return sum / float64(len(mins))
}

// endToEnd turns the recorder into the end-to-end metrics. tail is the
// quantile query_tail_s reports.
func (r *recorder) endToEnd(setups []float64, tail float64) map[string]metric {
	s := append([]float64(nil), r.latencies...)
	sort.Float64s(s)
	n := len(s)
	ok := n - r.failed
	return map[string]metric{
		"setup_s":          {Value: median(setups), Unit: "s", Stat: "median", Samples: len(setups)},
		"query_s":          {Value: quantile(s, 0.5), Unit: "s", Stat: "median", Samples: n},
		"query_best_s":     {Value: r.best(), Unit: "s", Stat: "min", Samples: n},
		"query_tail_s":     {Value: quantile(s, tail), Unit: "s", Stat: fmt.Sprintf("p%.0f", tail*100), Samples: n},
		"queries_per_s":    {Value: float64(ok) / r.wall.Seconds(), Unit: "1/s", Stat: "rate", Samples: n},
		"cpu_s_per_query":  {Value: r.cpu.Seconds() / float64(n), Unit: "s", Stat: "mean", Samples: n},
		"allocs_per_query": {Value: float64(r.mallocs) / float64(n), Unit: "count", Stat: "mean", Samples: n},
	}
}

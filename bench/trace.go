package main

import (
	"fmt"
	"time"

	"khuzdul/internal/cluster"
	"khuzdul/internal/core"
	"khuzdul/internal/fsm"
	"khuzdul/internal/metrics"
	"khuzdul/internal/plan"
	"khuzdul/internal/service"
)

// span is one node of the aggregated trace tree. One record per call would be
// 5-8 x 10^5 extends per query, so calls aggregate per (name, parent, level)
// into a count, a total and a self time.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	// Level is the plan level of a plan.extend span.
	Level *int    `json:"level,omitempty"`
	Count uint64  `json:"count"`
	Total float64 `json:"total_s"`
	// Self is Total minus what the span's synchronous children cover.
	Self float64 `json:"self_s"`
	// Async marks spans that run on the engines' fetch goroutines, beside
	// their parent rather than inside its thread; a parent's self time does
	// not subtract them.
	Async bool `json:"async,omitempty"`
}

// traceFile is what out/trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Spans is the tree of one traced replica query.
	Spans []span `json:"spans"`
	// Checks records the replica-equals-cluster comparison.
	Checks  map[string]any    `json:"checks"`
	Metrics map[string]metric `json:"metrics"`
}

// spansOf folds one traced replica query into the span tree
// bench.query -> core.run -> {plan.extend[level], source.local_list,
// cache.get, source.fetch -> comm.fetch -> comm.serve, cache.put}.
// fetchWait is the time engines sat blocked on a fetch batch (the engine's
// own Breakdown.Network): core.run's thread was idle then, so its self time
// excludes it.
func spansOf(r replicaRun, fetchWait time.Duration) []span {
	var run, localList, cacheGet, fetch, cachePut callStat
	var extend []callStat
	for _, e := range r.engines {
		run.n++
		run.d += e.run
		for level, st := range e.extend {
			for len(extend) <= level {
				extend = append(extend, callStat{})
			}
			extend[level].n += st.n
			extend[level].d += st.d
		}
		localList.n += e.localList.n
		localList.d += e.localList.d
		cacheGet.n += e.cacheGet.n
		cacheGet.d += e.cacheGet.d
		fetch.n += e.fetch.n.Load()
		fetch.d += e.fetch.total()
		cachePut.n += e.cachePut.n.Load()
		cachePut.d += e.cachePut.total()
	}
	query := callStat{n: 1, d: r.wall}
	commFetch := callStat{n: r.fabric.fetch.n.Load(), d: r.fabric.fetch.total()}
	commServe := callStat{n: r.fabric.serve.n.Load(), d: r.fabric.serve.total()}
	sec := func(d time.Duration) float64 { return d.Seconds() }
	sync := localList.d + cacheGet.d
	for _, st := range extend {
		sync += st.d
	}
	spans := []span{
		// Engines of one query run concurrently, so the query's self time is
		// not its wall minus their summed runs; report the wall and leave
		// self equal to it.
		{Name: "bench.query", Count: query.n, Total: sec(query.d), Self: sec(query.d)},
		{Name: "core.run", Parent: "bench.query", Count: run.n, Total: sec(run.d), Self: sec(run.d - sync - fetchWait)},
	}
	for level, st := range extend {
		if st.n == 0 {
			continue
		}
		level := level
		spans = append(spans, span{Name: "plan.extend", Parent: "core.run", Level: &level, Count: st.n, Total: sec(st.d), Self: sec(st.d)})
	}
	spans = append(spans,
		span{Name: "source.local_list", Parent: "core.run", Count: localList.n, Total: sec(localList.d), Self: sec(localList.d)},
		span{Name: "cache.get", Parent: "core.run", Count: cacheGet.n, Total: sec(cacheGet.d), Self: sec(cacheGet.d)},
		span{Name: "source.fetch", Parent: "core.run", Count: fetch.n, Total: sec(fetch.d), Self: sec(fetch.d - commFetch.d), Async: true},
		span{Name: "comm.fetch", Parent: "source.fetch", Count: commFetch.n, Total: sec(commFetch.d), Self: sec(commFetch.d - commServe.d), Async: true},
		span{Name: "comm.serve", Parent: "comm.fetch", Count: commServe.n, Total: sec(commServe.d), Self: sec(commServe.d), Async: true},
		span{Name: "cache.put", Parent: "core.run", Count: cachePut.n, Total: sec(cachePut.d), Self: sec(cachePut.d), Async: true},
	)
	return spans
}

func findSpan(spans []span, name string) span {
	var out span
	for _, s := range spans {
		if s.Name == name {
			out.Count += s.Count
			out.Total += s.Total
			out.Self += s.Self
		}
	}
	return out
}

// traceRun is what the traced pass runs on the cluster to compare the replica
// against: the workload's plans one after another, as CountAll runs them,
// through counting sinks or — where the workload materializes — through sinks
// that take every embedding. Unlike CountAll it keeps the per-node breakdown.
func (in *instance) traceRun(plans []*plan.Plan) (cluster.Result, error) {
	var total cluster.Result
	for _, pl := range plans {
		res, err := in.cl.Run(pl, func(int, int) core.Sink {
			if in.w.materialize {
				return noopSink()
			}
			return &core.CountSink{}
		})
		if err != nil {
			return total, err
		}
		total.Elapsed += res.Elapsed
		total.ModeledElapsed += res.ModeledElapsed
		total.RecoveryRounds += res.RecoveryRounds
		total.Summary.Merge(res.Summary)
		if total.PerNode == nil {
			total.PerNode = make([]metrics.Breakdown, len(res.PerNode))
		}
		for i, b := range res.PerNode {
			total.PerNode[i].Compute += b.Compute
			total.PerNode[i].Network += b.Network
			total.PerNode[i].Scheduler += b.Scheduler
			total.PerNode[i].Cache += b.Cache
		}
	}
	// A materializing sink is not a counting sink, so Result.Count stays 0;
	// the engines' own match counter is the count under either.
	total.Count = total.Summary.Matches
	return total, nil
}

// tracedPass produces one workload's per-layer metrics and its trace file.
// newBudget bounds each of its repeated measurements (cluster runs, replica
// pairs, FSM mines); the probes are fixed work.
func tracedPass(w *workload, p params, newBudget func() budget) (*traceFile, error) {
	lm := layerMetrics{}
	ref := &reference{}
	in, err := w.setUp(p, ref)
	if err != nil {
		return nil, err
	}
	defer in.close()
	if err := w.oracle(in); err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", w.name, err)
	}
	lm["graph.generate_s"] = in.generateS
	lm["cluster.new_s"] = in.clusterNewS
	lm["plan.ref_count_s"] = ref.elapsed.Seconds()

	t0 := time.Now()
	plans, err := w.plans(in)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", w.name, err)
	}
	lm["plan.compile_s"] = time.Since(t0).Seconds() / float64(len(plans))

	// Cluster runs: the layers' own counters, per query.
	var runs []cluster.Result
	for n, b := 0, newBudget(); b.more(n); n++ {
		res, err := in.traceRun(plans)
		if err != nil {
			return nil, fmt.Errorf("%s: cluster run: %w", w.name, err)
		}
		runs = append(runs, res)
	}
	last := runs[len(runs)-1]
	clusterCounters(runs, lm)

	floor, err := floorPlan()
	if err != nil {
		return nil, err
	}
	var floors []time.Duration
	for i := 0; i < 20; i++ {
		f0 := time.Now()
		res, err := in.cl.Count(floor)
		if err != nil {
			return nil, fmt.Errorf("%s: floor run: %w", w.name, err)
		}
		if res.Count != 0 || res.Summary.Extensions != 0 {
			return nil, fmt.Errorf("%s: floor run did work: %d matches, %d extensions", w.name, res.Count, res.Summary.Extensions)
		}
		floors = append(floors, time.Since(f0))
	}
	lm["cluster.run_floor_s"] = medianDuration(floors)

	// Replica: untraced and traced runs, then the sink comparison on the
	// first plan.
	rep := newReplica(in.g, w.config)
	lm["partition.build_s"] = rep.buildS
	// Untraced and traced runs alternate, the first pair as warm-up, for a
	// budget's worth of pairs (at least 2, at most 20); each side keeps its
	// fastest run, so trace.overhead_ratio compares the two at their least
	// disturbed.
	var plain, traced replicaRun
	for i, b := 0, newBudget(); i < 2 || (i < 20 && b.more(i)); i++ {
		p, err := rep.run(plans, false, w.materialize)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		t, err := rep.run(plans, true, w.materialize)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if i == 1 || p.wall < plain.wall {
			plain = p
		}
		if i == 1 || t.wall < traced.wall {
			traced = t
		}
	}
	checks := map[string]any{
		"cluster_count": last.Count, "replica_count": traced.summary.Matches,
		"cluster_extensions": last.Summary.Extensions, "replica_extensions": traced.summary.Extensions,
		"cluster_bytes_sent": last.Summary.BytesSent, "replica_bytes_sent": traced.summary.BytesSent,
		"exact_counters_required": w.config.CacheFraction == 0,
	}
	if traced.summary.Matches != last.Count || plain.summary.Matches != last.Count {
		return nil, fmt.Errorf("%s: replica counts %d (traced) %d (untraced), cluster %d: the trace measures a different computation",
			w.name, traced.summary.Matches, plain.summary.Matches, last.Count)
	}
	if w.config.CacheFraction == 0 &&
		(traced.summary.Extensions != last.Summary.Extensions || traced.summary.BytesSent != last.Summary.BytesSent) {
		return nil, fmt.Errorf("%s: replica extensions %d bytes %d, cluster %d and %d: the trace measures a different computation",
			w.name, traced.summary.Extensions, traced.summary.BytesSent, last.Summary.Extensions, last.Summary.BytesSent)
	}
	lm["trace.overhead_ratio"] = traced.wall.Seconds() / plain.wall.Seconds()

	counting, err := rep.run(plans[:1], false, false)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	materializing, err := rep.run(plans[:1], false, true)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	lm["core.materialize_ratio"] = materializing.wall.Seconds() / counting.wall.Seconds()

	spans := spansOf(traced, traced.summary.Breakdown.Network)
	replicaMetrics(spans, traced, lm)

	probeSetops(in.g, p.seed+int64(w.index), lm)
	if err := probeCommStack(in.g, w.config.NumNodes, p.seed+int64(w.index), lm); err != nil {
		return nil, fmt.Errorf("%s: comm probe: %w", w.name, err)
	}
	if w.query == nil {
		if err := in.traceService(lm); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	if w.materialize {
		if err := in.traceFSM(newBudget(), lm); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return &traceFile{
		Workload: w.name, Seed: p.seed,
		Spans: spans, Checks: checks, Metrics: lm.emit(),
	}, nil
}

// clusterCounters reads the counters the cluster already returns in its
// Result: the last run's Summary (counters repeat run to run; the cache-on
// ones within a few percent) and medians of the runs' timings.
func clusterCounters(runs []cluster.Result, lm layerMetrics) {
	var elapsed, modeled []time.Duration
	rounds := 0
	for _, r := range runs {
		elapsed = append(elapsed, r.Elapsed)
		modeled = append(modeled, r.ModeledElapsed)
		rounds += r.RecoveryRounds
	}
	lm["cluster.count_s"] = medianDuration(elapsed)
	lm["cluster.modeled_makespan_s"] = medianDuration(modeled)
	lm["cluster.recovery_rounds"] = float64(rounds)

	last := runs[len(runs)-1]
	lm["cluster.node_imbalance"] = imbalance(last.PerNode)
	s := last.Summary
	lm["setops.kernel_merge"] = float64(s.KernelMerge)
	lm["setops.kernel_gallop"] = float64(s.KernelGallop)
	lm["setops.kernel_bitmap"] = float64(s.KernelBitmap)
	lm["setops.kernel_pivot"] = float64(s.KernelPivot)
	lm["core.extensions"] = float64(s.Extensions)
	lm["core.matches"] = float64(s.Matches)
	lm["core.peak_embeddings"] = float64(s.PeakEmbeddings)
	lm["core.vertical_hits"] = float64(s.VerticalHits)
	lm["core.hds_hits"] = float64(s.HDSHits)
	lm["core.compute_s"] = s.Breakdown.Compute.Seconds()
	lm["core.scheduler_s"] = s.Breakdown.Scheduler.Seconds()
	lm["cache.hits"] = float64(s.CacheHits)
	lm["cache.misses"] = float64(s.CacheMisses)
	lm["cache.hit_ratio"] = s.CacheHitRate()
	lm["cache.busy_s"] = s.Breakdown.Cache.Seconds()
	lm["comm.bytes_sent"] = float64(s.BytesSent)
	lm["comm.messages"] = float64(s.Messages)
	lm["comm.network_s"] = s.Breakdown.Network.Seconds()
	lm["comm.inflight_peak"] = float64(s.InFlightPeak)
	lm["comm.pipelined_fetches"] = float64(s.PipelinedFetches)
	lm["comm.retries"] = float64(s.FetchRetries)
}

// imbalance is the busiest node's busy time over the mean node's.
func imbalance(nodes []metrics.Breakdown) float64 {
	var max, sum time.Duration
	for _, b := range nodes {
		t := b.Total()
		sum += t
		if t > max {
			max = t
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(nodes)) / float64(sum)
}

// replicaMetrics reads the decorators' spans into the per-layer metrics.
func replicaMetrics(spans []span, traced replicaRun, lm layerMetrics) {
	extend := findSpan(spans, "plan.extend")
	lm["plan.extend_calls"] = float64(extend.Count)
	lm["plan.extend_busy_s"] = extend.Total
	if extend.Count > 0 {
		lm["plan.extend_ns_per_call"] = extend.Total * 1e9 / float64(extend.Count)
	}
	run := findSpan(spans, "core.run")
	lm["core.run_s"] = run.Total
	lm["core.self_s"] = run.Self
	if n := traced.summary.Extensions; n > 0 {
		lm["core.self_ns_per_extension"] = run.Self * 1e9 / float64(n)
	}
	if get := findSpan(spans, "cache.get"); get.Count > 0 {
		lm["cache.get_ns"] = get.Total * 1e9 / float64(get.Count)
	}
	if put := findSpan(spans, "cache.put"); put.Count > 0 {
		lm["cache.put_ns"] = put.Total * 1e9 / float64(put.Count)
	}
	lm["cache.size_bytes"] = float64(traced.cacheSize)
	fetch := findSpan(spans, "comm.fetch")
	lm["comm.fetch_calls"] = float64(fetch.Count)
	lm["comm.fetch_busy_s"] = fetch.Total
	lm["comm.serve_busy_s"] = findSpan(spans, "comm.serve").Total
	if fetch.Count > 0 {
		lm["comm.fetch_us"] = medianDuration(traced.fabric.each) * 1e6
		lm["comm.bytes_per_fetch"] = float64(traced.fabric.bytes.Load()) / float64(fetch.Count)
	}
}

// traceService wraps spans around the client-side calls of the service path:
// submit, first progress frame, result; a compile-miss and a plan-ID
// resubmission; the health probe.
func (in *instance) traceService(lm layerMetrics) error {
	c := in.clients[0]
	var overhead, exec, firstProgress []time.Duration
	for round := 0; round < 8; round++ {
		for _, spec := range serveSpecs {
			t0 := time.Now()
			q, err := c.Submit(spec)
			if err != nil {
				return fmt.Errorf("submit %s: %w", specKey(spec), err)
			}
			// A query shorter than the progress interval streams nothing.
			stop, done := make(chan struct{}), make(chan struct{})
			var first time.Duration
			go func() {
				defer close(done)
				select {
				case <-q.Progress():
					first = time.Since(t0)
				case <-stop:
				}
			}()
			out, err := q.Result()
			latency := time.Since(t0)
			close(stop)
			<-done
			if err != nil {
				return fmt.Errorf("%s: %w", specKey(spec), err)
			}
			if want := in.ref.counts[specKey(spec)]; out.Count != want {
				return fmt.Errorf("%s count %d, oracle %d", specKey(spec), out.Count, want)
			}
			overhead = append(overhead, latency-out.Elapsed)
			exec = append(exec, out.Elapsed)
			if first > 0 {
				firstProgress = append(firstProgress, first)
			}
		}
	}
	lm["service.overhead_s"] = medianDuration(overhead)
	lm["service.exec_s"] = medianDuration(exec)
	if len(firstProgress) > 0 {
		lm["service.first_progress_s"] = medianDuration(firstProgress)
	}

	// A spelling the registry has not seen compiles on submission; its plan
	// ID then skips even the registry's string lookup.
	var miss, hit []time.Duration
	for i, name := range []string{"3-clique", "3:0-1,1-2,2-0", "3:0-2,2-1,1-0", "3:1-0,0-2,2-1"} {
		t0 := time.Now()
		out, err := c.Run(service.Spec{Pattern: name})
		if err != nil {
			return fmt.Errorf("compile miss %d: %w", i, err)
		}
		miss = append(miss, time.Since(t0)-out.Elapsed)
		t1 := time.Now()
		again, err := c.Run(service.Spec{PlanID: out.PlanID})
		if err != nil {
			return fmt.Errorf("plan-id hit %d: %w", i, err)
		}
		hit = append(hit, time.Since(t1)-again.Elapsed)
		if want := in.ref.counts["triangle"]; out.Count != want || again.Count != want {
			return fmt.Errorf("triangle spelled %q counts %d and %d, oracle %d", name, out.Count, again.Count, want)
		}
	}
	lm["service.compile_miss_s"] = medianDuration(miss)
	lm["service.planid_hit_s"] = medianDuration(hit)

	var rtt []time.Duration
	for i := 0; i < 32; i++ {
		t0 := time.Now()
		if _, err := c.Health(); err != nil {
			return fmt.Errorf("health: %w", err)
		}
		rtt = append(rtt, time.Since(t0))
	}
	lm["service.health_rtt_s"] = medianDuration(rtt)

	// A short concurrent loop so the admission window sees both clients.
	rec := &recorder{}
	in.runService(budget{iters: 2}, rec)
	if rec.failed > 0 {
		return fmt.Errorf("service loop: %w", rec.firstErr)
	}
	sm := in.srv.Metrics()
	lm["service.rejected"] = float64(sm.QueriesRejected.Load())
	lm["service.active_peak"] = float64(sm.ActiveQueryPeak.Load())
	return nil
}

// traceFSM wraps spans around the miner's driver-side calls.
func (in *instance) traceFSM(b budget, lm layerMetrics) error {
	var mines []time.Duration
	var res fsm.Result
	for n := 0; b.more(n); n++ {
		t0 := time.Now()
		var err error
		if res, err = fsm.Mine(in.cl, in.fsmConfig()); err != nil {
			return err
		}
		mines = append(mines, time.Since(t0))
	}
	if res.Examined != in.ref.examined || len(res.Frequent) != len(in.ref.frequent) {
		return fmt.Errorf("mine examined %d frequent %d, oracle %d and %d",
			res.Examined, len(res.Frequent), in.ref.examined, len(in.ref.frequent))
	}
	lm["fsm.mine_s"] = medianDuration(mines)
	lm["fsm.examined"] = float64(res.Examined)
	lm["fsm.frequent"] = float64(len(res.Frequent))
	lm["fsm.per_pattern_s"] = lm["fsm.mine_s"] / float64(res.Examined)
	lm["fsm.single_mine_s"] = in.ref.elapsed.Seconds()
	return nil
}

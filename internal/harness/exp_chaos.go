package harness

import (
	"fmt"
	"time"

	"khuzdul/internal/apps"
	"khuzdul/internal/cluster"
	"khuzdul/internal/fault"
)

// Chaos experiment (beyond the paper's exhibits): the resilience subsystem's
// cost and correctness. The scenarios cover the full failure surface: the
// plain cluster, the resilience layer with no faults (steady-state overhead),
// a transient error storm absorbed by retries, a mid-run permanent node crash
// repaired by task-level recovery, the TCP wire with its CRC-checked frame
// protocol alone and with the heartbeat detector on top (protocol overhead),
// real byte corruption and severed connections on that wire, an asymmetric
// network partition, and a straggler node with and without speculative
// re-execution. A crash and the partition also run with the detector off
// and on, so the detector's time-to-verdict is measured against the
// breaker's. Every faulted run must reproduce the fault-free count exactly.

func init() {
	register(Experiment{ID: "ablation-chaos", Title: "Fault injection, retries and task-level recovery (extra)", Run: runAblationChaos})
}

func runAblationChaos(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:     "ablation-chaos",
		Title:  "chaos: resilience cost and recovery (k-GraphPi, lj)",
		Header: []string{"App", "Scenario", "elapsed", "faults", "retries", "rec.rounds", "dead", "wire c/r", "hb m/s", "spec r/w"},
	}
	d, err := GetDataset("lj")
	if err != nil {
		return nil, err
	}
	g := d.Generate(o.Scale)

	first := map[string]cluster.Result{} // the first app's row per scenario
	appsList := []appSpec{appTC}
	if !o.Quick {
		appsList = append(appsList, app4CC)
	}
	for ai, a := range appsList {
		var want uint64
		for i, sc := range chaosScenarios {
			// A crash permanently poisons the injector, so every scenario gets
			// a fresh cluster.
			var r cluster.Result
			reps := max(sc.reps, 1)
			for rep := 0; rep < reps; rep++ {
				c, err := cluster.New(g, sc.config(o))
				if err != nil {
					return nil, err
				}
				got, err := runOnCluster(c, apps.KGraphPi, a)
				c.Close()
				if err != nil {
					return nil, err
				}
				if rep > 0 && got.Count != r.Count {
					return nil, fmt.Errorf("ablation-chaos %s %q: count varies across reps: %d vs %d",
						a.name, sc.name, got.Count, r.Count)
				}
				if rep == 0 || got.Elapsed < r.Elapsed {
					r = got
				}
			}
			if i == 0 {
				want = r.Count
			} else if r.Count != want {
				return nil, fmt.Errorf("ablation-chaos %s %q: count %d, want %d",
					a.name, sc.name, r.Count, want)
			}
			if ai == 0 {
				first[sc.name] = r
			}
			t.AddRow(a.name, sc.name, elapsedStr(r.Elapsed),
				FmtCount(r.Summary.FaultsInjected), FmtCount(r.Summary.FetchRetries),
				fmt.Sprintf("%d", r.RecoveryRounds),
				fmt.Sprintf("%v", r.DeadNodes),
				fmt.Sprintf("%d/%d", r.Summary.CorruptFrames, r.Summary.Redials),
				fmt.Sprintf("%d/%d", r.Summary.HeartbeatMisses, r.Summary.NodesSuspected),
				fmt.Sprintf("%d/%d", r.Summary.SpeculativeRanges, r.Summary.SpeculationWins))
		}
	}
	t.AddNote("all scenarios reproduce the fault-free count exactly; recovery re-executes only unfinished source-vertex ranges on survivors")
	if base, res := first["baseline"].Elapsed, first["resilient, no faults"].Elapsed; base > 0 {
		t.AddNote("retry layer with no faults vs the plain cluster: %+.1f%%",
			100*(float64(res)-float64(base))/float64(base))
	}
	if base, hb := first["tcp wire (crc)"].Elapsed, first["tcp + heartbeat"].Elapsed; base > 0 {
		t.AddNote("CRC-framed TCP + heartbeat overhead vs CRC-framed TCP alone: %+.1f%%",
			100*(float64(hb)-float64(base))/float64(base))
	}
	for _, name := range []string{"crash n1", "partition 0+1+2|3"} {
		off, on := first[name], first[name+" + heartbeat"]
		if on.Elapsed > 0 {
			t.AddNote("%s: detector off vs on %.2fx elapsed; nodes suspected %d vs %d",
				name, float64(off.Elapsed)/float64(on.Elapsed), off.Summary.NodesSuspected, on.Summary.NodesSuspected)
		}
	}
	if slow, spec := first["slow n1 x200"].Elapsed, first["slow n1 x200 + speculation"].Elapsed; spec > 0 {
		t.AddNote("speculation vs straggler-bound run: %.2fx elapsed", float64(slow)/float64(spec))
	}
	return t, nil
}

// chaosScenario is one row of the chaos experiment.
type chaosScenario struct {
	name string
	// resilient runs the retry layer, by setting its fetch deadline. Every
	// scenario that injects faults, runs the heartbeat detector or
	// speculates needs it (and the cluster would turn it on regardless), so
	// the table states it on each such row.
	resilient  bool
	prof       *fault.Profile
	transport  cluster.Transport
	heartbeat  bool
	speculate  bool
	concurrent bool // run node slots concurrently (needed for speculation)
	chunk      int  // root-range granularity override (0 = experiment default)
	reps       int  // repetitions, keeping the fastest (0 = once)
}

// The faults the detector's rent rows pair up: node 1 crashed after 10
// served fetches, and nodes 0–2 cut off from node 3 after 2 fetches.
var (
	crashN1    = &fault.Profile{Seed: 7, Crashes: []fault.Crash{{Node: 1, After: 10}}}
	partition3 = &fault.Profile{Seed: 7, Partitions: []fault.Partition{{A: []int{0, 1, 2}, B: []int{3}, After: 2}}}
)

var chaosScenarios = []chaosScenario{
	// The healthy pair measures the retry layer's steady-state cost: the
	// plain cluster against the layer with nothing to absorb. Like the TCP
	// pair below, each reports its best of three runs.
	{name: "baseline", reps: 3},
	{name: "resilient, no faults", resilient: true, reps: 3},
	{name: "transient err=5%", resilient: true, prof: &fault.Profile{Seed: 7, ErrorRate: 0.05}},
	{name: "err=5% + crash n1", resilient: true, prof: &fault.Profile{
		Seed: 7, ErrorRate: 0.05, Crashes: []fault.Crash{{Node: 1, After: 10}},
	}},
	// The detector's rent rows: each fault alone, with the detector off and
	// on, everything else held fixed. The note reports the elapsed ratio and
	// how many nodes the detector suspected before the breaker's verdict.
	{name: "crash n1", resilient: true, prof: crashN1},
	{name: "crash n1 + heartbeat", resilient: true, heartbeat: true, prof: crashN1},
	// The two TCP rows form the protocol-overhead comparison; both run the
	// retry layer, so the difference is the detector alone. They are
	// noise-sensitive, so each reports its best of three runs. The detector
	// runs at a 50ms interval — brisk enough to beat the breaker's timeout
	// path to a verdict by an order of magnitude, without 56 ping pairs
	// competing with compute for cycles.
	{name: "tcp wire (crc)", resilient: true, transport: cluster.TransportTCP, reps: 3},
	{name: "tcp + heartbeat", resilient: true, transport: cluster.TransportTCP, heartbeat: true, reps: 3},
	{name: "tcp corrupt+drop=2%", resilient: true, transport: cluster.TransportTCP, prof: &fault.Profile{
		Seed: 7, CorruptRate: 0.02, DropRate: 0.02,
	}},
	{name: "partition 0+1+2|3", resilient: true, prof: partition3},
	{name: "partition 0+1+2|3 + heartbeat", resilient: true, heartbeat: true, prof: partition3},
	// The straggler pair uses fine-grained root ranges: the straggler
	// polls for cancellation only at range boundaries, so speculation's
	// win shows up as soon as ranges are small enough to checkpoint often.
	{name: "slow n1 x200", resilient: true, concurrent: true, chunk: 256, prof: &fault.Profile{
		Seed: 7, Slowdowns: []fault.Slowdown{{Node: 1, Factor: 200}},
	}},
	{name: "slow n1 x200 + speculation", resilient: true, concurrent: true, speculate: true, chunk: 256, prof: &fault.Profile{
		Seed: 7, Slowdowns: []fault.Slowdown{{Node: 1, Factor: 200}},
	}},
}

// config is the cluster a scenario runs on. Only scenarios that run the
// retry layer get its short deadlines: any of those settings turns the layer
// on, so setting them on the baseline would make it the layer compared with
// itself.
func (sc chaosScenario) config(o Options) cluster.Config {
	cfg := cluster.Config{
		NumNodes:             o.Nodes,
		ThreadsPerSocket:     o.Threads,
		ChunkSize:            experimentChunkSize,
		CacheFraction:        0.10,
		CacheDegreeThreshold: 8,
		SequentialNodes:      !sc.concurrent,
		Transport:            sc.transport,
		Heartbeat:            sc.heartbeat,
		HeartbeatInterval:    50 * time.Millisecond,
		Speculate:            sc.speculate,
		Fault:                sc.prof,
	}
	if sc.chunk > 0 {
		cfg.ChunkSize = sc.chunk
	}
	if sc.resilient {
		cfg.FetchTimeout = 50 * time.Millisecond
		cfg.RetryBackoff = 200 * time.Microsecond
	}
	return cfg
}

package fault

import (
	"errors"
	"testing"
	"time"

	"khuzdul/internal/comm"
	"khuzdul/internal/graph"
	"khuzdul/internal/leakcheck"
	"khuzdul/internal/metrics"
	"khuzdul/internal/partition"
)

// testServers serves a small graph partitioned over nodes machines.
func testServers(g *graph.Graph, nodes int) []comm.Server {
	asg := partition.NewAssignment(nodes, 1)
	servers := make([]comm.Server, nodes)
	for node := 0; node < nodes; node++ {
		local := partition.NewLocal(g, asg, node)
		servers[node] = comm.ServerFunc(func(ids []graph.VertexID) [][]graph.VertexID {
			out := make([][]graph.VertexID, len(ids))
			for i, id := range ids {
				out[i] = local.MustNeighbors(id)
			}
			return out
		})
	}
	return servers
}

// testFabric builds a Local fabric over a small partitioned graph.
func testFabric(g *graph.Graph, nodes int, m *metrics.Cluster) *comm.Local {
	return comm.NewLocal(testServers(g, nodes), m)
}

// decisions replays the injector's transient-error decision sequence for one
// pair by issuing fetches serially and recording which ones fail.
func decisions(t *testing.T, seed int64, count int) []bool {
	t.Helper()
	g := graph.RMATDefault(100, 400, 5)
	asg := partition.NewAssignment(2, 1)
	in := NewInjector(Profile{Seed: seed, ErrorRate: 0.3}, 2, nil)
	f := in.Wrap(testFabric(g, 2, nil))
	defer f.Close()
	var v graph.VertexID
	for u := 0; u < g.NumVertices(); u++ {
		if asg.Owner(graph.VertexID(u)) == 1 {
			v = graph.VertexID(u)
			break
		}
	}
	out := make([]bool, count)
	for i := range out {
		_, err := f.Fetch(0, 1, []graph.VertexID{v})
		if err != nil && !errors.Is(err, ErrInjected) {
			t.Fatalf("unexpected error class: %v", err)
		}
		out[i] = err != nil
	}
	return out
}

func TestInjectionDeterministicGivenSeed(t *testing.T) {
	a := decisions(t, 42, 400)
	b := decisions(t, 42, 400)
	var failures int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across runs with equal seed", i)
		}
		if a[i] {
			failures++
		}
	}
	if failures == 0 || failures == len(a) {
		t.Fatalf("degenerate error injection: %d/%d failures", failures, len(a))
	}
	c := decisions(t, 43, 400)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical fault patterns")
	}
}

func TestZeroProfileInjectsNothing(t *testing.T) {
	g := graph.RMATDefault(100, 400, 5)
	m := metrics.NewCluster(2)
	in := NewInjector(Profile{Seed: 1}, 2, m)
	f := in.Wrap(testFabric(g, 2, m))
	defer f.Close()
	asg := partition.NewAssignment(2, 1)
	for u := 0; u < g.NumVertices(); u++ {
		id := graph.VertexID(u)
		owner := asg.Owner(id)
		if _, err := f.Fetch(1-owner, owner, []graph.VertexID{id}); err != nil {
			t.Fatalf("zero profile injected a fault: %v", err)
		}
	}
	if got := m.Summarize().FaultsInjected; got != 0 {
		t.Fatalf("FaultsInjected = %d, want 0", got)
	}
}

func TestCrashSemantics(t *testing.T) {
	g := graph.RMATDefault(100, 400, 5)
	asg := partition.NewAssignment(2, 1)
	in := NewInjector(Profile{Seed: 1, Crashes: []Crash{{Node: 1, After: 3}}}, 2, nil)
	f := in.Wrap(testFabric(g, 2, nil))
	var v graph.VertexID
	for u := 0; u < g.NumVertices(); u++ {
		if asg.Owner(graph.VertexID(u)) == 1 {
			v = graph.VertexID(u)
			break
		}
	}
	// The first three fetches are served.
	for i := 0; i < 3; i++ {
		if _, err := f.Fetch(0, 1, []graph.VertexID{v}); err != nil {
			t.Fatalf("fetch %d before crash: %v", i, err)
		}
	}
	if in.Crashed(1) {
		t.Fatal("node crashed before its threshold")
	}
	// The fourth hangs (answers nothing); it is released by Close.
	done := make(chan error, 1)
	go func() {
		_, err := f.Fetch(0, 1, []graph.VertexID{v})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("fetch to crashed node returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	f.Close()
	if err := <-done; !errors.Is(err, ErrNodeCrashed) {
		t.Fatalf("post-close error = %v, want ErrNodeCrashed", err)
	}
	if !in.Crashed(1) || in.Crashed(0) {
		t.Fatalf("crashed: node1=%v node0=%v, want only node 1", in.Crashed(1), in.Crashed(0))
	}
}

func TestCrashedRequesterFailsFastAndPermanent(t *testing.T) {
	g := graph.RMATDefault(50, 200, 5)
	in := NewInjector(Profile{Seed: 1, Crashes: []Crash{{Node: 0, After: 0}}}, 2, nil)
	f := in.Wrap(testFabric(g, 2, nil))
	defer f.Close()
	// Crash node 0 by having it serve one fetch (After: 0 → the first serve
	// crosses the threshold and hangs; the deferred Close releases it).
	go func() { _, _ = f.Fetch(1, 0, nil) }()
	deadline := time.Now().Add(2 * time.Second)
	for !in.Crashed(0) {
		if time.Now().After(deadline) {
			t.Fatal("node 0 never crashed")
		}
		time.Sleep(time.Millisecond)
	}
	_, err := f.Fetch(0, 1, nil)
	if !errors.Is(err, ErrNodeCrashed) {
		t.Fatalf("err = %v, want ErrNodeCrashed", err)
	}
	var pe comm.PermanentError
	if !errors.As(err, &pe) || !pe.Permanent() {
		t.Fatalf("crashed-requester error not permanent: %v", err)
	}
}

func TestInjectedLatency(t *testing.T) {
	g := graph.RMATDefault(50, 200, 5)
	asg := partition.NewAssignment(2, 1)
	in := NewInjector(Profile{Seed: 1, MaxLatency: 2 * time.Millisecond}, 2, nil)
	f := in.Wrap(testFabric(g, 2, nil))
	defer f.Close()
	var v graph.VertexID
	for u := 0; u < g.NumVertices(); u++ {
		if asg.Owner(graph.VertexID(u)) == 1 {
			v = graph.VertexID(u)
			break
		}
	}
	start := time.Now()
	for i := 0; i < 20; i++ {
		if _, err := f.Fetch(0, 1, []graph.VertexID{v}); err != nil {
			t.Fatal(err)
		}
	}
	// 20 fetches with uniform latency in [0,2ms) should take ~20ms; assert a
	// loose lower bound to confirm latency is actually injected.
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Fatalf("20 fetches in %v: latency not injected", elapsed)
	}
}

func TestParseProfileWireAndTopologyKeys(t *testing.T) {
	p, err := ParseProfile("seed=9,corrupt=0.01,drop=0.02,partition=0+1|2+3@100,slow=2:12.5")
	if err != nil {
		t.Fatal(err)
	}
	if p.CorruptRate != 0.01 || p.DropRate != 0.02 {
		t.Fatalf("wire rates parsed as %+v", p)
	}
	if len(p.Partitions) != 1 {
		t.Fatalf("partitions %+v", p.Partitions)
	}
	pa := p.Partitions[0]
	if len(pa.A) != 2 || pa.A[0] != 0 || pa.A[1] != 1 ||
		len(pa.B) != 2 || pa.B[0] != 2 || pa.B[1] != 3 || pa.After != 100 {
		t.Fatalf("partition %+v", pa)
	}
	if len(p.Slowdowns) != 1 || p.Slowdowns[0] != (Slowdown{Node: 2, Factor: 12.5}) {
		t.Fatalf("slowdowns %+v", p.Slowdowns)
	}
	// Round trip through String must preserve every facet.
	q, err := ParseProfile(p.String())
	if err != nil {
		t.Fatalf("round trip parse: %v", err)
	}
	if q.CorruptRate != p.CorruptRate || q.DropRate != p.DropRate ||
		len(q.Partitions) != 1 || len(q.Slowdowns) != 1 ||
		q.Partitions[0].After != 100 || q.Slowdowns[0].Factor != 12.5 {
		t.Fatalf("round trip lost facets: %q -> %+v", p.String(), q)
	}
	bad := []string{
		"corrupt=2", "corrupt=x", "drop=-0.5",
		"partition=0|@5", "partition=|1@5", "partition=0|1", "partition=0@5",
		"partition=0|0@5", "partition=a|1@5", "partition=0|1@x",
		"slow=1:0", "slow=1:-2", "slow=1", "slow=x:2", "slow=-1:2",
	}
	for _, spec := range bad {
		if _, err := ParseProfile(spec); err == nil {
			t.Fatalf("ParseProfile(%q) accepted", spec)
		}
	}
}

func TestPartitionAsymmetric(t *testing.T) {
	g := graph.RMATDefault(100, 400, 5)
	asg := partition.NewAssignment(2, 1)
	in := NewInjector(Profile{Seed: 1, Partitions: []Partition{{A: []int{0}, B: []int{1}, After: 2}}}, 2, nil)
	f := in.Wrap(testFabric(g, 2, nil))
	var v0, v1 graph.VertexID
	for u := 0; u < g.NumVertices(); u++ {
		id := graph.VertexID(u)
		if asg.Owner(id) == 0 {
			v0 = id
		} else {
			v1 = id
		}
	}
	// The first two fetches pass; they also advance the trigger counter.
	for i := 0; i < 2; i++ {
		if _, err := f.Fetch(0, 1, []graph.VertexID{v1}); err != nil {
			t.Fatalf("fetch %d before partition: %v", i, err)
		}
	}
	// The reverse direction keeps working even after the trigger: the
	// partition is asymmetric, only A→B traffic vanishes.
	if _, err := f.Fetch(1, 0, []graph.VertexID{v0}); err != nil {
		t.Fatalf("B→A fetch during partition: %v", err)
	}
	// A→B now hangs until the fabric is torn down.
	done := make(chan error, 1)
	go func() {
		_, err := f.Fetch(0, 1, []graph.VertexID{v1})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("partitioned fetch returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	f.Close()
	if err := <-done; !errors.Is(err, ErrInjected) {
		t.Fatalf("post-close error = %v, want ErrInjected", err)
	}
}

func TestSlowdownDelaysOnlyStraggler(t *testing.T) {
	g := graph.RMATDefault(100, 400, 5)
	asg := partition.NewAssignment(2, 1)
	in := NewInjector(Profile{Seed: 1, Slowdowns: []Slowdown{{Node: 0, Factor: 20}}}, 2, nil)
	f := in.Wrap(testFabric(g, 2, nil))
	defer f.Close()
	var v0, v1 graph.VertexID
	for u := 0; u < g.NumVertices(); u++ {
		id := graph.VertexID(u)
		if asg.Owner(id) == 0 {
			v0 = id
		} else {
			v1 = id
		}
	}
	// Straggler-issued fetches carry 20 × 200µs = 4ms each.
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := f.Fetch(0, 1, []graph.VertexID{v1}); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("5 straggler fetches in %v: slowdown not applied", elapsed)
	}
	// Fetches issued by healthy nodes (even toward the straggler) are not
	// delayed: the straggler is slow to ask, not slow to answer.
	start = time.Now()
	for i := 0; i < 5; i++ {
		if _, err := f.Fetch(1, 0, []graph.VertexID{v0}); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 10*time.Millisecond {
		t.Fatalf("5 healthy fetches took %v: slowdown leaked to the wrong node", elapsed)
	}
}

func TestSyntheticWireFaultsDeterministic(t *testing.T) {
	// The in-process fabric has no bytes to flip; handed the injector's
	// hooks, it fails corrupted and dropped exchanges with the documented
	// error classes, on a schedule fixed by the seed.
	run := func(seed int64) (corrupt, dropped []bool) {
		g := graph.RMATDefault(100, 400, 5)
		asg := partition.NewAssignment(2, 1)
		m := metrics.NewCluster(2)
		in := NewInjector(Profile{Seed: seed, CorruptRate: 0.15, DropRate: 0.15}, 2, m)
		local := testFabric(g, 2, m)
		local.SetWireFaults(in)
		f := in.Wrap(local)
		defer f.Close()
		var v graph.VertexID
		for u := 0; u < g.NumVertices(); u++ {
			if asg.Owner(graph.VertexID(u)) == 1 {
				v = graph.VertexID(u)
				break
			}
		}
		for i := 0; i < 200; i++ {
			_, err := f.Fetch(0, 1, []graph.VertexID{v})
			corrupt = append(corrupt, errors.Is(err, comm.ErrCorruptFrame))
			dropped = append(dropped, errors.Is(err, comm.ErrConnDropped))
			if err != nil && !errors.Is(err, comm.ErrCorruptFrame) && !errors.Is(err, comm.ErrConnDropped) {
				t.Fatalf("fetch %d: unexpected error class %v", i, err)
			}
		}
		if got := m.Summarize().CorruptFrames; got == 0 {
			t.Fatal("no corrupt frames accounted")
		}
		return corrupt, dropped
	}
	c1, d1 := run(42)
	c2, d2 := run(42)
	nc, nd := 0, 0
	for i := range c1 {
		if c1[i] != c2[i] || d1[i] != d2[i] {
			t.Fatalf("wire-fault decision %d differs across runs with equal seed", i)
		}
		if c1[i] {
			nc++
		}
		if d1[i] {
			nd++
		}
	}
	if nc == 0 || nd == 0 {
		t.Fatalf("degenerate schedule: %d corruptions, %d drops in 200 fetches", nc, nd)
	}
}

// TestWireFaultsAreTheTransports: corruption and drops happen inside the
// transport. An injector that corrupts and drops every exchange injects
// nothing through Wrap alone, and fails every fetch once the transport it
// wraps is handed the hooks — on both fabrics.
func TestWireFaultsAreTheTransports(t *testing.T) {
	g := graph.RMATDefault(100, 400, 5)
	asg := partition.NewAssignment(2, 1)
	var ids []graph.VertexID
	for u := 0; u < g.NumVertices() && len(ids) < 4; u++ {
		if asg.Owner(graph.VertexID(u)) == 1 {
			ids = append(ids, graph.VertexID(u))
		}
	}
	for _, name := range []string{"local", "tcp"} {
		t.Run(name, func(t *testing.T) {
			leakcheck.Check(t)
			var transport interface {
				comm.Fabric
				SetWireFaults(comm.WireFaults)
			}
			if name == "local" {
				transport = comm.NewLocal(testServers(g, 2), nil)
			} else {
				tcp, err := comm.NewTCP(testServers(g, 2), nil)
				if err != nil {
					t.Fatal(err)
				}
				transport = tcp
			}
			in := NewInjector(Profile{Seed: 1, CorruptRate: 1, DropRate: 1}, 2, nil)
			f := in.Wrap(transport)
			defer f.Close()
			for i := 0; i < 5; i++ {
				if _, err := f.Fetch(0, 1, ids); err != nil {
					t.Fatalf("fetch %d before the transport has the hooks: %v", i, err)
				}
			}
			transport.SetWireFaults(in)
			for i := 0; i < 5; i++ {
				_, err := f.Fetch(0, 1, ids)
				if !errors.Is(err, comm.ErrCorruptFrame) && !errors.Is(err, comm.ErrConnDropped) {
					t.Fatalf("fetch %d with the hooks: err %v, want a corrupt frame or a dropped connection", i, err)
				}
			}
		})
	}
}

func TestParseProfile(t *testing.T) {
	p, err := ParseProfile("seed=7,err=0.05,latency=200us,crash=2@500,crash=3@900")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.ErrorRate != 0.05 || p.MaxLatency != 200*time.Microsecond {
		t.Fatalf("parsed %+v", p)
	}
	if len(p.Crashes) != 2 || p.Crashes[0] != (Crash{Node: 2, After: 500}) || p.Crashes[1] != (Crash{Node: 3, After: 900}) {
		t.Fatalf("crashes %+v", p.Crashes)
	}
	if p.Zero() {
		t.Fatal("non-trivial profile reported Zero")
	}
	// Round trip through String.
	q, err := ParseProfile(p.String())
	if err != nil || q.Seed != p.Seed || q.ErrorRate != p.ErrorRate || len(q.Crashes) != 2 {
		t.Fatalf("round trip: %+v, %v", q, err)
	}
	for _, spec := range []string{"", "none", "off"} {
		if p, err := ParseProfile(spec); p != nil || err != nil {
			t.Fatalf("ParseProfile(%q) = %v, %v", spec, p, err)
		}
	}
	for _, bad := range []string{"err=2", "seed=x", "crash=5", "latency=-1s", "bogus=1", "err"} {
		if _, err := ParseProfile(bad); err == nil {
			t.Fatalf("ParseProfile(%q) accepted", bad)
		}
	}
}

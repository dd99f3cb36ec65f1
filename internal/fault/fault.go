// Package fault injects deterministic, seedable faults into a communication
// fabric. It wraps any comm.Fabric (the in-process fabric or the TCP
// loopback fabric) and perturbs fetches with three fault classes drawn from
// the failure model of production GPM deployments:
//
//   - transient fetch errors (dropped/reset connections, recoverable by
//     retrying),
//   - added latency (congestion, stragglers),
//   - permanent node crashes: from fault time on, the crashed node's server
//     answers nothing (callers hang until their deadline) and fetches issued
//     *by* the crashed node fail fast with a permanent error (the process is
//     gone).
//
// All decisions derive from a seed hashed with the (from, to) pair and a
// per-pair sequence number, so a given seed reproduces the same fault
// pattern per connection pair regardless of how goroutines interleave
// globally. Injection is off by default and costs nothing when no Injector
// wraps the fabric.
package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"khuzdul/internal/comm"
	"khuzdul/internal/graph"
	"khuzdul/internal/metrics"
)

// ErrInjected marks a transient injected fetch error; retrying may succeed.
var ErrInjected = errors.New("fault: injected transient error")

// ErrConnDropped marks an injected mid-exchange connection drop on a fabric
// with no real connections to sever (the in-process fabric); retrying
// redials and may succeed.
var ErrConnDropped = errors.New("fault: injected connection drop")

// ErrNodeCrashed marks a fetch attempted by a node that has permanently
// crashed. It is a permanent error: retrying cannot fix it.
var ErrNodeCrashed = errors.New("fault: node crashed")

// crashedError reports a fetch from a crashed node and satisfies
// comm.PermanentError so the retry layer fails fast instead of retrying.
type crashedError struct{ node int }

func (e crashedError) Error() string {
	return fmt.Sprintf("fault: node %d crashed: %v", e.node, ErrNodeCrashed)
}
func (e crashedError) Unwrap() error   { return ErrNodeCrashed }
func (e crashedError) Permanent() bool { return true }

// Crash schedules one permanent node failure.
type Crash struct {
	// Node is the machine that crashes.
	Node int
	// After is the number of fetches the node serves before crashing: the
	// first After fetches targeting it are answered, every later one hangs.
	After uint64
}

// Partition schedules one asymmetric network partition: once the cluster's
// total fetch count passes After, every fetch (and heartbeat) from a node in
// A to a node in B hangs until its deadline — B's traffic toward A remains
// untouched, so the two sides disagree about who is reachable, the hard case
// for failure detection.
type Partition struct {
	A, B  []int
	After uint64
}

// Slowdown makes one node a straggler: every fetch the node issues is
// delayed by Factor × the profile's latency unit (MaxLatency when set,
// otherwise 200µs). The node stays alive and its server answers at full
// speed — it is merely slow, which is exactly what straggler speculation
// (not failure recovery) must handle.
type Slowdown struct {
	Node   int
	Factor float64
}

// slowUnit is the per-fetch delay base for Slowdown when the profile sets
// no MaxLatency.
const slowUnit = 200 * time.Microsecond

// Profile configures fault injection. The zero value injects nothing.
type Profile struct {
	// Seed makes the injected fault pattern reproducible.
	Seed int64
	// ErrorRate is the probability in [0,1] that a fetch fails with a
	// transient error before reaching the transport.
	ErrorRate float64
	// CorruptRate is the probability in [0,1] that a fetch's request frame
	// is corrupted. On the TCP fabric a payload byte is flipped after the
	// CRC is computed, so the receiver's integrity check must catch it; on
	// the in-process fabric (no bytes exist) the detection outcome —
	// comm.ErrCorruptFrame — is injected directly.
	CorruptRate float64
	// DropRate is the probability in [0,1] that the connection is severed
	// mid-exchange, after the request is sent and before the response
	// arrives. On the TCP fabric the socket really closes (forcing a
	// redial); the in-process fabric surfaces ErrConnDropped.
	DropRate float64
	// MaxLatency, when positive, adds a deterministic pseudo-random delay in
	// [0, MaxLatency) to every fetch.
	MaxLatency time.Duration
	// Crashes lists permanent node failures.
	Crashes []Crash
	// Partitions lists asymmetric network partitions.
	Partitions []Partition
	// Slowdowns lists per-node straggler factors.
	Slowdowns []Slowdown
}

// Zero reports whether the profile injects no faults at all.
func (p Profile) Zero() bool {
	return p.ErrorRate <= 0 && p.CorruptRate <= 0 && p.DropRate <= 0 &&
		p.MaxLatency <= 0 && len(p.Crashes) == 0 && len(p.Partitions) == 0 &&
		len(p.Slowdowns) == 0
}

// ParseProfile parses a CLI fault-profile spec: comma-separated
// key=value items among
//
//	seed=N            decision seed (default 1)
//	err=F             transient error probability in [0,1]
//	corrupt=F         frame corruption probability in [0,1]
//	drop=F            mid-exchange connection-drop probability in [0,1]
//	latency=D         max injected latency (Go duration, e.g. 500us)
//	crash=NODE@N      node NODE crashes after serving N fetches (repeatable)
//	partition=A|B@N   after N total fetches, nodes A cannot reach nodes B
//	                  (A, B are +-separated lists, e.g. 0+1|2+3@100; repeatable)
//	slow=NODE:FACTOR  node NODE's fetches are delayed FACTOR× the latency
//	                  unit (repeatable)
//
// Example: "seed=7,err=0.05,corrupt=0.01,crash=2@500,slow=1:4". Empty
// string and "none" return nil (no injection).
func ParseProfile(spec string) (*Profile, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" || spec == "off" {
		return nil, nil
	}
	p := &Profile{Seed: 1}
	for _, item := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("fault: bad profile item %q (want key=value)", item)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q", v)
			}
			p.Seed = n
		case "err", "corrupt", "drop":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f > 1 {
				return nil, fmt.Errorf("fault: bad %s rate %q (want [0,1])", k, v)
			}
			switch k {
			case "err":
				p.ErrorRate = f
			case "corrupt":
				p.CorruptRate = f
			case "drop":
				p.DropRate = f
			}
		case "latency":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("fault: bad latency %q", v)
			}
			p.MaxLatency = d
		case "crash":
			nodeStr, afterStr, ok := strings.Cut(v, "@")
			if !ok {
				return nil, fmt.Errorf("fault: bad crash spec %q (want NODE@N)", v)
			}
			node, err1 := strconv.Atoi(nodeStr)
			after, err2 := strconv.ParseUint(afterStr, 10, 64)
			if err1 != nil || err2 != nil || node < 0 {
				return nil, fmt.Errorf("fault: bad crash spec %q", v)
			}
			p.Crashes = append(p.Crashes, Crash{Node: node, After: after})
		case "partition":
			part, err := parsePartition(v)
			if err != nil {
				return nil, err
			}
			p.Partitions = append(p.Partitions, part)
		case "slow":
			nodeStr, facStr, ok := strings.Cut(v, ":")
			if !ok {
				return nil, fmt.Errorf("fault: bad slow spec %q (want NODE:FACTOR)", v)
			}
			node, err1 := strconv.Atoi(nodeStr)
			fac, err2 := strconv.ParseFloat(facStr, 64)
			if err1 != nil || err2 != nil || node < 0 || fac <= 0 {
				return nil, fmt.Errorf("fault: bad slow spec %q (want NODE:FACTOR with FACTOR > 0)", v)
			}
			p.Slowdowns = append(p.Slowdowns, Slowdown{Node: node, Factor: fac})
		default:
			return nil, fmt.Errorf("fault: unknown profile key %q", k)
		}
	}
	return p, nil
}

// parsePartition parses "A|B@N" with A, B as +-separated node lists.
func parsePartition(v string) (Partition, error) {
	spec, afterStr, ok := strings.Cut(v, "@")
	if !ok {
		return Partition{}, fmt.Errorf("fault: bad partition spec %q (want A|B@N)", v)
	}
	after, err := strconv.ParseUint(afterStr, 10, 64)
	if err != nil {
		return Partition{}, fmt.Errorf("fault: bad partition trigger %q", afterStr)
	}
	aStr, bStr, ok := strings.Cut(spec, "|")
	if !ok {
		return Partition{}, fmt.Errorf("fault: bad partition spec %q (want A|B@N)", v)
	}
	parseSide := func(s string) ([]int, error) {
		var out []int
		for _, f := range strings.Split(s, "+") {
			n, err := strconv.Atoi(f)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("fault: bad partition node %q in %q", f, v)
			}
			out = append(out, n)
		}
		return out, nil
	}
	a, err := parseSide(aStr)
	if err != nil {
		return Partition{}, err
	}
	b, err := parseSide(bStr)
	if err != nil {
		return Partition{}, err
	}
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return Partition{}, fmt.Errorf("fault: partition sides overlap on node %d in %q", x, v)
			}
		}
	}
	return Partition{A: a, B: b, After: after}, nil
}

// String renders the profile in ParseProfile syntax.
func (p Profile) String() string {
	parts := []string{fmt.Sprintf("seed=%d", p.Seed)}
	if p.ErrorRate > 0 {
		parts = append(parts, fmt.Sprintf("err=%g", p.ErrorRate))
	}
	if p.CorruptRate > 0 {
		parts = append(parts, fmt.Sprintf("corrupt=%g", p.CorruptRate))
	}
	if p.DropRate > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", p.DropRate))
	}
	if p.MaxLatency > 0 {
		parts = append(parts, fmt.Sprintf("latency=%v", p.MaxLatency))
	}
	for _, c := range p.Crashes {
		parts = append(parts, fmt.Sprintf("crash=%d@%d", c.Node, c.After))
	}
	for _, pa := range p.Partitions {
		side := func(ns []int) string {
			ss := make([]string, len(ns))
			for i, n := range ns {
				ss[i] = strconv.Itoa(n)
			}
			return strings.Join(ss, "+")
		}
		parts = append(parts, fmt.Sprintf("partition=%s|%s@%d", side(pa.A), side(pa.B), pa.After))
	}
	for _, s := range p.Slowdowns {
		parts = append(parts, fmt.Sprintf("slow=%d:%g", s.Node, s.Factor))
	}
	return strings.Join(parts, ",")
}

// Injector holds the fault state of one simulated cluster: a node that
// crashed during a run stays crashed for every later run and recovery round
// over the cluster's fabric.
type Injector struct {
	prof    Profile
	n       int
	met     *metrics.Cluster
	crashed []atomic.Bool
	served  []atomic.Uint64 // fetches served per target node (crash trigger)
	total   atomic.Uint64   // total fetches across the cluster (partition trigger)
	pairSeq []atomic.Uint64 // per (from,to) decision sequence numbers
	// wireSeq drives the byte-level wire-fault decisions (corrupt/drop) on
	// fabrics that apply them natively, independent of pairSeq so the two
	// decision streams never perturb each other.
	wireSeq []atomic.Uint64
	// hwWireFaults records that some wrapped fabric applies corrupt/drop at
	// the byte level, so the wrapper must not also inject them
	// synthetically.
	hwWireFaults atomic.Bool
	slowOf       []float64 // per-node straggler factor (0 = full speed)
}

// NewInjector returns fault state for a numNodes cluster. m may be nil to
// disable fault accounting.
func NewInjector(p Profile, numNodes int, m *metrics.Cluster) *Injector {
	in := &Injector{
		prof:    p,
		n:       numNodes,
		met:     m,
		crashed: make([]atomic.Bool, numNodes),
		served:  make([]atomic.Uint64, numNodes),
		pairSeq: make([]atomic.Uint64, numNodes*numNodes),
		wireSeq: make([]atomic.Uint64, numNodes*numNodes),
		slowOf:  make([]float64, numNodes),
	}
	for _, s := range p.Slowdowns {
		if s.Node >= 0 && s.Node < numNodes {
			in.slowOf[s.Node] = s.Factor
		}
	}
	return in
}

// partitioned reports whether the (from → to) direction is inside an active
// asymmetric partition.
func (in *Injector) partitioned(from, to int) bool {
	if len(in.prof.Partitions) == 0 {
		return false
	}
	total := in.total.Load()
	for _, p := range in.prof.Partitions {
		if total <= p.After {
			continue
		}
		inA, inB := false, false
		for _, n := range p.A {
			if n == from {
				inA = true
				break
			}
		}
		for _, n := range p.B {
			if n == to {
				inB = true
				break
			}
		}
		if inA && inB {
			return true
		}
	}
	return false
}

// slowDelay returns the straggler delay for fetches issued by node, or 0.
func (in *Injector) slowDelay(node int) time.Duration {
	if node < 0 || node >= in.n || in.slowOf[node] == 0 {
		return 0
	}
	unit := in.prof.MaxLatency
	if unit <= 0 {
		unit = slowUnit
	}
	return time.Duration(in.slowOf[node] * float64(unit))
}

// CorruptFrame implements comm.WireFaults: decide deterministically whether
// this exchange's request frame gets a byte flipped on the wire.
func (in *Injector) CorruptFrame(from, to int) bool {
	if in.prof.CorruptRate <= 0 || from < 0 || from >= in.n || to < 0 || to >= in.n {
		return false
	}
	seq := in.wireSeq[from*in.n+to].Add(1)
	return unitFloat(mix64(uint64(in.prof.Seed), uint64(from)<<32|uint64(to)|0xc0<<56, seq)) < in.prof.CorruptRate
}

// DropAfterSend implements comm.WireFaults: decide deterministically whether
// the connection is severed between request and response.
func (in *Injector) DropAfterSend(from, to int) bool {
	if in.prof.DropRate <= 0 || from < 0 || from >= in.n || to < 0 || to >= in.n {
		return false
	}
	seq := in.wireSeq[from*in.n+to].Add(1)
	return unitFloat(mix64(uint64(in.prof.Seed), uint64(from)<<32|uint64(to)|0xd0<<56, seq)) < in.prof.DropRate
}

// Profile returns the injector's profile.
func (in *Injector) Profile() Profile { return in.prof }

// Crashed reports whether node has permanently crashed.
func (in *Injector) Crashed(node int) bool {
	return node >= 0 && node < in.n && in.crashed[node].Load()
}

// Wrap returns a fabric that injects this injector's faults in front of
// inner. When inner can apply corrupt/drop faults at the byte level (the
// TCP fabric), the injector delegates those two classes to it — real bytes
// get flipped and real sockets get severed, and the integrity protocol must
// catch them; otherwise the detection outcome is injected synthetically.
// Closing the wrapper releases callers hanging on crashed nodes and closes
// inner.
func (in *Injector) Wrap(inner comm.Fabric) comm.Fabric {
	if wf, ok := inner.(comm.WireFaultable); ok && (in.prof.CorruptRate > 0 || in.prof.DropRate > 0) {
		wf.SetWireFaults(in)
		in.hwWireFaults.Store(true)
	}
	return &fabric{in: in, inner: inner, closed: make(chan struct{})}
}

type fabric struct {
	in     *Injector
	inner  comm.Fabric
	closed chan struct{}
	once   sync.Once
}

// Fetch implements comm.Fabric with fault injection around inner.Fetch.
func (f *fabric) Fetch(from, to int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	in := f.in
	if in.Crashed(from) {
		// The requesting process is dead; its engine must stop immediately.
		return nil, crashedError{node: from}
	}
	in.total.Add(1)
	if to >= 0 && to < in.n {
		// Count the serve attempt against the target, possibly crossing its
		// crash threshold.
		n := in.served[to].Add(1)
		for _, c := range in.prof.Crashes {
			if c.Node == to && n > c.After {
				in.crashed[to].Store(true)
			}
		}
		if in.Crashed(to) {
			// A crashed server answers nothing from fault time on: hang until
			// the fabric is torn down (callers escape via their deadline).
			<-f.closed
			return nil, fmt.Errorf("fault: fabric closed while awaiting crashed node %d: %w", to, ErrNodeCrashed)
		}
	}
	if in.partitioned(from, to) {
		// An unreachable peer looks exactly like a dead one from this side:
		// the request vanishes and the caller waits out its deadline.
		<-f.closed
		return nil, fmt.Errorf("fault: fabric closed while awaiting partitioned node %d: %w", to, ErrInjected)
	}
	if d := in.slowDelay(from); d > 0 {
		time.Sleep(d)
	}
	if !in.prof.Zero() && from >= 0 && from < in.n && to >= 0 && to < in.n {
		seq := in.pairSeq[from*in.n+to].Add(1)
		h := mix64(uint64(in.prof.Seed), uint64(from)<<32|uint64(to), seq)
		if d := in.prof.MaxLatency; d > 0 {
			time.Sleep(time.Duration(mix64(h, 0xa5, seq) % uint64(d)))
		}
		if r := in.prof.ErrorRate; r > 0 && unitFloat(mix64(h, 0x5a, seq)) < r {
			if in.met != nil {
				in.met.Nodes[from].FaultsInjected.Add(1)
			}
			return nil, fmt.Errorf("fault: fetch %d->%d (pair seq %d): %w", from, to, seq, ErrInjected)
		}
		if !in.hwWireFaults.Load() {
			// The transport cannot flip real bytes; inject the detection
			// outcomes the integrity layer would have produced.
			if r := in.prof.CorruptRate; r > 0 && unitFloat(mix64(h, 0xc0, seq)) < r {
				if in.met != nil {
					in.met.Nodes[from].CorruptFrames.Add(1)
					in.met.Nodes[from].FaultsInjected.Add(1)
				}
				return nil, fmt.Errorf("fault: fetch %d->%d (pair seq %d): %w", from, to, seq, comm.ErrCorruptFrame)
			}
			if r := in.prof.DropRate; r > 0 && unitFloat(mix64(h, 0xd0, seq)) < r {
				if in.met != nil {
					in.met.Nodes[from].FaultsInjected.Add(1)
				}
				return nil, fmt.Errorf("fault: fetch %d->%d (pair seq %d): %w", from, to, seq, ErrConnDropped)
			}
		}
	}
	return f.inner.Fetch(from, to, ids)
}

// Ping implements comm.Fabric with the liveness-relevant fault classes:
// pings hang toward crashed or partitioned peers (heartbeat misses), but
// skip latency, straggler delay and the probabilistic error classes — a
// slow or flaky node is still alive, and the failure detector must not
// confuse the two. Pings do not advance the crash/partition trigger
// counters, so detector traffic never perturbs the deterministic fault
// schedule of the data path.
func (f *fabric) Ping(from, to int) error {
	in := f.in
	if in.Crashed(from) {
		return crashedError{node: from}
	}
	if in.Crashed(to) || in.partitioned(from, to) {
		<-f.closed
		return fmt.Errorf("fault: fabric closed while pinging unreachable node %d: %w", to, ErrNodeCrashed)
	}
	return f.inner.Ping(from, to)
}

// Close implements comm.Fabric.
func (f *fabric) Close() error {
	f.once.Do(func() { close(f.closed) })
	return f.inner.Close()
}

// mix64 is a splitmix64-style hash over three words, driving all injection
// decisions deterministically.
func mix64(a, b, c uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b*0xbf58476d1ce4e5b9 + c*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unitFloat maps a hash to [0,1).
func unitFloat(h uint64) float64 { return float64(h>>11) / (1 << 53) }

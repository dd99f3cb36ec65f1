package comm

import (
	"sync"
	"sync/atomic"
	"time"

	"khuzdul/internal/metrics"
)

// Heartbeat failure detection: one goroutine per machine pings every peer,
// and a peer missing Misses consecutive pings from a live node is suspect.
// The cluster does not run it — the circuit breaker reached every verdict
// first (DESIGN.md, "What pays rent") — and it remains only for bench/'s
// fabric-stack probe.

// DetectorConfig tunes the heartbeat failure detector.
type DetectorConfig struct {
	// Interval is the ping period per (node, peer) pair. Default 20ms.
	Interval time.Duration
	// Timeout bounds one ping round trip. Default 2×Interval.
	Timeout time.Duration
	// Misses is the number of consecutive failed pings to a peer after
	// which it is declared suspect. Default 3.
	Misses int
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Interval <= 0 {
		c.Interval = 20 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * c.Interval
	}
	if c.Misses <= 0 {
		c.Misses = 3
	}
	return c
}

// Detector is a running heartbeat failure detector over one fabric.
type Detector struct {
	fabric Fabric
	n      int
	cfg    DetectorConfig

	// selfDead, when set, reports that a node's own process is gone (e.g.
	// crashed by fault injection); its detector goroutine stops accusing
	// peers, exactly as a dead process's timers stop firing.
	selfDead func(node int) bool

	suspected []atomic.Bool
	misses    []atomic.Int32 // consecutive misses per (from,to) pair
	inflight  []atomic.Bool  // one outstanding ping per pair

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// NewDetector builds a detector for a numNodes cluster over fabric. The
// metrics argument is ignored: the detector accounts nothing. selfDead may be
// nil when nodes cannot die outside the detector's own view.
func NewDetector(fabric Fabric, numNodes int, cfg DetectorConfig, _ *metrics.Cluster, selfDead func(int) bool) *Detector {
	return &Detector{
		fabric:    fabric,
		n:         numNodes,
		cfg:       cfg.withDefaults(),
		selfDead:  selfDead,
		suspected: make([]atomic.Bool, numNodes),
		misses:    make([]atomic.Int32, numNodes*numNodes),
		inflight:  make([]atomic.Bool, numNodes*numNodes),
		stop:      make(chan struct{}),
	}
}

// Start launches one heartbeat goroutine per node.
func (d *Detector) Start() {
	for node := 0; node < d.n; node++ {
		d.wg.Add(1)
		go d.runNode(node)
	}
}

// Stop halts the heartbeat goroutines. Pings already in flight against hung
// peers are abandoned; they unpark when the fabric closes.
func (d *Detector) Stop() {
	d.once.Do(func() { close(d.stop) })
	d.wg.Wait()
}

// Suspected reports whether the detector has declared node suspect.
func (d *Detector) Suspected(node int) bool {
	return node >= 0 && node < d.n && d.suspected[node].Load()
}

// runNode is one machine's heartbeat loop: ping every peer each interval,
// with at most one outstanding ping per pair.
//
//khuzdulvet:longrun heartbeat loop; must exit promptly on stop
func (d *Detector) runNode(node int) {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
		}
		if d.selfDead != nil && d.selfDead(node) {
			return // a crashed process stops heartbeating
		}
		for peer := 0; peer < d.n; peer++ {
			if peer == node || d.suspected[peer].Load() {
				continue
			}
			pair := node*d.n + peer
			if !d.inflight[pair].CompareAndSwap(false, true) {
				continue // previous ping to this peer still outstanding
			}
			d.wg.Add(1)
			go d.pingOnce(node, peer, pair)
		}
	}
}

// pingOnce sends one deadline-bounded ping and applies the verdict. A ping
// that outlives its deadline counts as a miss and releases the pair for the
// next probe — otherwise one hung ping would freeze the miss counter at one
// forever. The hung goroutine itself stays parked until the transport
// releases it (fabric close); accumulation is bounded at Misses goroutines
// per pair, because suspicion stops further probing of that peer.
func (d *Detector) pingOnce(node, peer, pair int) {
	defer d.wg.Done()
	defer d.inflight[pair].Store(false)
	done := make(chan error, 1)
	go func() { done <- d.fabric.Ping(node, peer) }()
	t := time.NewTimer(d.cfg.Timeout)
	defer t.Stop()
	var err error
	select {
	case err = <-done:
	case <-t.C:
		err = ErrFetchTimeout
	}
	if err == nil {
		d.misses[pair].Store(0)
		return
	}
	if n := d.misses[pair].Add(1); int(n) >= d.cfg.Misses {
		// Only a live accuser's verdict counts; a node marked dead between
		// scheduling and verdict must not take peers down with it.
		if d.selfDead != nil && d.selfDead(node) {
			return
		}
		d.suspected[peer].Store(true)
	}
}

package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestBreakdownPercentages(t *testing.T) {
	n := &Node{}
	n.AddCompute(60 * time.Millisecond)
	n.AddNetwork(20 * time.Millisecond)
	n.AddScheduler(15 * time.Millisecond)
	n.AddCache(5 * time.Millisecond)
	b := n.Breakdown()
	if b.Total() != 100*time.Millisecond {
		t.Fatalf("Total = %v", b.Total())
	}
	c, nw, s, ca := b.Percentages()
	if c != 60 || nw != 20 || s != 15 || ca != 5 {
		t.Fatalf("percentages = %v %v %v %v", c, nw, s, ca)
	}
	if b.String() == "" {
		t.Fatal("empty breakdown string")
	}
}

func TestEmptyBreakdown(t *testing.T) {
	var b Breakdown
	c, nw, s, ca := b.Percentages()
	if c+nw+s+ca != 0 {
		t.Fatal("empty breakdown has nonzero percentages")
	}
}

func TestClusterSummarize(t *testing.T) {
	c := NewCluster(3)
	c.Nodes[0].BytesSent.Add(100)
	c.Nodes[1].BytesSent.Add(50)
	c.Nodes[2].CacheHits.Add(3)
	c.Nodes[2].CacheMisses.Add(1)
	c.Nodes[0].Matches.Add(7)
	c.Nodes[1].AddCompute(time.Second)
	s := c.Summarize()
	if s.BytesSent != 150 {
		t.Fatalf("BytesSent = %d", s.BytesSent)
	}
	if s.Matches != 7 {
		t.Fatalf("Matches = %d", s.Matches)
	}
	if s.CacheHitRate() != 0.75 {
		t.Fatalf("CacheHitRate = %v", s.CacheHitRate())
	}
	if s.Breakdown.Compute != time.Second {
		t.Fatalf("Breakdown.Compute = %v", s.Breakdown.Compute)
	}
}

func TestResilienceCountersSummarizeAndReset(t *testing.T) {
	c := NewCluster(3)
	c.Nodes[0].CorruptFrames.Add(2)
	c.Nodes[1].CorruptFrames.Add(1)
	c.Nodes[1].Redials.Add(4)
	c.Nodes[0].SpeculativeRanges.Add(7)
	c.Nodes[0].SpeculationWins.Add(1)
	s := c.Summarize()
	if s.CorruptFrames != 3 || s.Redials != 4 || s.SpeculativeRanges != 7 || s.SpeculationWins != 1 {
		t.Fatalf("summarized resilience counters %+v", s)
	}
	for _, n := range c.Nodes {
		n.Reset()
	}
	s = c.Summarize()
	if s.CorruptFrames != 0 || s.Redials != 0 || s.SpeculativeRanges != 0 || s.SpeculationWins != 0 {
		t.Fatalf("reset left resilience counters %+v", s)
	}
}

func TestCacheHitRateNoAccesses(t *testing.T) {
	var s Summary
	if s.CacheHitRate() != 0 {
		t.Fatal("hit rate without accesses")
	}
}

func TestNetworkUtilization(t *testing.T) {
	s := Summary{BytesSent: 500}
	// 500 bytes over 1s at 1000 B/s = 50%.
	if got := s.NetworkUtilization(1000, time.Second); got != 0.5 {
		t.Fatalf("utilization = %v", got)
	}
	if got := s.NetworkUtilization(0, time.Second); got != 0 {
		t.Fatal("utilization with zero bandwidth")
	}
	if got := s.NetworkUtilization(1000, 0); got != 0 {
		t.Fatal("utilization with zero elapsed")
	}
}

func TestConcurrentCounters(t *testing.T) {
	c := NewCluster(1)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Nodes[0].Extensions.Add(1)
				c.Nodes[0].AddCompute(time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	s := c.Summarize()
	if s.Extensions != 16000 {
		t.Fatalf("Extensions = %d, want 16000", s.Extensions)
	}
	if s.Breakdown.Compute != 16000*time.Nanosecond {
		t.Fatalf("Compute = %v", s.Breakdown.Compute)
	}
}

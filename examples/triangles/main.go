// Distributed triangle counting over real TCP sockets: every remote
// edge-list fetch is serialized through loopback TCP frames, exercising the
// full communication path (batching, circulant scheduling, horizontal
// sharing, static cache) the in-process fabric shortcuts.
package main

import (
	"fmt"
	"log"

	"khuzdul"
)

func main() {
	g := khuzdul.RMAT(30_000, 250_000, 3)
	fmt.Println("input:", g)

	run := func(name string, cfg khuzdul.Config) khuzdul.Result {
		eng, err := khuzdul.Open(g, cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer eng.Close()
		res, err := eng.Triangles()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s count=%d elapsed=%v traffic=%dB hit=%.0f%%\n",
			name, res.Count, res.Elapsed, res.Summary.BytesSent, 100*res.Summary.CacheHitRate())
		return res
	}

	base := khuzdul.Config{NumNodes: 4, ThreadsPerSocket: 2, CacheFraction: 0.1}

	a := run("in-process fabric", base)

	tcpCfg := base
	tcpCfg.Transport = khuzdul.TransportTCP
	b := run("loopback TCP fabric", tcpCfg)

	noCache := base
	noCache.CacheFraction = 0
	noCache.DisableHDS = true
	c := run("no cache, no HDS", noCache)

	if a.Count != b.Count || a.Count != c.Count {
		log.Fatalf("count mismatch: %d / %d / %d", a.Count, b.Count, c.Count)
	}
	fmt.Printf("\ndata-reuse traffic saving: %.1f%% (%d -> %d bytes)\n",
		100*(1-float64(a.Summary.BytesSent)/float64(c.Summary.BytesSent)),
		c.Summary.BytesSent, a.Summary.BytesSent)
}

// Quickstart: open a graph on a simulated cluster and count triangles and
// 4-cliques with both ported client systems.
package main

import (
	"fmt"
	"log"

	"khuzdul"
)

func main() {
	// A skewed scale-free graph: 50k vertices, ~400k edges.
	g := khuzdul.RMAT(50_000, 400_000, 42)
	fmt.Println("input:", g)

	// Eight simulated machines, two workers per socket, static cache at 10%
	// of the graph per machine.
	eng, err := khuzdul.Open(g, khuzdul.Config{
		NumNodes:         8,
		ThreadsPerSocket: 2,
		CacheFraction:    0.10,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	tc, err := eng.Triangles()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("triangles: %d  (%v, traffic %d bytes, cache hit %.0f%%)\n",
		tc.Count, tc.Elapsed, tc.Summary.BytesSent, 100*tc.Summary.CacheHitRate())

	// Compare the two client systems on 4-clique counting.
	for _, sys := range []khuzdul.System{khuzdul.Automine, khuzdul.GraphPi} {
		eng.SetSystem(sys)
		cc, err := eng.Cliques(4)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("4-cliques via %-11v: %d  (%v)\n", sys, cc.Count, cc.Elapsed)
	}
}

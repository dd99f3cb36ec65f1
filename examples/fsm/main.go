// Frequent subgraph mining on a labeled graph: find the labeled patterns
// (up to 3 edges) whose MNI support clears a threshold — the paper's FSM
// application, used for tasks like mining recurring interaction motifs in
// protein networks.
package main

import (
	"fmt"
	"log"

	"khuzdul"
)

func main() {
	// A labeled graph: 2.5k vertices with 4 label classes. (FSM support
	// counting enumerates without symmetry breaking, so it is the heaviest
	// workload per edge — keep the example graph modest.)
	g0 := khuzdul.RMAT(2_500, 18_000, 11)
	g, err := g0.WithLabels(khuzdul.RandomLabels(g0.NumVertices(), 4, 13))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("input:", g)

	eng, err := khuzdul.Open(g, khuzdul.Config{NumNodes: 4, ThreadsPerSocket: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	const minSupport = 140
	fps, elapsed, err := eng.MineFrequent(minSupport, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d frequent labeled patterns (support >= %d) in %v:\n",
		len(fps), minSupport, elapsed)
	for _, fp := range fps {
		fmt.Printf("  support=%-6d %v\n", fp.Support, fp.Pattern)
	}
}

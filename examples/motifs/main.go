// Motif census: count every connected 3-vertex and 4-vertex pattern
// (induced) in a social-network-like graph — the workload behind network
// motif analysis in systems biology and fraud detection, and the paper's
// k-MC application.
package main

import (
	"fmt"
	"log"

	"khuzdul"
)

func main() {
	g := khuzdul.RMAT(20_000, 150_000, 7)
	fmt.Println("input:", g)

	eng, err := khuzdul.Open(g, khuzdul.Config{NumNodes: 4, ThreadsPerSocket: 2, CacheFraction: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	for _, k := range []int{3, 4} {
		per, combined, err := eng.Motifs(k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%d-motif census (%v total, %d embeddings):\n",
			k, combined.Elapsed, combined.Count)
		for _, m := range per {
			share := 0.0
			if combined.Count > 0 {
				share = 100 * float64(m.Count) / float64(combined.Count)
			}
			fmt.Printf("  %-60v %12d  (%5.2f%%)\n", m.Pattern, m.Count, share)
		}
	}
}

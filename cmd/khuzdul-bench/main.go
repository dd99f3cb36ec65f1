// Command khuzdul-bench regenerates the paper's evaluation tables and
// figures on the simulated cluster.
//
// Usage:
//
//	khuzdul-bench -exp table2          # one experiment
//	khuzdul-bench -exp all -quick      # everything, trimmed rows, then the total wall time
//	khuzdul-bench -list                # show the registry
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"khuzdul/internal/harness"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (table2..table7, fig10..fig19) or 'all'")
		scale   = flag.Float64("scale", 1, "dataset scale factor")
		nodes   = flag.Int("nodes", 8, "simulated machine count")
		threads = flag.Int("threads", 2, "compute threads per machine")
		quick   = flag.Bool("quick", false, "trim the heaviest rows")
		list    = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := harness.Options{Scale: *scale, Nodes: *nodes, Threads: *threads, Quick: *quick}
	var exps []harness.Experiment
	if *exp == "all" {
		exps = harness.Experiments()
	} else {
		e, err := harness.GetExperiment(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "khuzdul-bench:", err)
			os.Exit(1)
		}
		exps = []harness.Experiment{e}
	}
	all := time.Now()
	for _, e := range exps {
		start := time.Now()
		tab, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "khuzdul-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(tab.String())
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if *exp == "all" {
		fmt.Printf("(all %d experiments completed in %v)\n", len(exps), time.Since(all).Round(time.Millisecond))
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints, for every (metric, workload) the two result files
// share, both values, the relative difference of b against a, and — for
// end-to-end metrics — the bound; it returns 1 when any end-to-end metric of
// b is worse than a's by more than its bound. Two runs of one commit compared
// this way are the benchmark's self-agreement check.
func compareFiles(pathA, pathB string, w io.Writer) (int, error) {
	a, err := readResult(pathA)
	if err != nil {
		return 2, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return 2, err
	}
	if a.Trace != b.Trace {
		return 2, fmt.Errorf("%s is a traced run and %s is not (or the reverse)", pathA, pathB)
	}
	defs := endToEndDefs
	if a.Trace {
		defs = perLayerDefs
	}
	fmt.Fprintf(w, "a: %s  seed %d  commit %s\nb: %s  seed %d  commit %s\n\n",
		pathA, a.Seed, a.Commit, pathB, b.Seed, b.Commit)
	fmt.Fprintf(w, "%-16s %-32s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "b vs a", "bound")
	outside := 0
	for _, wl := range workloads {
		name := wl.name
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range defs {
			ma, okA := ra.Metrics[d.Name]
			mb, okB := rb.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			rel, verdict := 0.0, ""
			if ma.Value != 0 {
				rel = (mb.Value - ma.Value) / ma.Value
			}
			bound := ""
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", d.Bound*100)
				worse := rel
				if d.Better == "higher" {
					worse = -rel
				}
				if worse > d.Bound {
					verdict = "  OUTSIDE"
					outside++
				}
			}
			fmt.Fprintf(w, "%-16s %-32s %14.6g %14.6g %+8.1f%% %7s%s\n",
				name, d.Name, ma.Value, mb.Value, rel*100, bound, verdict)
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(w, "%-16s failed queries: a %d, b %d\n", name, ra.Failed, rb.Failed)
			outside++
		}
	}
	if outside > 0 {
		fmt.Fprintf(w, "\n%d outside their bound\n", outside)
		return 1, nil
	}
	return 0, nil
}

func readResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads in file", path)
	}
	return &r, nil
}

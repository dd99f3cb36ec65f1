package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload small — untraced and traced — and holds the
// emitted metrics, the Go tables and BENCHMARK.json to one set of names.
// tracedPass fails on any oracle mismatch and on a replica whose counters
// differ from the cluster's, so a pass here covers both checks.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name, or why longer than 200 characters (%d)", w.name, len(w.why))
		}
	}
	sameDefs(t, "end_to_end", decl.EndToEnd, endToEndDefs)
	sameDefs(t, "per_layer", decl.PerLayer, perLayerDefs)

	o := options{params: params{seed: defaultSeed, scale: 0.05}, seconds: 1, iters: 2, outDir: t.TempDir()}
	for _, pass := range []struct {
		name string
		defs []metricDef
		run  func([]*workload, options, *resultFile) error
	}{
		{"untraced", endToEndDefs, runEndToEnd},
		{"traced", perLayerDefs, runTraced},
	} {
		res := &resultFile{Workloads: map[string]*report{}}
		if err := pass.run(workloads, o, res); err != nil {
			t.Fatalf("%s pass: %v", pass.name, err)
		}
		for _, w := range workloads {
			r := res.Workloads[w.name]
			if r == nil {
				t.Fatalf("%s pass: no report for %s", pass.name, w.name)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s pass, %s: correct %v, attempted %d, failed %d", pass.name, w.name, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(pass.defs) {
				t.Errorf("%s pass, %s: %d metrics emitted, %d declared", pass.name, w.name, len(r.Metrics), len(pass.defs))
			}
			for _, d := range pass.defs {
				m, ok := r.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s pass, %s: metric %s emitted %v with unit %q, declared unit %q", pass.name, w.name, d.Name, ok, m.Unit, d.Unit)
				}
				if d.Bound > 0 && m.Value <= 0 {
					t.Errorf("%s pass, %s: end-to-end metric %s is %v; it must never be 0", pass.name, w.name, d.Name, m.Value)
				}
			}
		}
		if pass.name == "traced" {
			for _, w := range workloads {
				if _, err := os.Stat(filepath.Join(o.outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("trace file: %v", err)
				}
			}
		}
	}
}

func sameDefs(t *testing.T, section string, declared, have []metricDef) {
	t.Helper()
	if len(declared) != len(have) {
		t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark has %d", section, len(declared), len(have))
	}
	seen := map[string]bool{}
	for i, d := range have {
		if declared[i] != d {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", section, i, declared[i], d)
		}
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("%s: metric name %q is malformed or repeated", section, d.Name)
		}
		seen[d.Name] = true
	}
}

func TestNormalizeTrace(t *testing.T) {
	got := normalizeTrace([]string{"--workload", "x", "--trace", "1", "-trace", "--trace", "0"})
	want := []string{"--workload", "x", "-trace=1", "-trace", "-trace=0"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

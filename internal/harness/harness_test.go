package harness

import (
	"strings"
	"testing"
	"time"

	"khuzdul/internal/cluster"
	"khuzdul/internal/graph"
)

func TestDatasetPresets(t *testing.T) {
	for _, abbr := range DatasetNames() {
		d, err := GetDataset(abbr)
		if err != nil {
			t.Fatal(err)
		}
		g := d.Generate(0.05)
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Errorf("%s: empty graph", abbr)
		}
		if d.Labeled != g.Labeled() {
			t.Errorf("%s: Labeled flag %v but graph labeled=%v", abbr, d.Labeled, g.Labeled())
		}
	}
	if _, err := GetDataset("nope"); err == nil {
		t.Fatal("want error for unknown dataset")
	}
}

func TestDatasetSkewOrdering(t *testing.T) {
	// The presets must preserve the paper's skew ordering: pt is much less
	// skewed than lj and uk.
	get := func(abbr string) float64 {
		d, err := GetDataset(abbr)
		if err != nil {
			t.Fatal(err)
		}
		g := d.Generate(1)
		avg := float64(2*g.NumEdges()) / float64(g.NumVertices())
		return float64(g.MaxDegree()) / avg
	}
	pt, lj, uk := get("pt"), get("lj"), get("uk")
	if pt >= lj {
		t.Errorf("pt skew %.1f not below lj %.1f", pt, lj)
	}
	if lj >= uk {
		t.Errorf("lj skew %.1f not below uk %.1f", lj, uk)
	}
}

func TestDatasetDeterministic(t *testing.T) {
	d, _ := GetDataset("lj")
	a, b := d.Generate(0.1), d.Generate(0.1)
	if a.NumEdges() != b.NumEdges() || a.NumVertices() != b.NumVertices() {
		t.Fatal("preset not deterministic")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table2", "table3", "table4", "table5", "table6", "table7",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19",
		"ablation-oblivious", "ablation-chaos",
	}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(want))
	}
	for _, id := range want {
		if _, err := GetExperiment(id); err != nil {
			t.Errorf("missing experiment %s", id)
		}
	}
	// Sorted order: tables, then figures, then extras.
	for i := 1; i < len(exps); i++ {
		if expKey(exps[i-1].ID) > expKey(exps[i].ID) {
			t.Fatalf("registry not sorted: %s before %s", exps[i-1].ID, exps[i].ID)
		}
	}
	if _, err := GetExperiment("table99"); err == nil {
		t.Fatal("want error for unknown experiment")
	}
}

// TestAllExperimentsRunTiny executes every experiment end-to-end at a tiny
// scale; this is the integration test of the whole repository.
func TestAllExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment integration test")
	}
	opts := Options{Scale: 0.08, Nodes: 3, Threads: 2, Quick: true}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			start := time.Now()
			tab, err := e.Run(opts)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: empty table", e.ID)
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Fatalf("%s: row %d has %d cells, header %d: %q", e.ID, i, len(row), len(tab.Header), row)
				}
				for j, c := range row {
					if c == "" {
						t.Fatalf("%s: row %d cell %d (%s) is empty: %q", e.ID, i, j, tab.Header[j], row)
					}
				}
			}
			out := tab.String()
			if !strings.Contains(out, e.ID) {
				t.Fatalf("%s: rendering lacks id:\n%s", e.ID, out)
			}
			t.Logf("%s: %d rows in %v", e.ID, len(tab.Rows), time.Since(start))
		})
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	tab.AddNote("hello %d", 42)
	s := tab.String()
	for _, want := range []string{"== x: t ==", "333", "hello 42"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestFormatters(t *testing.T) {
	if got := FmtDur(1500 * time.Microsecond); got != "1.5ms" {
		t.Errorf("FmtDur = %q", got)
	}
	if got := FmtDur(42 * time.Second); got != "42.00s" {
		t.Errorf("FmtDur = %q", got)
	}
	if got := FmtDur(20 * time.Minute); got != "20.0min" {
		t.Errorf("FmtDur = %q", got)
	}
	if got := FmtBytes(5 << 20); got != "5.00MB" {
		t.Errorf("FmtBytes = %q", got)
	}
	if got := FmtBytes(100); got != "100B" {
		t.Errorf("FmtBytes = %q", got)
	}
	if got := FmtCount(1234567); got != "1,234,567" {
		t.Errorf("FmtCount = %q", got)
	}
	if got := FmtCount(42); got != "42" {
		t.Errorf("FmtCount = %q", got)
	}
	if got := FmtSpeedup(10*time.Second, 2*time.Second); got != "5.00x" {
		t.Errorf("FmtSpeedup = %q", got)
	}
	if got := FmtSpeedup(time.Second, 0); got != "-" {
		t.Errorf("FmtSpeedup zero = %q", got)
	}
}

// TestChaosScenarioConfigs: each ablation-chaos row runs the retry layer
// exactly when its table entry says so. In particular the baseline is the
// plain cluster and "resilient, no faults" is the layer with nothing to
// absorb — otherwise the steady-state overhead row compares a configuration
// with itself.
func TestChaosScenarioConfigs(t *testing.T) {
	o := Options{}.withDefaults()
	resilient := map[string]bool{}
	for _, sc := range chaosScenarios {
		err := withCluster(graph.Path(4), sc.config(o), func(c *cluster.Cluster) error {
			resilient[sc.name] = c.Config().FetchTimeout > 0
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if resilient[sc.name] != sc.resilient {
			t.Errorf("%q: cluster resilient = %v, scenario says %v", sc.name, resilient[sc.name], sc.resilient)
		}
	}
	if resilient["baseline"] || !resilient["resilient, no faults"] {
		t.Fatalf("baseline resilient = %v, resilient-no-faults resilient = %v; want false, true",
			resilient["baseline"], resilient["resilient, no faults"])
	}
}

// TestRowCrossChecksEverySystem: a row fails as soon as any system's count
// disagrees with an earlier one for the same (application, graph), whether
// the earlier one ran in the same row call or in an earlier one, and the
// failure names the exhibit, the row and both systems.
func TestRowCrossChecksEverySystem(t *testing.T) {
	x := &exhibit{Options: Options{Scale: 0.05}.withDefaults(), id: "figX",
		presets: map[string]*graph.Graph{}, answers: map[string]answer{}}
	counting := func(label string, n uint64) system {
		return one(label, func(*graph.Graph, appSpec) (cluster.Result, error) { return cluster.Result{Count: n}, nil })
	}
	if _, err := x.row("mc", appTC, counting("A", 7), counting("B", 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := x.row("mc", app4CC, counting("A", 9)); err != nil {
		t.Fatalf("another application is another row: %v", err)
	}
	_, err := x.row("mc", appTC, counting("C", 8))
	if err == nil {
		t.Fatal("want a cross-check failure")
	}
	for _, want := range []string{"figX", "TC on mc", "C = 8", "A = 7"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("failure %q lacks %q", err, want)
		}
	}
	if len(x.presets) != 1 {
		t.Errorf("generated %d presets for one abbreviation", len(x.presets))
	}
}

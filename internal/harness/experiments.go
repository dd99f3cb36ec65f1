package harness

import (
	"fmt"
	"sort"

	"khuzdul/internal/apps"
	"khuzdul/internal/cluster"
	"khuzdul/internal/pattern"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies dataset preset sizes (1.0 = preset).
	Scale float64
	// Nodes is the simulated machine count (paper default: 8).
	Nodes int
	// Threads is the compute worker count per machine.
	Threads int
	// Quick trims the heaviest rows, for CI-speed runs and benchmarks.
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Nodes <= 0 {
		o.Nodes = 8
	}
	if o.Threads <= 0 {
		o.Threads = 2
	}
	return o
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	// ID is the paper's table/figure identifier ("table2" … "fig19").
	ID string
	// Title summarizes the experiment.
	Title string
	// Run executes the experiment and renders its table.
	Run func(o Options) (*Table, error)
}

// registry holds all experiments, populated by init functions across the
// exp_*.go files.
var registry []Experiment

// Experiments returns all registered experiments sorted by ID (tables first,
// then figures, numerically).
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return expKey(out[i].ID) < expKey(out[j].ID) })
	return out
}

// expKey orders "table2" < "table7" < "fig10" < "fig19".
func expKey(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "table%d", &n); err == nil {
		return n
	}
	if _, err := fmt.Sscanf(id, "fig%d", &n); err == nil {
		return 100 + n
	}
	return 1000
}

// GetExperiment returns the experiment with the given ID.
func GetExperiment(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(registry))
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %v)", id, ids)
}

// appSpec names one of the paper's application workloads.
type appSpec struct {
	name string
	kind string // "tc", "cc", "mc"
	k    int
}

var (
	appTC  = appSpec{name: "TC", kind: "tc"}
	app3MC = appSpec{name: "3-MC", kind: "mc", k: 3}
	app4CC = appSpec{name: "4-CC", kind: "cc", k: 4}
	app5CC = appSpec{name: "5-CC", kind: "cc", k: 5}
)

// workload is one application on one preset.
type workload struct {
	a    appSpec
	abbr string
}

func (w workload) String() string { return w.abbr + "-" + w.a.name }

// runOnCluster executes one application with one client system on a cluster.
func runOnCluster(c *cluster.Cluster, sys apps.System, a appSpec) (cluster.Result, error) {
	switch a.kind {
	case "tc":
		return apps.TriangleCount(c, sys)
	case "cc":
		return apps.CliqueCount(c, a.k, sys)
	case "mc":
		_, combined, err := apps.MotifCount(c, a.k, sys)
		return combined, err
	default:
		return cluster.Result{}, fmt.Errorf("harness: unknown app kind %q", a.kind)
	}
}

// pattern returns the single pattern of tc/cc specs.
func (a appSpec) pattern() *pattern.Pattern {
	switch a.kind {
	case "tc":
		return pattern.Triangle()
	case "cc":
		return pattern.Clique(a.k)
	default:
		panic("harness: appSpec.pattern on multi-pattern app")
	}
}

package harness

import (
	"fmt"

	"khuzdul/internal/adfs"
	"khuzdul/internal/apps"
	"khuzdul/internal/cluster"
	"khuzdul/internal/graph"
	"khuzdul/internal/gthinker"
	"khuzdul/internal/pattern"
	"khuzdul/internal/replicated"
	"khuzdul/internal/single"
)

// exhibit is one run of one experiment: its options, the presets it has
// generated (each once, at the exhibit's scale), and the first answer any
// system gave for each of its rows, which every later answer for the same
// row is cross-checked against.
type exhibit struct {
	Options
	id      string
	presets map[string]*graph.Graph
	answers map[string]answer
}

type answer struct {
	system string
	value  any
}

// register adds an experiment whose exhibit function gets a fresh exhibit
// over the defaulted options on every run.
func register(id, title string, run func(x *exhibit) (*Table, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: func(o Options) (*Table, error) {
		return run(&exhibit{Options: o.withDefaults(), id: id,
			presets: map[string]*graph.Graph{}, answers: map[string]answer{}})
	}})
}

// table starts the exhibit's table.
func (x *exhibit) table(title string, header ...string) *Table {
	return &Table{ID: x.id, Title: title, Header: header}
}

// graph returns preset abbr at the exhibit's scale, generating it on first
// use.
func (x *exhibit) graph(abbr string) (*graph.Graph, error) {
	if g, ok := x.presets[abbr]; ok {
		return g, nil
	}
	d, err := GetDataset(abbr)
	if err != nil {
		return nil, err
	}
	x.presets[abbr] = d.Generate(x.Scale)
	return x.presets[abbr], nil
}

// check is the harness's one cross-check: it records system's answer for
// row (a count, or an FSM run's frequent set) and fails if an earlier system
// of this exhibit answered the same row differently.
func (x *exhibit) check(row, system string, value any) error {
	first, ok := x.answers[row]
	if !ok {
		x.answers[row] = answer{system, value}
		return nil
	}
	if value != first.value {
		return fmt.Errorf("harness: %s, %s: %s = %v but %s = %v", x.id, row, system, value, first.system, first.value)
	}
	return nil
}

// row runs application a on preset abbr under every system in order,
// cross-checks each count, and returns one result per label.
func (x *exhibit) row(abbr string, a appSpec, systems ...system) ([]cluster.Result, error) {
	g, err := x.graph(abbr)
	if err != nil {
		return nil, err
	}
	row := a.name + " on " + abbr
	var out []cluster.Result
	for _, s := range systems {
		rs, err := s.run(g, a)
		if err != nil {
			return nil, fmt.Errorf("harness: %s, %s: %v: %w", x.id, row, s.labels, err)
		}
		for i, r := range rs {
			if err := x.check(row, s.labels[i], r.Count); err != nil {
				return nil, err
			}
		}
		out = append(out, rs...)
	}
	return out, nil
}

// system is one measured system of an exhibit row: it runs an application
// over the row's graph and reports one result per label.
type system struct {
	labels []string
	run    func(g *graph.Graph, a appSpec) ([]cluster.Result, error)
}

// one is a system with a single result.
func one(label string, run func(g *graph.Graph, a appSpec) (cluster.Result, error)) system {
	return system{[]string{label}, func(g *graph.Graph, a appSpec) ([]cluster.Result, error) {
		r, err := run(g, a)
		return []cluster.Result{r}, err
	}}
}

// withCluster builds a cluster over g from cfg, hands it to fn and closes
// it: the harness's one cluster.New.
func withCluster(g *graph.Graph, cfg cluster.Config, fn func(*cluster.Cluster) error) error {
	c, err := cluster.New(g, cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	return fn(c)
}

// khuzdul runs the application on one cluster built from cfg, once per
// client system, in order. tag tells the cluster apart from the exhibit's
// other clusters in cross-check failures.
func khuzdul(cfg cluster.Config, tag string, clients ...apps.System) system {
	s := system{run: func(g *graph.Graph, a appSpec) ([]cluster.Result, error) {
		out := make([]cluster.Result, len(clients))
		return out, withCluster(g, cfg, func(c *cluster.Cluster) (err error) {
			for i, sys := range clients {
				if out[i], err = runOnCluster(c, sys, a); err != nil {
					return err
				}
			}
			return nil
		})
	}}
	for _, sys := range clients {
		label := sys.String()
		if tag != "" {
			label += " (" + tag + ")"
		}
		s.labels = append(s.labels, label)
	}
	return s
}

// cachedConfig is the exhibits' default cluster: chunks of
// experimentChunkSize, a static cache at 10% of graph size with a
// scaled-down admission threshold (the paper's threshold of 64 assumes
// real-graph degrees), HDS on, node slots run one at a time.
func cachedConfig(nodes, threads int) cluster.Config {
	cfg := plainConfig(nodes, threads)
	cfg.ChunkSize = experimentChunkSize
	cfg.CacheFraction = 0.10
	cfg.CacheDegreeThreshold = 8
	return cfg
}

// plainConfig is the cluster with every knob at its default but the node
// slots, which run one at a time so each machine's busy clocks, and the
// modeled makespan read from them, are not inflated by the others sharing
// the host's cores.
func plainConfig(nodes, threads int) cluster.Config {
	return cluster.Config{NumNodes: nodes, ThreadsPerSocket: threads, SequentialNodes: true}
}

// experimentChunkSize keeps the chunk:graph ratio at preset scale close to
// the paper's (4GB chunks against hundreds-of-GB graphs): small enough that
// every level spans many chunk generations, so the static cache sees repeat
// accesses across chunks.
const experimentChunkSize = 2048

// replicatedGraphPi is GraphPi with the graph replicated on every machine
// and statically partitioned first-loop work.
func replicatedGraphPi(nodes, threads int) system {
	return one("GraphPi(repl)", func(g *graph.Graph, a appSpec) (cluster.Result, error) {
		cfg := replicated.Config{NumNodes: nodes, ThreadsPerNode: threads}
		var r replicated.Result
		var err error
		if a.kind == "mc" {
			r, err = replicated.CountMotifs(g, a.k, cfg)
		} else {
			r, err = replicated.Count(g, a.pattern(), cfg)
		}
		return cluster.Result{Count: r.Count, Elapsed: r.Elapsed, ModeledElapsed: r.ModeledElapsed}, err
	})
}

// gThinker is the G-thinker baseline with a cache of an eighth of the graph.
func gThinker(nodes, threads int) system {
	return one("G-thinker", func(g *graph.Graph, a appSpec) (cluster.Result, error) {
		cfg := gthinker.Config{NumNodes: nodes, ThreadsPerNode: threads, CacheBytes: g.SizeBytes() / 8}
		var pats []*pattern.Pattern
		if a.kind == "mc" {
			cfg.Induced = true
			pats = pattern.ConnectedPatterns(a.k)
		} else {
			pats = []*pattern.Pattern{a.pattern()}
		}
		var total cluster.Result
		for _, pat := range pats {
			r, err := gthinker.Count(g, pat, cfg)
			if err != nil {
				return cluster.Result{}, err
			}
			total.Count += r.Count
			total.Elapsed += r.Elapsed
			total.ModeledElapsed += r.ModeledElapsed
			total.Summary.Merge(r.Summary)
		}
		return total, nil
	})
}

// singleMachine is one single-machine system at the given thread count.
func singleMachine(e *single.Engine, threads int) system {
	return one(e.Name(), func(g *graph.Graph, a appSpec) (cluster.Result, error) {
		var r single.Result
		var err error
		if a.kind == "mc" {
			_, r, err = e.CountMotifs(g, a.k, threads)
		} else {
			r, err = e.CountPattern(g, a.pattern(), false, threads)
		}
		return cluster.Result{Count: r.Count, Elapsed: r.Elapsed, ModeledElapsed: r.ModeledElapsed}, err
	})
}

// aDFS is the moving-computation-to-data baseline.
func aDFS(nodes, threads int) system {
	return one("aDFS", func(g *graph.Graph, a appSpec) (cluster.Result, error) {
		r, err := adfs.Count(g, a.pattern(), adfs.Config{NumNodes: nodes, ThreadsPerNode: threads})
		return cluster.Result{Count: r.Count, Elapsed: r.Elapsed, Summary: r.Summary}, err
	})
}

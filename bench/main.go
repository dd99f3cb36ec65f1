// Command bench is the repository's benchmark: five paper-shaped workloads,
// end-to-end numbers from an untraced pass and per-layer numbers from a
// separate traced pass, every result checked against an oracle.
//
//	go run -C bench .                       all five workloads, untraced
//	go run -C bench . -trace                all five, traced (per-layer numbers)
//	go run -C bench . -workload tc-uk-1n    one workload
//	go run -C bench . -compare a.json b.json
//
// It imports khuzdul/internal/... and changes nothing there: layers are
// measured from outside, by timing calls into their public functions,
// wrapping their interfaces in decorators and reading the counters
// cluster.Result already returns. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	defaultSeed = 20230325
	// holdOutSeed is reserved: no workload or bound was tuned on it, so a
	// claimed gain can be checked on inputs nobody looked at.
	holdOutSeed = 19800101
	// A run repeats set-up for its median: at least minSetUps times, then on
	// until setUpBudget is spent or maxSetUps reached, so a set-up of a few
	// milliseconds is sampled often enough to give a steady median.
	minSetUps   = 3
	maxSetUps   = 25
	setUpBudget = 1500 * time.Millisecond
)

type options struct {
	params
	workload string
	seconds  float64
	iters    int
	trace    bool
	outDir   string
}

// report is one workload's result in out/result.json.
type report struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultFile is out/result.json: provenance plus one report per workload.
type resultFile struct {
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	Scale      float64            `json:"scale"`
	Seconds    float64            `json:"seconds_per_workload"`
	Iters      int                `json:"iters,omitempty"`
	Commit     string             `json:"git_commit"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"nproc"`
	Started    string             `json:"started"`
	Workloads  map[string]*report `json:"workloads"`
}

func main() {
	// Sized for the 2-core box the bounds were measured on; pinning it keeps
	// runs on bigger hosts comparable.
	runtime.GOMAXPROCS(2)
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	o := options{}
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all five, one after another)")
	fs.Int64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("drives every generator and the client shuffles (%d is reserved for hold-out checks)", holdOutSeed))
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds per workload")
	fs.IntVar(&o.iters, "iters", 0, "fixed rounds per workload instead of -seconds (a round is one query; on serve-mix-lj one pass of each client over the mix)")
	fs.Float64Var(&o.scale, "scale", 1, "graph size multiplier (smoke tests)")
	fs.BoolVar(&o.trace, "trace", false, "traced pass: per-layer metrics and out/trace-<workload>.json")
	fs.StringVar(&o.outDir, "out", "out", "directory for result.json and trace files")
	compare := fs.Bool("compare", false, "compare two result.json files: -compare a.json b.json")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return 2, nil
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if fs.NArg() != 0 {
		return 2, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.scale <= 0 || o.seconds <= 0 {
		return 2, fmt.Errorf("-scale and -seconds must be positive")
	}

	selected := workloads
	if o.workload != "" {
		w, err := findWorkload(o.workload)
		if err != nil {
			return 2, err
		}
		selected = []*workload{w}
	}
	res := &resultFile{
		Seed: o.seed, Trace: o.trace, Scale: o.scale, Seconds: o.seconds, Iters: o.iters,
		Commit: gitCommit(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Started:   time.Now().UTC().Format(time.RFC3339),
		Workloads: map[string]*report{},
	}
	var err error
	if o.trace {
		err = runTraced(selected, o, res)
	} else {
		err = runEndToEnd(selected, o, res)
	}
	if err != nil {
		return 1, err
	}
	if err := writeJSON(filepath.Join(o.outDir, "result.json"), res); err != nil {
		return 1, err
	}
	printReports(selected, res)

	failed := 0
	for _, r := range res.Workloads {
		failed += r.Failed
	}
	if o.workload != "" {
		// The contract line: last on stdout, value and unit only.
		r := res.Workloads[o.workload]
		line := struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
		for name, m := range r.Metrics {
			line.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			return 1, err
		}
		fmt.Println(string(b))
	}
	if failed > 0 {
		return 1, fmt.Errorf("%d queries failed or disagreed with the oracle", failed)
	}
	return 0, nil
}

// normalizeTrace lets -trace be both the bare flag of the README and the
// "--trace 0|1" pair the benchmark driver passes.
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// runEndToEnd is the untraced pass, one workload after another. Each is set
// up repeatedly for the median set-up time, its reference computed once, one
// round run unmeasured, then measured for the budget.
//
// Workloads do not take turns in slices: with all five resident the heap is
// several times larger, the collector runs that much less often, and
// allocation-heavy queries speed up (an FSM mine took 0.76 s instead of
// 1.3 s), so the numbers would not be those of a single-workload run.
func runEndToEnd(selected []*workload, o options, res *resultFile) error {
	for _, w := range selected {
		// Start every workload from a collected heap, whatever ran before.
		runtime.GC()
		rep, err := endToEnd(w, o)
		if err != nil {
			return err
		}
		res.Workloads[w.name] = rep
	}
	return nil
}

func endToEnd(w *workload, o options) (*report, error) {
	var in *instance
	defer func() {
		if in != nil {
			in.close()
		}
	}()
	ref := &reference{}
	var setups []float64
	t0 := time.Now()
	for {
		if in != nil {
			in.close()
		}
		var err error
		if in, err = w.setUp(o.params, ref); err != nil {
			return nil, err
		}
		setups = append(setups, in.setupS)
		n := len(setups)
		if o.iters > 0 || n >= maxSetUps || (n >= minSetUps && time.Since(t0) >= setUpBudget) {
			break
		}
	}
	if err := w.oracle(in); err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", w.name, err)
	}
	// One unmeasured round: connections dialed, pools and caches warm.
	warm := &recorder{}
	in.measure(budget{iters: 1}, warm)
	if warm.failed > 0 {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, warm.firstErr)
	}
	rec := &recorder{}
	b := budget{iters: o.iters}
	if o.iters == 0 {
		b.deadline = time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	}
	in.measure(b, rec)
	return &report{
		Workload: w.name, Correct: rec.failed == 0, Attempted: len(rec.latencies), Failed: rec.failed,
		Metrics: rec.endToEnd(setups, w.tailQuantile()),
	}, nil
}

// runTraced is the traced pass, one workload after another; it also writes
// each workload's span tree.
func runTraced(selected []*workload, o options, res *resultFile) error {
	for _, w := range selected {
		// A quarter of the time for each repeated measurement; the replica
		// runs and probes around them are fixed work.
		tf, err := tracedPass(w, o.params, func() budget {
			if o.iters > 0 {
				return budget{iters: o.iters}
			}
			return budget{deadline: time.Now().Add(time.Duration(o.seconds / 4 * float64(time.Second)))}
		})
		if err != nil {
			return err
		}
		if err := writeJSON(filepath.Join(o.outDir, "trace-"+w.name+".json"), tf); err != nil {
			return err
		}
		res.Workloads[w.name] = &report{
			Workload: w.name, Correct: true, Attempted: 1, Failed: 0, Metrics: tf.Metrics,
		}
	}
	return nil
}

func printReports(selected []*workload, res *resultFile) {
	defs := endToEndDefs
	if res.Trace {
		defs = perLayerDefs
	}
	fmt.Printf("seed %d  commit %s  %s  GOMAXPROCS %d  nproc %d\n",
		res.Seed, res.Commit, res.GoVersion, res.GOMAXPROCS, res.NumCPU)
	for _, w := range selected {
		r := res.Workloads[w.name]
		fmt.Printf("\n%s  attempted %d  failed %d\n", w.name, r.Attempted, r.Failed)
		for _, d := range defs {
			m := r.Metrics[d.Name]
			detail := ""
			if m.Stat != "" {
				detail = fmt.Sprintf("  (%s of %d)", m.Stat, m.Samples)
			}
			fmt.Printf("  %-32s %14.6g %-6s%s\n", d.Name, m.Value, m.Unit, detail)
		}
	}
	fmt.Println()
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// gitCommit is the checkout's HEAD, or "unknown" outside a git repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

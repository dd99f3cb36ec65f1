// Command khuzdulvet runs the project-specific static analyzer suite from
// internal/analysis over the Khuzdul tree and reports every invariant
// violation as "file:line:col: [analyzer] message", or — under -json — as
// one JSON object per line ({"file":...,"line":...,"col":...,"analyzer":...,
// "message":...}), the format .github/khuzdulvet-matcher.json annotates in
// CI.
//
// Usage:
//
//	go run ./cmd/khuzdulvet ./...
//	go run ./cmd/khuzdulvet -json ./...
//	go run ./cmd/khuzdulvet -list
//	go run ./cmd/khuzdulvet -run lockorder,timerstop ./...
//	go run ./cmd/khuzdulvet ./internal/comm/... ./internal/cluster
//
// Exit status is 0 when the tree is clean, 1 when findings (including
// malformed or stale ignore directives) exist, and 2 when loading or
// type-checking fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"khuzdul/internal/analysis"
)

// jsonFinding is the -json line format. Field order is the declaration
// order, which the CI problem matcher's regexp depends on.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonTiming is the -json timing line, emitted after the findings: first
// "program" (the shared program build: fact walk and call graph),
// then one per analyzer. It has no "file" key, so the CI problem matcher
// skips it; the slowest-analyzers CI step selects on "elapsed_ms".
type jsonTiming struct {
	Analyzer  string  `json:"analyzer"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("khuzdulvet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	list := flags.Bool("list", false, "list the analyzer suite and exit")
	jsonOut := flags.Bool("json", false, "emit one JSON object per finding (for CI problem matchers)")
	runNames := flags.String("run", "", "comma-separated analyzer names to run (default: the whole suite)")
	flags.Usage = func() {
		fmt.Fprintf(stderr, "usage: khuzdulvet [-list] [-json] [-run a,b,c] [packages]\n\n")
		fmt.Fprintf(stderr, "Runs the Khuzdul invariant analyzers over the enclosing module.\n")
		fmt.Fprintf(stderr, "Package patterns are directory-based (./..., ./internal/comm/...).\n\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		return 2
	}

	suite := analysis.Suite()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	suite, err := selectAnalyzers(suite, *runNames)
	if err != nil {
		fmt.Fprintf(stderr, "khuzdulvet: %v\n", err)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "khuzdulvet: %v\n", err)
		return 2
	}
	root, modulePath, err := analysis.FindModule(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "khuzdulvet: %v\n", err)
		return 2
	}
	pkgs, err := analysis.Load(root, modulePath)
	if err != nil {
		fmt.Fprintf(stderr, "khuzdulvet: %v\n", err)
		return 2
	}
	pkgs, err = filterPackages(pkgs, flags.Args(), cwd, root, modulePath)
	if err != nil {
		fmt.Fprintf(stderr, "khuzdulvet: %v\n", err)
		return 2
	}

	diags, timings := analysis.RunTimed(pkgs, suite)
	stale := 0
	for _, d := range diags {
		d = rel(cwd, d)
		if d.Analyzer == "staleignore" {
			stale++
		}
		if *jsonOut {
			line, err := json.Marshal(jsonFinding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
			if err != nil {
				fmt.Fprintf(stderr, "khuzdulvet: %v\n", err)
				return 2
			}
			fmt.Fprintln(stdout, string(line))
		} else {
			fmt.Fprintln(stdout, d)
		}
	}
	if *jsonOut {
		for _, tm := range timings {
			line, err := json.Marshal(jsonTiming{
				Analyzer:  tm.Name,
				ElapsedMs: float64(tm.Elapsed.Microseconds()) / 1000,
			})
			if err != nil {
				fmt.Fprintf(stderr, "khuzdulvet: %v\n", err)
				return 2
			}
			fmt.Fprintln(stdout, string(line))
		}
	}
	if len(diags) > 0 {
		if stale > 0 {
			fmt.Fprintf(stderr, "khuzdulvet: %d finding(s), including %d stale ignore directive(s) that no longer suppress anything\n", len(diags), stale)
		} else {
			fmt.Fprintf(stderr, "khuzdulvet: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// selectAnalyzers keeps the analyzers named in the comma-separated spec,
// preserving suite order. An empty spec selects the whole suite; a name the
// suite does not carry is an error, not a silent no-op.
func selectAnalyzers(suite []*analysis.Analyzer, spec string) ([]*analysis.Analyzer, error) {
	if strings.TrimSpace(spec) == "" {
		return suite, nil
	}
	wanted := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		known := false
		for _, a := range suite {
			if a.Name == name {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("unknown analyzer %q; -list names the suite", name)
		}
		wanted[name] = true
	}
	if len(wanted) == 0 {
		return nil, fmt.Errorf("-run selected no analyzers")
	}
	var out []*analysis.Analyzer
	for _, a := range suite {
		if wanted[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// filterPackages keeps the packages matching the directory-based patterns.
// No patterns (or a bare "./...") selects the whole module.
func filterPackages(pkgs []*analysis.LoadedPackage, patterns []string,
	cwd, root, modulePath string) ([]*analysis.LoadedPackage, error) {
	if len(patterns) == 0 {
		return pkgs, nil
	}
	var keep func(path string) bool
	matchers := make([]func(string) bool, 0, len(patterns))
	for _, pat := range patterns {
		m, err := patternMatcher(pat, cwd, root, modulePath)
		if err != nil {
			return nil, err
		}
		matchers = append(matchers, m)
	}
	keep = func(path string) bool {
		for _, m := range matchers {
			if m(path) {
				return true
			}
		}
		return false
	}
	var out []*analysis.LoadedPackage
	for _, p := range pkgs {
		if keep(p.Path) {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no packages match %s", strings.Join(patterns, " "))
	}
	return out, nil
}

// patternMatcher converts one ./dir or ./dir/... pattern into an import-path
// predicate.
func patternMatcher(pat, cwd, root, modulePath string) (func(string) bool, error) {
	recursive := false
	if pat == "..." || strings.HasSuffix(pat, "/...") {
		recursive = true
		pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
		if pat == "" {
			pat = "."
		}
	}
	abs := pat
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(cwd, pat)
	}
	relToRoot, err := filepath.Rel(root, abs)
	if err != nil || strings.HasPrefix(relToRoot, "..") {
		return nil, fmt.Errorf("pattern %q is outside module %s", pat, modulePath)
	}
	base := modulePath
	if relToRoot != "." {
		base = modulePath + "/" + filepath.ToSlash(relToRoot)
	}
	return func(path string) bool {
		if path == base {
			return true
		}
		return recursive && strings.HasPrefix(path, base+"/")
	}, nil
}

// rel rewrites a diagnostic's filename relative to the working directory
// when possible, keeping output stable across checkouts.
func rel(cwd string, d analysis.Diagnostic) analysis.Diagnostic {
	if r, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
		d.Pos.Filename = r
	}
	return d
}

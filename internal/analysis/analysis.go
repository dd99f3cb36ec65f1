// Package analysis is a small, stdlib-only static-analysis framework for
// enforcing Khuzdul's project-specific invariants: the rules that make exact
// counts under chaos possible but that generic tools (go vet, staticcheck)
// cannot see and no test run observes: classifiable error chains, an acyclic
// lock order, and timers stopped where they are made.
// The Pass/Analyzer shape mirrors golang.org/x/tools/go/analysis so
// analyzers stay portable, but the framework itself depends only on
// go/parser, go/types and go/ast.
//
// The suite runs via cmd/khuzdulvet; findings print as
// "file:line:col: [analyzer] message" and a non-empty finding set makes the
// CLI exit non-zero. A finding can be suppressed in place with
//
//	//khuzdulvet:ignore <analyzer> <reason>
//
// on the offending line or the line directly above it; the reason is
// mandatory, so every suppression documents why the invariant does not apply.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// An Analyzer checks one invariant over one package at a time.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run inspects pass and reports findings through pass.Reportf.
	Run func(pass *Pass)
}

// A Pass carries one analyzer's view of one type-checked package: the shared
// FileSet, the package's syntax trees, full type information, and the
// Reportf diagnostic sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkg is the type-checked package (import path via Pkg.Path()).
	Pkg *types.Package
	// Files holds the package's parsed non-test files.
	Files []*ast.File
	// Info is the type-checking fact base for Files.
	Info *types.Info
	// Prog is the whole-program fact base (the fact table and the call graph
	// read off it) built once per Run over every loaded package — not just
	// this pass's. Single-package analyzers ignore it.
	Prog *Program

	diags *[]Diagnostic
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// ignoreDirective is one parsed //khuzdulvet:ignore comment.
type ignoreDirective struct {
	file     string
	line     int
	analyzer string
}

const directivePrefix = "khuzdulvet:ignore"

// collectDirectives parses every //khuzdulvet:ignore directive in the
// package. Malformed directives (no analyzer name, or no reason) become
// diagnostics themselves: a suppression that does not say what and why is
// worse than the finding it hides.
func collectDirectives(fset *token.FileSet, files []*ast.File, sink *[]Diagnostic) []ignoreDirective {
	var out []ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
				name, reason, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				if name == "" || strings.TrimSpace(reason) == "" {
					*sink = append(*sink, Diagnostic{
						Pos:      pos,
						Analyzer: "directive",
						Message:  "malformed ignore directive: want //khuzdulvet:ignore <analyzer> <reason>",
					})
					continue
				}
				out = append(out, ignoreDirective{file: pos.Filename, line: pos.Line, analyzer: name})
			}
		}
	}
	return out
}

// covers reports whether one directive suppresses d: same analyzer, same
// file, on d's line or the line directly above.
func covers(dir ignoreDirective, d Diagnostic) bool {
	return dir.analyzer == d.Analyzer && dir.file == d.Pos.Filename &&
		(dir.line == d.Pos.Line || dir.line == d.Pos.Line-1)
}

// suppressed reports whether d is covered by any directive.
func suppressed(d Diagnostic, dirs []ignoreDirective) bool {
	for _, dir := range dirs {
		if covers(dir, d) {
			return true
		}
	}
	return false
}

// Run applies every analyzer to every package and returns the surviving
// findings sorted by position. The whole-program call graph is built once
// over all packages and shared by every pass through Pass.Prog.
//
// Besides analyzer findings, Run audits the escape hatches: an ignore
// directive naming an analyzer in the running set that suppresses no finding
// is itself reported (analyzer "staleignore"), so suppressions cannot outlive
// the code they excused. Directives naming analyzers outside the running set
// are left alone — a single-analyzer run must not condemn the others'
// directives.
func Run(pkgs []*LoadedPackage, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunTimed(pkgs, analyzers)
	return diags
}

// A Timing is one wall-clock cost of one RunTimed: the program build (named
// "program": the fact walk and call graph every analyzer shares) or one
// analyzer's accumulated cost across every package, including the
// whole-program result only it reads (the lock graph).
type Timing struct {
	Name    string
	Elapsed time.Duration
}

// RunTimed is Run plus wall-clock timings: the program build first, then
// each analyzer in suite order, so the CLI's -json output (and the CI
// slowest-analyzers step) can keep suite growth observable.
func RunTimed(pkgs []*LoadedPackage, analyzers []*Analyzer) ([]Diagnostic, []Timing) {
	start := time.Now()
	prog := BuildProgram(pkgs)
	timings := []Timing{{Name: "program", Elapsed: time.Since(start)}}
	running := map[string]bool{}
	elapsed := make([]time.Duration, len(analyzers))
	for _, a := range analyzers {
		running[a.Name] = true
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		var diags []Diagnostic
		dirs := collectDirectives(pkg.Fset, pkg.Files, &diags)
		for i, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Pkg:      pkg.Types,
				Files:    pkg.Files,
				Info:     pkg.Info,
				Prog:     prog,
				diags:    &diags,
			}
			start := time.Now()
			a.Run(pass)
			elapsed[i] += time.Since(start)
		}
		used := make([]bool, len(dirs))
		for _, d := range diags {
			for i, dir := range dirs {
				if covers(dir, d) {
					used[i] = true
				}
			}
		}
		for _, d := range diags {
			if !suppressed(d, dirs) {
				all = append(all, d)
			}
		}
		for i, dir := range dirs {
			if used[i] || !running[dir.analyzer] {
				continue
			}
			all = append(all, Diagnostic{
				Pos:      token.Position{Filename: dir.file, Line: dir.line, Column: 1},
				Analyzer: "staleignore",
				Message: fmt.Sprintf("stale ignore directive: no %s finding here anymore — remove the //khuzdulvet:ignore",
					dir.analyzer),
			})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	for i, a := range analyzers {
		timings = append(timings, Timing{Name: a.Name, Elapsed: elapsed[i]})
	}
	return all, timings
}

// Suite returns the full khuzdulvet analyzer suite. DESIGN.md records, for
// each analyzer, the seeded defect that only it catches.
func Suite() []*Analyzer {
	return []*Analyzer{
		ErrClass,
		LockOrder,
		TimerStop,
	}
}

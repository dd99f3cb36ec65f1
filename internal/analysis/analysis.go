// Package analysis is a small, stdlib-only static-analysis framework for
// enforcing Khuzdul's project-specific invariants: the rules that make exact
// counts under chaos possible but that generic tools (go vet, staticcheck)
// cannot see and no test run observes: classifiable error chains, an acyclic
// lock order, and timers stopped where they are made.
// The Pass/Analyzer shape mirrors golang.org/x/tools/go/analysis so
// analyzers stay portable, but the framework itself depends only on
// go/parser, go/types and go/ast.
//
// The suite runs as TestSuiteCleanOnTree, which loads the module and fails
// on any finding, printed as "file:line:col: [analyzer] message".
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer checks one invariant over one package at a time.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
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

// Run applies every analyzer to every package and returns the findings
// sorted by position. The whole-program call graph is built once over all
// packages and shared by every pass through Pass.Prog.
func Run(pkgs []*LoadedPackage, analyzers []*Analyzer) []Diagnostic {
	prog := BuildProgram(pkgs)
	var all []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Pkg:      pkg.Types,
				Files:    pkg.Files,
				Info:     pkg.Info,
				Prog:     prog,
				diags:    &all,
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
	return all
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

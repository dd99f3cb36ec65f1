package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The fixture tree under testdata/src is loaded once and shared: the source
// importer's stdlib type checking dominates load time and every fixture uses
// the same handful of imports.
var (
	fixturesOnce sync.Once
	fixturesPkgs []*LoadedPackage
	fixturesErr  error
)

func fixturePackages(t *testing.T) []*LoadedPackage {
	t.Helper()
	fixturesOnce.Do(func() {
		fixturesPkgs, fixturesErr = Load(filepath.Join("testdata", "src"), "")
	})
	if fixturesErr != nil {
		t.Fatalf("loading fixtures: %v", fixturesErr)
	}
	return fixturesPkgs
}

// fixtureSubset returns the fixture packages rooted at prefix (one analyzer's
// private tree).
func fixtureSubset(t *testing.T, prefix string) []*LoadedPackage {
	t.Helper()
	var out []*LoadedPackage
	for _, p := range fixturePackages(t) {
		if p.Path == prefix || strings.HasPrefix(p.Path, prefix+"/") {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no fixture packages under %q", prefix)
	}
	return out
}

var wantRE = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

type wantEntry struct {
	re      *regexp.Regexp
	matched bool
}

// collectWants maps "file:line" to the expectations declared in // want
// comments. One want may cover several diagnostics on its line.
func collectWants(t *testing.T, pkgs []*LoadedPackage) map[string][]*wantEntry {
	t.Helper()
	wants := map[string][]*wantEntry{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", m[1], err)
					}
					pos := p.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					wants[key] = append(wants[key], &wantEntry{re: re})
				}
			}
		}
	}
	return wants
}

// runFixtureTest runs one analyzer over its fixture tree and reconciles the
// diagnostics with the tree's want comments in both directions.
func runFixtureTest(t *testing.T, a *Analyzer) {
	t.Helper()
	pkgs := fixtureSubset(t, a.Name)
	diags := Run(pkgs, []*Analyzer{a})
	wants := collectWants(t, pkgs)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		found := false
		for _, w := range wants[key] {
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, entries := range wants {
		for _, w := range entries {
			if !w.matched {
				t.Errorf("%s: expected a diagnostic matching %q, got none", key, w.re)
			}
		}
	}
}

func TestErrClass(t *testing.T)  { runFixtureTest(t, ErrClass) }
func TestLockOrder(t *testing.T) { runFixtureTest(t, LockOrder) }
func TestTimerStop(t *testing.T) { runFixtureTest(t, TimerStop) }

// TestCallGraph pins the program construction lockorder relies on, using the
// lockorder fixture: static edges, interface-method over-approximation, and
// no edge for a call spawned on a goroutine of its own.
func TestCallGraph(t *testing.T) {
	prog := BuildProgram(fixtureSubset(t, "lockorder"))

	edges := map[string]bool{}
	for fn, callees := range prog.syncCallees {
		for _, c := range callees {
			edges[fn.Name()+"->"+c.Name()] = true
		}
	}
	for _, want := range []string{
		"lockCthenCallD->dWork", // static call
		"lockIthenWork->work",   // interface-method over-approximation
	} {
		if !edges[want] {
			t.Errorf("expected edge %s; edges = %v", want, edges)
		}
	}
	if edges["spawnNamedUnderF->lockEJust"] {
		t.Errorf("a `go` call must not be a synchronous edge; edges = %v", edges)
	}
}

// TestSuiteComposition pins the suite roster by name, in suite order: each
// analyzer here is one that DESIGN.md's seeded-defect table shows only it
// catching.
func TestSuiteComposition(t *testing.T) {
	roster := []string{"errclass", "lockorder", "timerstop"}
	suite := Suite()
	if len(suite) != len(roster) {
		t.Fatalf("Suite() has %d analyzers, want %d", len(suite), len(roster))
	}
	for i, a := range suite {
		if a.Name != roster[i] {
			t.Errorf("Suite()[%d] = %q, want %q", i, a.Name, roster[i])
		}
		if a.Doc == "" {
			t.Errorf("%s: empty Doc", a.Name)
		}
	}
}

// TestFindModule pins the module discovery TestSuiteCleanOnTree depends on.
func TestFindModule(t *testing.T) {
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	if modPath != "khuzdul" {
		t.Fatalf("module path = %q, want %q", modPath, "khuzdul")
	}
	if filepath.Base(filepath.Dir(filepath.Dir(root))) == "" {
		t.Fatalf("implausible module root %q", root)
	}
}

// TestLoadSkipsNestedModule pins the loader's scope to the module `go vet
// ./...` covers: a subdirectory with its own go.mod is another module.
func TestLoadSkipsNestedModule(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":            "module outer\n",
		"a/a.go":            "package a\n",
		"nested/go.mod":     "module outer/nested\n",
		"nested/b/b.go":     "package b\n",
		"nested/nested.go":  "package nested\n",
		"notnested/note.go": "package notnested\n",
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := Load(root, "outer")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Path)
	}
	if strings.Join(got, " ") != "outer/a outer/notnested" {
		t.Fatalf("loaded %v, want [outer/a outer/notnested]", got)
	}
}

// TestSuiteCleanOnTree loads the real module and runs the full suite: the
// tree must carry zero invariant violations. It is the one way the suite
// runs; each finding prints as "file:line:col: [analyzer] message" with the
// path relative to the module root, the form CI's problem matcher reads.
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module load in short mode")
	}
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	pkgs, err := Load(root, modPath)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, d := range Run(pkgs, Suite()) {
		if r, err := filepath.Rel(root, d.Pos.Filename); err == nil {
			d.Pos.Filename = filepath.ToSlash(r)
		}
		t.Error(d)
	}
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// LoadedPackage is one parsed and type-checked package.
type LoadedPackage struct {
	// Path is the package's import path (module path + directory for real
	// trees; the bare relative directory for test fixtures).
	Path string
	// Dir is the directory the package was loaded from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Load parses and type-checks every non-test package under dir. modulePath
// is the import-path prefix of dir ("" maps a directory tree straight to
// import paths, which is how fixture trees under testdata/src are loaded).
// Stdlib imports are type-checked from source via go/importer, so loading
// needs no compiled package artifacts and no module dependencies.
func Load(dir, modulePath string) ([]*LoadedPackage, error) {
	fset := token.NewFileSet()
	raw, err := parseTree(fset, dir, modulePath)
	if err != nil {
		return nil, err
	}
	order, err := topoOrder(raw)
	if err != nil {
		return nil, err
	}
	checked := make(map[string]*types.Package, len(order))
	imp := &chainImporter{
		local: checked,
		std:   importer.ForCompiler(fset, "source", nil),
	}
	var pkgs []*LoadedPackage
	for _, p := range order {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		var typeErrs []error
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { typeErrs = append(typeErrs, err) },
		}
		tpkg, _ := conf.Check(p.path, fset, p.files, info)
		if len(typeErrs) > 0 {
			return nil, fmt.Errorf("analysis: type-checking %s: %w", p.path, typeErrs[0])
		}
		checked[p.path] = tpkg
		pkgs = append(pkgs, &LoadedPackage{
			Path:  p.path,
			Dir:   p.dir,
			Fset:  fset,
			Files: p.files,
			Types: tpkg,
			Info:  info,
		})
	}
	return pkgs, nil
}

// FindModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func FindModule(dir string) (root, modulePath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return abs, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", abs)
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// rawPackage is one directory's parsed files before type checking.
type rawPackage struct {
	path    string
	dir     string
	files   []*ast.File
	imports map[string]bool
}

// parseTree walks dir and parses every package in it, skipping testdata,
// vendored and hidden directories, nested modules (a subdirectory with its
// own go.mod, which `go vet ./...` skips too) and all _test.go files.
func parseTree(fset *token.FileSet, root, modulePath string) (map[string]*rawPackage, error) {
	pkgs := map[string]*rawPackage{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		ipath := importPath(modulePath, rel)
		p := pkgs[ipath]
		if p == nil {
			p = &rawPackage{path: ipath, dir: dir, imports: map[string]bool{}}
			pkgs[ipath] = p
		}
		if len(p.files) > 0 && p.files[0].Name.Name != f.Name.Name {
			return fmt.Errorf("analysis: %s holds two packages (%s and %s)",
				dir, p.files[0].Name.Name, f.Name.Name)
		}
		p.files = append(p.files, f)
		for _, spec := range f.Imports {
			if ip, err := strconv.Unquote(spec.Path.Value); err == nil {
				p.imports[ip] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Deterministic file order within each package regardless of walk order.
	for _, p := range pkgs {
		sort.Slice(p.files, func(i, j int) bool {
			return fset.Position(p.files[i].Pos()).Filename < fset.Position(p.files[j].Pos()).Filename
		})
	}
	return pkgs, nil
}

// importPath joins the module path and a relative directory.
func importPath(modulePath, rel string) string {
	rel = filepath.ToSlash(rel)
	switch {
	case rel == "." || rel == "":
		return modulePath
	case modulePath == "":
		return rel
	default:
		return modulePath + "/" + rel
	}
}

// topoOrder sorts packages so every package follows its in-tree imports,
// which lets type checking resolve local imports from the already-checked
// set.
func topoOrder(pkgs map[string]*rawPackage) ([]*rawPackage, error) {
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	const (
		unvisited = iota
		visiting
		done
	)
	state := map[string]int{}
	var order []*rawPackage
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("analysis: import cycle through %s", path)
		}
		state[path] = visiting
		p := pkgs[path]
		deps := make([]string, 0, len(p.imports))
		for ip := range p.imports {
			if _, ok := pkgs[ip]; ok {
				deps = append(deps, ip)
			}
		}
		sort.Strings(deps)
		for _, ip := range deps {
			if err := visit(ip); err != nil {
				return err
			}
		}
		state[path] = done
		order = append(order, p)
		return nil
	}
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// chainImporter resolves module-local imports from the packages checked so
// far and everything else (the stdlib) from source.
type chainImporter struct {
	local map[string]*types.Package
	std   types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.local[path]; ok {
		return p, nil
	}
	return c.std.Import(path)
}

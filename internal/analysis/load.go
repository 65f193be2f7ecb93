package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	// Path is the package's import path.
	Path string
	// Name is the package name.
	Name string
	// Dir is the directory holding the package's sources.
	Dir string

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// module is the module path when Load was given ./... at the
	// module root, so the packages are the whole module and every
	// caller of every function is among them; "" otherwise. The
	// deadcode analyzer runs only on such a load.
	module string
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Module     *struct {
		Path string
	}
	Error *struct {
		Err string
	}
}

// Load resolves patterns (e.g. "./...") relative to dir with
// `go list -deps -export`, then parses and type-checks every matched
// non-dependency package from source. Type information for
// dependencies — including the standard library — comes from the
// compiler export data the go tool just produced, so the loader needs
// nothing beyond the standard library and the go toolchain itself.
//
// Test files (_test.go) are not loaded: the invariants osap-vet
// enforces live in shipping code. A load of exactly ./... from a
// directory holding go.mod is a whole-module load (see deadcode.go).
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export", "-json=Dir,ImportPath,Name,GoFiles,Export,Standard,DepOnly,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := map[string]string{} // import path → export-data file
	var targets []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decode go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			q := p
			targets = append(targets, &q)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("analysis: no packages matched %s", strings.Join(patterns, " "))
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	})

	_, statErr := os.Stat(filepath.Join(dir, "go.mod"))
	wholeModule := len(patterns) == 1 && patterns[0] == "./..." && statErr == nil
	var pkgs []*Package
	for _, t := range targets {
		pkg, err := typeCheck(fset, imp, t)
		if err != nil {
			return nil, err
		}
		if wholeModule && t.Module != nil {
			pkg.module = t.Module.Path
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typeCheck parses one package's sources and runs go/types over them.
func typeCheck(fset *token.FileSet, imp types.Importer, lp *listPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %v", lp.ImportPath, err)
	}
	return &Package{
		Path:  lp.ImportPath,
		Name:  lp.Name,
		Dir:   lp.Dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

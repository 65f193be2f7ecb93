// Package analysis is osap's project-specific static-analysis
// framework: a stdlib-only (go/ast, go/parser, go/types, go/token)
// mini-vet that locks in the invariants the benchmarks and race sweeps
// only spot-check and go vet does not — the allocation-free serving
// hot path (both annotated functions and the transitive call-graph
// closure beneath them), typed atomics only, lock discipline on
// annotated fields, deterministic training/eval, and no function
// without a caller. Lock copies are go vet's (copylocks).
// cmd/osap-vet is the CLI front end; `make lint` runs go vet and then
// it over the whole module and fails the build on any finding.
//
// Five source directives drive the analyzers:
//
//	//osap:hotpath
//	    In a function's doc comment: the function is part of the
//	    per-step serving path and must not contain allocating
//	    constructs (see the hotpath-alloc analyzer). Annotated
//	    functions are also the taint roots of the hotpath-closure
//	    analyzer, which extends the ban to everything they reach.
//
//	//osap:hotpath-stop <reason>
//	    On a call site's line (or the line above): the call is a
//	    deliberate exit from the hot path — a demotion branch, panic
//	    cleanup, or once-per-connection slow path. Hot-path taint does
//	    not propagate through the edge, and dynamic-dispatch findings
//	    on the line are suppressed. The reason is mandatory.
//
//	//osap:ignore <analyzer> <reason>
//	    Suppresses diagnostics from <analyzer> on the directive's own
//	    line and on the line directly below it. The reason is
//	    mandatory: suppressions are documentation.
//
//	//osap:guardedby <mu>
//	    In a struct field's doc or line comment: the field may only be
//	    accessed while the named sibling lock field is held (see the
//	    guardedby analyzer).
//
//	//osap:deterministic
//	    In any file comment: marks the whole package as deterministic,
//	    opting it into the nondeterminism analyzer (the core training
//	    packages are opted in by import path, see nondet.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Analyzer is one named check, run once over the whole program: it
// sees every loaded package, cross-package call edges and field
// accesses included.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //osap:ignore
	// directives (kebab-case, e.g. "hotpath-alloc").
	Name string
	// Doc is a one-line description for `osap-vet -list`.
	Doc string
	// Run inspects pass.Prog and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		HotpathAlloc,
		HotpathClosure,
		AtomicTyped,
		GuardedBy,
		Nondeterminism,
		DeadCode,
	}
}

// ByName resolves a comma-separated analyzer selection against the
// registered suite, preserving suite order (osap-vet -run).
func ByName(names []string) ([]*Analyzer, error) {
	want := map[string]bool{}
	for _, n := range names {
		if !knownAnalyzer(n) {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		want[n] = true
	}
	var out []*Analyzer
	for _, a := range All() {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// Diagnostic is one finding, file/line/column-accurate.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the go-vet-style "file:line:col: [analyzer] message"
// form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Program is the view every analyzer runs over: every loaded package
// sharing one token.FileSet, the merged directive index, and the
// lazily built call graph.
type Program struct {
	Pkgs []*Package
	// Fset is the file set shared by every package (Load guarantees
	// one program-wide set).
	Fset *token.FileSet

	dirs  *directiveIndex
	graph *CallGraph
}

// NewProgram assembles the program view over pkgs (all from one Load
// call) and scans their directives into one merged index.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{Pkgs: pkgs, dirs: newDirectiveIndex()}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		scanDirectives(prog.dirs, pkg)
	}
	return prog
}

// CallGraph returns the program call graph, building it on first use.
func (p *Program) CallGraph() *CallGraph {
	if p.graph == nil {
		p.graph = buildCallGraph(p)
	}
	return p.graph
}

// Pass carries one analyzer's view of the program.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos (the shared file set makes any
// position in any loaded package addressable).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes each analyzer once over the program, applies
// //osap:ignore suppressions from the merged directive index, and
// returns the surviving diagnostics sorted by file, line and column.
// Malformed directives surface as diagnostics from the pseudo-analyzer
// "directives" and cannot be suppressed.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	prog := NewProgram(pkgs)
	out := append([]Diagnostic(nil), prog.dirs.malformed...)

	var raw []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{Analyzer: a, Prog: prog, diags: &raw})
	}
	for _, d := range raw {
		if prog.dirs.suppressed(d) {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// funcDecls yields every function declaration with a body in the
// package, paired with its file (analyzer helper).
func (p *Package) funcDecls(f func(file *ast.File, fd *ast.FuncDecl)) {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				f(file, fd)
			}
		}
	}
}

// Command osap-vet runs the project-specific static analyzers of
// internal/analysis over the module: the zero-allocation hot-path
// check and its call-graph closure, typed atomics only, //osap:guardedby
// lock discipline, the determinism rules for the training/eval
// packages, and deadcode (no function without a caller), which reports
// only when the load is the whole module: ./... from the module root,
// the default. It is the `make lint` gate, after go vet (whose
// copylocks check is the lock-copy rule) — any finding fails the build.
//
// Usage:
//
//	osap-vet [packages...]         # default ./...
//	osap-vet -json ./internal/...  # machine-readable findings
//	osap-vet -list                 # describe the analyzer suite
//	osap-vet -run guardedby,hotpath-closure ./...
//	osap-vet -graph ./internal/... # dump the resolved call graph
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"osap/internal/analysis"
	"osap/internal/buildinfo"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	list := flag.Bool("list", false, "list the analyzers and exit")
	graph := flag.Bool("graph", false, "dump the resolved call graph instead of running analyzers")
	runSel := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	dir := flag.String("C", ".", "change to this directory before resolving package patterns")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		buildinfo.Print(os.Stdout, "osap-vet")
		return
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-20s %s\n", a.Name, a.Doc)
		}
		return
	}

	code, err := run(os.Stdout, *dir, *jsonOut, *graph, *runSel, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "osap-vet:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run loads the patterns and either dumps the call graph (graph mode)
// or applies the selected analyzers, writing findings to w. It returns
// 1 if there were findings, 0 if clean.
func run(w io.Writer, dir string, jsonOut, graph bool, runSel string, patterns []string) (int, error) {
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		return 0, err
	}

	if graph {
		prog := analysis.NewProgram(pkgs)
		prog.CallGraph().Dump(w, prog.Fset)
		return 0, nil
	}

	analyzers := analysis.All()
	if runSel != "" {
		analyzers, err = analysis.ByName(strings.Split(runSel, ","))
		if err != nil {
			return 0, err
		}
	}
	diags := analysis.Run(pkgs, analyzers)

	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			return 0, err
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(w, d)
		}
	}
	if len(diags) > 0 {
		return 1, nil
	}
	return 0, nil
}

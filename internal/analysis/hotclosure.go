package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// HotpathClosure extends the zero-allocation contract from annotated
// functions to everything they reach (DESIGN.md §12): an allocation
// two call-hops below Guard.Decide is just as fatal to tail latency as
// one inside it, and deleting a callee's //osap:hotpath annotation
// must not hide it from the checker.
//
// The analyzer computes the transitive closure of the //osap:hotpath
// roots over the program call graph (breadth-first from the roots in
// sorted order, so the reported chains are shortest and stable), then:
//
//   - applies the hotpath-alloc body rules to every *unannotated*
//     function in the closure, citing the call chain that reached it
//     (annotated members are already checked directly by
//     hotpath-alloc);
//   - reports every dynamic call site — interface dispatch, func-typed
//     fields, parameters, multiply-assigned locals — inside the
//     closure: the engine cannot see behind them, so they are holes in
//     the allocation proof until a human vouches for them;
//   - requires //go:noescape on every body-less (assembly) function in
//     the closure. The assembly itself cannot allocate, but without
//     the pragma the compiler assumes its pointer arguments escape and
//     moves what callers pass it to the heap.
//
// //osap:hotpath-stop <reason> on a call site's line (or the line
// above) suppresses both: taint does not propagate through the edge,
// and a dynamic call there is accepted as a deliberate exit (demotion
// branches, once-per-connection control frames, panic cleanup).
// Residual findings are suppressible with //osap:ignore
// hotpath-closure <reason>.
var HotpathClosure = &Analyzer{
	Name: "hotpath-closure",
	Doc:  "the zero-allocation ban extends to every function reachable from an //osap:hotpath root",
	Run:  runHotpathClosure,
}

func runHotpathClosure(pass *Pass) {
	prog := pass.Prog
	cg := prog.CallGraph()

	// Breadth-first taint propagation from the annotated roots. chain
	// records, for each closure member, the shortest call path from a
	// root (first discovery wins; roots are processed in sorted order
	// and calls in source order, so chains are deterministic).
	chain := map[string]string{}
	var queue []string
	for _, name := range cg.names {
		if cg.Nodes[name].Hotpath {
			chain[name] = shortFuncName(name)
			queue = append(queue, name)
		}
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		node := cg.Nodes[name]
		for _, cs := range node.Calls {
			if _, seen := chain[cs.Callee]; seen {
				continue
			}
			callee, ok := cg.Nodes[cs.Callee]
			if !ok {
				continue // outside the program (stdlib)
			}
			if stopped(prog, cs.Pos) {
				continue // deliberate slow-path exit
			}
			chain[cs.Callee] = chain[name] + " → " + shortFuncName(cs.Callee)
			queue = append(queue, cs.Callee)
			_ = callee
		}
	}

	members := make([]string, 0, len(chain))
	for name := range chain {
		members = append(members, name)
	}
	sort.Strings(members)

	for _, name := range members {
		node := cg.Nodes[name]
		for _, d := range node.Dynamic {
			if stopped(prog, d.Pos) {
				continue
			}
			pass.Reportf(d.Pos,
				"%s inside the hot-path closure (%s): the call graph cannot prove it allocation-free; annotate a concrete callee //osap:hotpath or mark a deliberate exit with //osap:hotpath-stop <reason>",
				d.Desc, chain[name])
		}
		if node.NoBody {
			if !node.NoEscape {
				pass.Reportf(node.Decl.Pos(),
					"assembly function %s is on the hot path (%s) without //go:noescape: the compiler assumes its pointer arguments escape and heap-allocates what callers pass it",
					shortFuncName(name), chain[name])
			}
			continue
		}
		if node.Hotpath {
			continue // hotpath-alloc already checks annotated bodies
		}
		via := chain[name]
		checkHotpathBody(node.Pkg, node.Decl, func(pos token.Pos, format string, args ...any) {
			pass.Reportf(pos, "%s — %s is unannotated but on the hot path (%s)",
				fmt.Sprintf(format, args...), shortFuncName(name), via)
		})
	}
}

// stopped reports whether pos's line carries (or follows) an
// //osap:hotpath-stop directive.
func stopped(prog *Program, pos token.Pos) bool {
	p := prog.Fset.Position(pos)
	return prog.dirs.stoppedAt(p.Filename, p.Line)
}

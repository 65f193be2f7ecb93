package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// This file is the program call-graph engine (DESIGN.md §12). It
// resolves the static call edges of every function declared in the
// loaded packages:
//
//   - direct calls to package-level functions (same package or
//     cross-package via a qualified identifier);
//   - method calls whose receiver has a concrete (non-interface)
//     type, including promoted methods and method expressions;
//   - calls through function-valued locals that are assigned exactly
//     one function in the enclosing function body (intra-procedural
//     single-assignment tracking).
//
// Calls it cannot resolve statically — interface method dispatch,
// calls through func-typed struct fields, calls through parameters or
// multiply-assigned locals, computed call expressions — are recorded
// as dynamic sites: the hotpath-closure analyzer reports them when
// they sit inside the hot-path closure, unless an
// //osap:hotpath-stop directive covers the line.
//
// Function literals do not get nodes of their own: calls inside a
// FuncLit body are attributed to the enclosing declared function.
// That over-approximates (a stored closure may only run on a cold
// path) but errs in the safe direction for taint propagation; the
// per-edge stop directive handles deliberate exceptions. Calls inside
// single-statement panic guards (`if cond { panic(...) }`) are skipped
// entirely, matching hotpath-alloc's error-path rule.
//
// Edges whose callee is outside the loaded program (the standard
// library, since osap has no other dependencies) are dropped: there is
// no source to analyze behind them. The hot paths' stdlib surface is
// the documented trust boundary (DESIGN.md §12).

// FuncNode is one declared function in the program call graph.
type FuncNode struct {
	// Name is the stable cross-package key: types.Func.FullName(),
	// e.g. "(*osap/internal/serve.Session).Step".
	Name string
	// Pkg/Decl locate the function's source.
	Pkg  *Package
	Decl *ast.FuncDecl
	// Hotpath records an //osap:hotpath annotation (closure root).
	Hotpath bool
	// NoBody marks a declaration whose body is assembly: a leaf the
	// engine cannot look into. NoEscape records its //go:noescape
	// pragma, without which the compiler assumes every pointer handed
	// to it escapes.
	NoBody, NoEscape bool
	// Calls are the statically resolved out-edges in source order.
	Calls []CallSite
	// Dynamic are the unresolvable call sites in source order.
	Dynamic []DynamicSite
}

// CallSite is one statically resolved call edge.
type CallSite struct {
	Pos    token.Pos
	Callee string // FuncNode key (may name a function outside the program)
}

// DynamicSite is one call the engine cannot resolve statically.
type DynamicSite struct {
	Pos  token.Pos
	Desc string
}

// CallGraph is the program call graph, keyed by FuncNode.Name.
type CallGraph struct {
	Nodes map[string]*FuncNode
	// names holds the keys sorted, for deterministic traversal.
	names []string
}

func buildCallGraph(prog *Program) *CallGraph {
	cg := &CallGraph{Nodes: map[string]*FuncNode{}}
	for _, pkg := range prog.Pkgs {
		pkg.funcDecls(func(_ *ast.File, fd *ast.FuncDecl) {
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				return
			}
			node := &FuncNode{
				Name:    obj.FullName(),
				Pkg:     pkg,
				Decl:    fd,
				Hotpath: isHotpath(fd),
			}
			collectCalls(pkg, fd, node)
			cg.Nodes[node.Name] = node
		})
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body != nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					cg.Nodes[obj.FullName()] = &FuncNode{
						Name: obj.FullName(), Pkg: pkg, Decl: fd,
						NoBody: true, NoEscape: hasPragma(fd, "//go:noescape"),
					}
				}
			}
		}
	}
	for name := range cg.Nodes {
		cg.names = append(cg.names, name)
	}
	sort.Strings(cg.names)
	return cg
}

// Dump writes the graph in a stable text form (osap-vet -graph):
// every function, its hotpath annotation, resolved out-edges, and
// dynamic sites.
func (cg *CallGraph) Dump(w io.Writer, fset *token.FileSet) {
	for _, name := range cg.names {
		n := cg.Nodes[name]
		mark := ""
		switch {
		case n.Hotpath:
			mark = " [hotpath]"
		case n.NoEscape:
			mark = " [asm noescape]"
		case n.NoBody:
			mark = " [asm]"
		}
		fmt.Fprintf(w, "%s%s\n", name, mark)
		for _, cs := range n.Calls {
			fmt.Fprintf(w, "  -> %s\n", cs.Callee)
		}
		for _, d := range n.Dynamic {
			pos := fset.Position(d.Pos)
			fmt.Fprintf(w, "  ~> %s (%s:%d)\n", d.Desc, pos.Filename, pos.Line)
		}
	}
}

// collectCalls walks fd's body (including function-literal bodies) and
// fills node.Calls / node.Dynamic.
func collectCalls(pkg *Package, fd *ast.FuncDecl, node *FuncNode) {
	info := pkg.Info
	targets := localFuncTargets(pkg, fd)

	// Panic-guard bodies are error paths, not hot paths: skip their
	// call sites, consistent with the hotpath-alloc allocation rules.
	var guards []span
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok && isPanicGuard(ifs) {
			guards = append(guards, span{ifs.Pos(), ifs.End()})
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || anyContains(guards, call.Pos()) {
			return true
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion, not a call
		}
		switch fun := unparen(call.Fun).(type) {
		case *ast.Ident:
			switch obj := info.Uses[fun].(type) {
			case *types.Builtin:
			case *types.Func:
				node.addCall(call.Pos(), obj.FullName())
			case *types.Var:
				tgt, tracked := targets[obj]
				switch {
				case tracked && tgt.fn != nil:
					node.addCall(call.Pos(), tgt.fn.FullName())
				case tracked && tgt.lit:
					// Single-assigned function literal: its body is
					// already attributed to this node.
				default:
					node.Dynamic = append(node.Dynamic, DynamicSite{
						Pos:  call.Pos(),
						Desc: fmt.Sprintf("call through func value %q (parameter or multiply-assigned local)", fun.Name),
					})
				}
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[fun]; ok {
				switch sel.Kind() {
				case types.MethodVal:
					f := sel.Obj().(*types.Func)
					if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						node.Dynamic = append(node.Dynamic, DynamicSite{
							Pos:  call.Pos(),
							Desc: fmt.Sprintf("interface method call %s", shortFuncName(f.FullName())),
						})
					} else {
						node.addCall(call.Pos(), f.FullName())
					}
				case types.FieldVal:
					node.Dynamic = append(node.Dynamic, DynamicSite{
						Pos:  call.Pos(),
						Desc: fmt.Sprintf("call through func-typed field %q", fun.Sel.Name),
					})
				case types.MethodExpr:
					if f, ok := sel.Obj().(*types.Func); ok {
						node.addCall(call.Pos(), f.FullName())
					}
				}
			} else {
				// Qualified identifier: pkg.Func, pkg.Var, or a method
				// expression on a qualified type (T.Method).
				switch obj := info.Uses[fun.Sel].(type) {
				case *types.Func:
					node.addCall(call.Pos(), obj.FullName())
				case *types.Var:
					node.Dynamic = append(node.Dynamic, DynamicSite{
						Pos:  call.Pos(),
						Desc: fmt.Sprintf("call through package-level func variable %q", fun.Sel.Name),
					})
				}
			}
		case *ast.FuncLit:
			// Immediately invoked literal: body already attributed here.
		default:
			node.Dynamic = append(node.Dynamic, DynamicSite{
				Pos:  call.Pos(),
				Desc: "call through computed function expression",
			})
		}
		return true
	})
}

func (n *FuncNode) addCall(pos token.Pos, callee string) {
	n.Calls = append(n.Calls, CallSite{Pos: pos, Callee: callee})
}

// localTarget is the resolution of one function-valued local.
type localTarget struct {
	fn  *types.Func // the single named function assigned, if any
	lit bool        // assigned a single function literal instead
}

// localFuncTargets tracks function-valued locals inside fd that are
// assigned exactly once from a named function or a function literal.
// Locals assigned more than once, or from anything else, resolve to
// nothing and calls through them surface as dynamic sites.
func localFuncTargets(pkg *Package, fd *ast.FuncDecl) map[types.Object]localTarget {
	info := pkg.Info
	candidates := map[types.Object]*localTarget{}
	poisoned := map[types.Object]bool{}

	record := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return
		}
		if _, isSig := obj.Type().Underlying().(*types.Signature); !isSig {
			return
		}
		var tgt localTarget
		switch r := unparen(rhs).(type) {
		case *ast.FuncLit:
			tgt = localTarget{lit: true}
		case *ast.Ident:
			if f, ok := info.Uses[r].(*types.Func); ok {
				tgt = localTarget{fn: f}
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[r]; ok && sel.Kind() == types.MethodVal {
				// Bound method value m.F: the method body runs, but the
				// bound receiver makes this a closure; treat like a
				// named function edge.
				if f, ok := sel.Obj().(*types.Func); ok {
					if recv := f.Type().(*types.Signature).Recv(); recv == nil || !types.IsInterface(recv.Type()) {
						tgt = localTarget{fn: f}
					}
				}
			} else if f, ok := info.Uses[r.Sel].(*types.Func); ok {
				tgt = localTarget{fn: f}
			}
		}
		if tgt.fn == nil && !tgt.lit {
			poisoned[obj] = true
			return
		}
		if prev, seen := candidates[obj]; seen {
			if prev.lit != tgt.lit || prev.fn != tgt.fn {
				poisoned[obj] = true
			}
			return
		}
		t := tgt
		candidates[obj] = &t
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				for _, lhs := range x.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						if obj := info.ObjectOf(id); obj != nil {
							poisoned[obj] = true
						}
					}
				}
				break
			}
			for i := range x.Lhs {
				record(x.Lhs[i], x.Rhs[i])
			}
		case *ast.ValueSpec:
			if len(x.Names) != len(x.Values) {
				break
			}
			for i := range x.Names {
				record(x.Names[i], x.Values[i])
			}
		}
		return true
	})

	out := map[types.Object]localTarget{}
	for obj, tgt := range candidates {
		if !poisoned[obj] {
			out[obj] = *tgt
		}
	}
	return out
}

// shortFuncName strips import-path directories from a
// types.Func.FullName(), turning
// "(*osap/internal/serve.Session).Step" into "(*serve.Session).Step"
// — the form diagnostics use.
func shortFuncName(full string) string {
	prefix := ""
	s := full
	for len(s) > 0 && (s[0] == '(' || s[0] == '*') {
		prefix += s[:1]
		s = s[1:]
	}
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	return prefix + s
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

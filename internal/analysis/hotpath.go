package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotpathAlloc enforces the repo's zero-allocation serving invariant
// (DESIGN.md §6): functions annotated //osap:hotpath must not contain
// allocating constructs. Flagged: make, new, append to anything but a
// reslice-to-zero scratch buffer, slice/map composite literals,
// address-of composite literals, fmt.* calls, non-constant string
// concatenation, and closures capturing outer variables.
//
// Two idioms the hot paths rely on stay legal:
//
//   - grow-once scratch: any allocation inside an if whose condition
//     mentions cap() or len() (e.g. `if cap(p.dists) < n { p.dists =
//     make(...) }`) is the sanctioned buffer-sizing pattern;
//   - assertion guards: an if whose body is a single panic(...) call
//     is an error path, not a hot path, and is skipped entirely.
//
// The check is intra-procedural: annotate callees that must also stay
// allocation-free (the repo annotates the full Decide call chain).
var HotpathAlloc = &Analyzer{
	Name: "hotpath-alloc",
	Doc:  "//osap:hotpath functions must not contain allocating constructs",
	Run:  runHotpathAlloc,
}

func runHotpathAlloc(pass *Pass) {
	for _, pkg := range pass.Prog.Pkgs {
		pkg.funcDecls(func(_ *ast.File, fd *ast.FuncDecl) {
			if isHotpath(fd) {
				checkHotpathBody(pkg, fd, pass.Reportf)
			}
		})
	}
}

// reporter is Pass.Reportf, or the hotpath-closure analyzer's wrapper
// of it that appends the call chain that reached the function, so the
// body check serves both analyzers.
type reporter func(pos token.Pos, format string, args ...any)

// span is a half-open source range used for containment tests.
type span struct{ lo, hi token.Pos }

func (s span) contains(pos token.Pos) bool { return s.lo <= pos && pos < s.hi }

func anyContains(spans []span, pos token.Pos) bool {
	for _, s := range spans {
		if s.contains(pos) {
			return true
		}
	}
	return false
}

// checkHotpathBody applies the zero-allocation rules to one function
// body, reporting violations through report.
func checkHotpathBody(pkg *Package, fd *ast.FuncDecl, report reporter) {
	info := pkg.Info

	// First sweep: classify regions and collect scratch buffers.
	var allowed []span // bodies of cap/len-guarded ifs: allocation sanctioned
	var skipped []span // single-statement panic guards: error paths
	var closures []span
	scratch := map[types.Object]bool{} // vars assigned from x[:0]
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt:
			if isPanicGuard(x) {
				skipped = append(skipped, span{x.Pos(), x.End()})
			} else if mentionsCapLen(info, x.Cond) {
				allowed = append(allowed, span{x.Body.Pos(), x.Body.End()})
			}
		case *ast.FuncLit:
			closures = append(closures, span{x.Body.Pos(), x.Body.End()})
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				break
			}
			for i, rhs := range x.Rhs {
				id, ok := x.Lhs[i].(*ast.Ident)
				if !ok || !isResliceToZero(rhs) {
					continue
				}
				if obj := info.ObjectOf(id); obj != nil {
					scratch[obj] = true
				}
			}
		}
		return true
	})

	exempt := func(pos token.Pos) bool {
		// Skip error-path guards, sanctioned grow branches, and closure
		// bodies (the closure itself is reported once, below).
		return anyContains(skipped, pos) || anyContains(allowed, pos) || anyContains(closures, pos)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil || exempt(n.Pos()) {
			return true
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			if captured := closureCaptures(pkg, x); captured != "" {
				report(x.Pos(), "closure in hot path captures %s by reference (allocates); hoist the closure or pass state explicitly", captured)
			}
		case *ast.CallExpr:
			checkHotpathCall(pkg, x, scratch, report)
		case *ast.CompositeLit:
			switch info.TypeOf(x).Underlying().(type) {
			case *types.Slice:
				report(x.Pos(), "slice literal allocates in hot path; use a preallocated scratch buffer")
			case *types.Map:
				report(x.Pos(), "map literal allocates in hot path")
			}
		case *ast.UnaryExpr:
			if cl, ok := x.X.(*ast.CompositeLit); ok && x.Op == token.AND {
				if _, isSlice := info.TypeOf(cl).Underlying().(*types.Slice); !isSlice {
					if _, isMap := info.TypeOf(cl).Underlying().(*types.Map); !isMap {
						report(x.Pos(), "address of composite literal escapes to the heap in hot path")
					}
				}
			}
		case *ast.BinaryExpr:
			if x.Op != token.ADD {
				break
			}
			if tv, ok := info.Types[x]; ok && tv.Value == nil && isString(tv.Type) {
				report(x.Pos(), "string concatenation allocates in hot path; preformat outside or use a scratch []byte")
			}
		}
		return true
	})
}

func checkHotpathCall(pkg *Package, call *ast.CallExpr, scratch map[types.Object]bool, report reporter) {
	info := pkg.Info
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if _, ok := info.ObjectOf(fun).(*types.Builtin); !ok {
			return
		}
		switch fun.Name {
		case "make":
			report(call.Pos(), "make allocates in hot path; grow scratch buffers behind a cap()/len() guard instead")
		case "new":
			report(call.Pos(), "new allocates in hot path")
		case "append":
			if len(call.Args) == 0 || isScratchDest(info, call.Args[0], scratch) {
				return
			}
			report(call.Pos(), "append to a non-scratch destination may allocate in hot path; append only to buffers resliced from x[:0]")
		}
	case *ast.SelectorExpr:
		if pkg, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := info.ObjectOf(pkg).(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				report(call.Pos(), "fmt.%s allocates (interface boxing + formatting) in hot path", fun.Sel.Name)
			}
		}
	}
}

// isScratchDest reports whether an append destination is a sanctioned
// scratch buffer: either a variable previously assigned from x[:0], or
// a direct x[:0] reslice.
func isScratchDest(info *types.Info, dest ast.Expr, scratch map[types.Object]bool) bool {
	switch d := dest.(type) {
	case *ast.Ident:
		return scratch[info.ObjectOf(d)]
	default:
		return isResliceToZero(dest)
	}
}

// isResliceToZero matches x[:0] and x[:0:n].
func isResliceToZero(e ast.Expr) bool {
	se, ok := e.(*ast.SliceExpr)
	if !ok || se.High == nil {
		return false
	}
	lit, ok := se.High.(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == "0"
}

// isPanicGuard matches `if cond { panic(...) }` assertion guards.
func isPanicGuard(ifs *ast.IfStmt) bool {
	if len(ifs.Body.List) != 1 || ifs.Else != nil {
		return false
	}
	es, ok := ifs.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// mentionsCapLen reports whether cond contains a cap() or len() call —
// the shape of a scratch-growth guard.
func mentionsCapLen(info *types.Info, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
			if _, builtin := info.ObjectOf(id).(*types.Builtin); builtin {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// closureCaptures returns the name of a variable the closure captures
// from an enclosing function scope ("" if it captures nothing).
func closureCaptures(pkg *Package, fl *ast.FuncLit) string {
	info := pkg.Info
	pkgScope := pkg.Types.Scope()
	captured := ""
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Parent() == pkgScope || v.Parent() == nil {
			return true
		}
		if v.Pos() < fl.Pos() || v.Pos() >= fl.End() {
			captured = v.Name()
			return false
		}
		return true
	})
	return captured
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

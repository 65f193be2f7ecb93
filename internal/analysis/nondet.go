package analysis

import (
	"go/ast"
	"go/types"
)

// Nondeterminism enforces the repo's reproducibility contract
// (DESIGN.md §5): training and evaluation are pure functions of their
// seeds. In deterministic packages — the core training/eval packages
// by import path, plus any package carrying an //osap:deterministic
// file comment — it flags:
//
//   - time.Now / time.Since (wall-clock input);
//   - the global math/rand and math/rand/v2 generators (unseeded,
//     process-global); explicitly seeded sources via rand.New /
//     rand.NewSource stay legal, as does the repo's own stats.RNG;
//   - map iteration whose order can leak into output: a range over a
//     map whose body appends to an outer slice or formats/writes —
//     collect the keys and sort them first;
//   - map iteration whose order picks the random numbers: a range over
//     a map whose body calls, or passes along, a *stats.RNG declared
//     outside the loop — each key then draws whatever the keys before
//     it left.
var Nondeterminism = &Analyzer{
	Name: "nondeterminism",
	Doc:  "deterministic packages must not read wall clocks, global RNGs, or map order",
	Run:  runNondeterminism,
}

// deterministicPkgs are opted in by import path: the packages whose
// outputs (trained models, figures, benchmark JSON) must be bitwise
// reproducible from their seeds.
var deterministicPkgs = map[string]bool{
	"osap/internal/nn":          true,
	"osap/internal/rl":          true,
	"osap/internal/ocsvm":       true,
	"osap/internal/experiments": true,
	// Drift sketches must merge identically given identical operand
	// order, and the registry must hash/list files in sorted order —
	// both are cross-fleet comparison surfaces.
	"osap/internal/sketch":   true,
	"osap/internal/registry": true,
	// Online refits must be reproducible from (seed, refit sequence):
	// the clock enters only through the Config.Now seam.
	"osap/internal/learn": true,
}

// seededConstructors are the math/rand functions that construct
// explicitly-seeded generators and are therefore allowed.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runNondeterminism(pass *Pass) {
	for _, pkg := range pass.Prog.Pkgs {
		if !deterministicPkgs[pkg.Path] && !isDeterministicPackage(pkg) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					checkNondetCall(pass, pkg, x)
				case *ast.RangeStmt:
					if t := pkg.Info.TypeOf(x.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							checkMapRange(pass, pkg, x)
						}
					}
				}
				return true
			})
		}
	}
}

func checkNondetCall(pass *Pass, pkg *Package, call *ast.CallExpr) {
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkgID, ok := fun.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := pkg.Info.ObjectOf(pkgID).(*types.PkgName)
	if !ok {
		return
	}
	switch pn.Imported().Path() {
	case "time":
		if fun.Sel.Name == "Now" || fun.Sel.Name == "Since" {
			pass.Reportf(call.Pos(), "time.%s reads the wall clock in a deterministic package; inject a clock or pass timestamps in", fun.Sel.Name)
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[fun.Sel.Name] {
			pass.Reportf(call.Pos(), "%s.%s uses the process-global RNG in a deterministic package; thread a seeded generator (stats.RNG) instead", pn.Imported().Path(), fun.Sel.Name)
		}
	}
}

// checkMapRange flags a map range whose body has order-sensitive
// effects: appending to a slice declared outside the loop,
// formatting/printing, or drawing from a *stats.RNG declared outside
// the loop.
func checkMapRange(pass *Pass, pkg *Package, rng *ast.RangeStmt) {
	info := pkg.Info
	// outerRNG reports whether e names a *stats.RNG declared outside the
	// range: one generator shared by every iteration hands its draws out
	// in map order.
	outerRNG := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		if !ok {
			return false
		}
		v, ok := info.ObjectOf(id).(*types.Var)
		return ok && isStatsRNG(v.Type()) && (v.Pos() < rng.Pos() || v.Pos() >= rng.End())
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		drawn := false
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && outerRNG(sel.X) {
			drawn = true
		}
		for _, arg := range call.Args {
			drawn = drawn || outerRNG(arg)
		}
		if drawn {
			pass.Reportf(call.Pos(), "a *stats.RNG declared outside a map range is drawn in nondeterministic order; iterate the keys in a fixed order or derive a generator per key")
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name != "append" || len(call.Args) == 0 {
				return true
			}
			if _, builtin := info.ObjectOf(fun).(*types.Builtin); !builtin {
				return true
			}
			dest, ok := call.Args[0].(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := info.ObjectOf(dest).(*types.Var)
			if !ok {
				return true
			}
			// Appending to a variable declared outside the range body
			// accumulates elements in map order.
			if v.Pos() < rng.Pos() || v.Pos() >= rng.End() {
				pass.Reportf(call.Pos(), "append inside a map range accumulates in nondeterministic order; collect the keys, sort them, then iterate")
			}
		case *ast.SelectorExpr:
			if pkgID, ok := fun.X.(*ast.Ident); ok {
				if pn, ok := info.ObjectOf(pkgID).(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
					pass.Reportf(call.Pos(), "fmt.%s inside a map range emits output in nondeterministic order; sort the keys first", fun.Sel.Name)
				}
			}
		}
		return true
	})
}

// isStatsRNG reports whether t is *stats.RNG, the repo's seeded
// generator.
func isStatsRNG(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "osap/internal/stats" && n.Obj().Name() == "RNG"
}

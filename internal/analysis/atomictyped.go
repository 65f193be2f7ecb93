package analysis

import "go/types"

// AtomicTyped admits only the typed sync/atomic API (atomic.Int64,
// atomic.Bool, atomic.Pointer[T], …) in shipping code. The two hazards
// of the function-style API then cannot be written at all: a 64-bit
// field handed to atomic.AddInt64 and friends is only 4-byte aligned
// behind other fields on 32-bit platforms, and a field that some code
// updates atomically can still be read or written plainly elsewhere.
// The wrapper types carry their own alignment and hide the value
// behind Load/Store. atomic.Value is refused too: a Store of a
// different concrete type panics at run time, where atomic.Pointer[T]
// fixes the type at compile time.
var AtomicTyped = &Analyzer{
	Name: "atomic-typed",
	Doc:  "use the typed sync/atomic wrappers; no function-style sync/atomic calls and no atomic.Value",
	Run:  runAtomicTyped,
}

func runAtomicTyped(pass *Pass) {
	for _, pkg := range pass.Prog.Pkgs {
		for id, obj := range pkg.Info.Uses {
			if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
				continue
			}
			switch obj := obj.(type) {
			case *types.Func:
				if obj.Type().(*types.Signature).Recv() == nil {
					pass.Reportf(id.Pos(), "atomic.%s is the function-style sync/atomic API; make the field a typed atomic (atomic.Int64, atomic.Bool, …) and call its methods", obj.Name())
				}
			case *types.TypeName:
				if obj.Name() == "Value" {
					pass.Reportf(id.Pos(), "atomic.Value panics on a Store of a different concrete type; use atomic.Pointer[T]")
				}
			}
		}
	}
}

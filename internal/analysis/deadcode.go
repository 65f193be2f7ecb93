package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeadCode enforces "no function without a caller" (DESIGN.md §8,
// §12). It walks a reference graph, not the call graph: a function
// value stored in a struct, a call inside a panic guard and a var
// initializer all keep their target alive here, where the call graph
// drops them. Nodes are the package-level declarations of the loaded
// (non-test) files; a declaration's edges are every object its source
// uses. The roots are
//
//   - main and init of every main package, and init of every package;
//   - the exported declarations, and the exported methods of exported
//     types, of the module's root package and of every library package
//     no loaded package imports (test-support packages, whose only
//     importers are _test.go files);
//   - package-level blank vars (`var _ = …`), whose initializers run;
//   - what each function a deadcode ignore directive keeps uses, so
//     that a callee only it reaches needs no directive of its own;
//   - each method of a live type that satisfies an interface type the
//     loaded code mentions, when a call through the interface can
//     reach it: for an interface the module declares, only if some
//     non-test code calls that method on an interface value; for one
//     the standard library declares, always, since library code the
//     load does not see makes the call. The String/Error/marshaler
//     methods the standard library finds by type assertion are live
//     too.
//
// It reports functions and methods only: a dead const, var or type
// costs no code path. A reference from a _test.go file does not make a
// function live, so a test oracle either moves into a test file or
// carries //osap:ignore deadcode <reason>. The analyzer needs every
// caller in view, so it runs only on a whole-module load (./... at the
// module root) and is silent on a narrower one.
var DeadCode = &Analyzer{
	Name: "deadcode",
	Doc:  "every function and method must be reachable from a main, an init, the module's API or an interface the code uses",
	Run:  runDeadCode,
}

func runDeadCode(pass *Pass) {
	pkgs := pass.Prog.Pkgs
	if len(pkgs) == 0 {
		return
	}
	module := pkgs[0].module
	for _, pkg := range pkgs {
		if pkg.module == "" || pkg.module != module {
			return
		}
	}

	// Each package is checked from source but sees its imports through
	// export data, so one declaration has one object per package that
	// mentions it: objects are keyed by import path and name.
	loaded := map[string]bool{}
	imported := map[string]bool{}
	for _, pkg := range pkgs {
		loaded[pkg.Path] = true
		for _, imp := range pkg.Types.Imports() {
			imported[imp.Path()] = true
		}
	}

	d := &deadcode{refs: map[string][]string{}, live: map[string]bool{}, typeNames: map[string]*types.TypeName{}}
	var funcs []*types.Func
	for _, pkg := range pkgs {
		api := pkg.Name != "main" && (pkg.Path == module || !imported[pkg.Path])
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					fn := pkg.Info.Defs[decl.Name].(*types.Func)
					key := objectKey(fn)
					d.refs[key] = append(d.refs[key], usedObjects(pkg.Info, loaded, decl)...) // several inits share a key
					funcs = append(funcs, fn)
					name, pos := decl.Name.Name, pass.Prog.Fset.Position(fn.Pos())
					switch {
					case decl.Recv == nil && (name == "init" || name == "main" && pkg.Name == "main"):
						d.mark(key)
					case api && fn.Exported() && (decl.Recv == nil || receiverExported(fn)):
						d.mark(key)
					case pass.Prog.dirs.suppressed(Diagnostic{Analyzer: pass.Analyzer.Name, File: pos.Filename, Line: pos.Line}):
						d.markAll(d.refs[key]) // kept on purpose, so what it uses is kept
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						var names []*ast.Ident
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{spec.Name}
						case *ast.ValueSpec:
							names = spec.Names
						}
						used := usedObjects(pkg.Info, loaded, spec)
						for _, id := range names {
							if id.Name == "_" {
								d.markAll(used)
								continue
							}
							obj := pkg.Info.Defs[id]
							key := objectKey(obj)
							d.refs[key] = used
							if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
								d.typeNames[key] = tn
							}
							if api && obj.Exported() {
								d.mark(key)
							}
						}
					}
				}
			}
		}
	}

	// Follow references to a fixed point: a live type's methods that an
	// interface the code mentions asks for are reachable through a call
	// on that interface, and what they use is live in turn.
	ifaces, called := mentionedInterfaces(pkgs), interfaceCalls(pkgs)
	matched := map[string]bool{}
	for progressed := true; progressed; {
		d.drain()
		progressed = false
		for key, tn := range d.typeNames {
			if !d.live[key] || matched[key] {
				continue
			}
			matched[key] = true
			progressed = true
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj(); stdlibAsserted[m.Name()] == signature(m.Type()) {
					d.mark(objectKey(m))
				}
			}
			for _, iface := range ifaces {
				for i, sel := range implements(ms, iface) {
					if m := iface.Method(i); m.Pkg() == nil || !loaded[m.Pkg().Path()] || called[objectKey(m)] {
						d.mark(objectKey(sel.Obj()))
					}
				}
			}
		}
	}

	for _, fn := range funcs {
		if !d.live[objectKey(fn)] {
			pass.Reportf(fn.Pos(), "%s has no caller: no main, init, exported API or used interface reaches it", shortFuncName(fn.FullName()))
		}
	}
}

// stdlibAsserted are the methods the standard library finds by a type
// assertion on an interface{} value — fmt's Stringer, GoStringer and
// error, encoding/json's and encoding's marshalers — keyed by name, with
// their signatures as signature renders them. No interface the loaded
// code mentions names them.
var stdlibAsserted = map[string]string{
	"String":        "()(string,)",
	"GoString":      "()(string,)",
	"Error":         "()(string,)",
	"MarshalJSON":   "()([]byte,error,)",
	"UnmarshalJSON": "([]byte,)(error,)",
	"MarshalText":   "()([]byte,error,)",
	"UnmarshalText": "([]byte,)(error,)",
}

// deadcode is the reachability state of one run, over object keys.
type deadcode struct {
	// refs maps a package-level declaration or method to the
	// package-level declarations and methods its source uses.
	refs map[string][]string
	live map[string]bool
	// queue holds live keys whose references are not yet followed.
	queue []string
	// typeNames holds the declared named non-interface types.
	typeNames map[string]*types.TypeName
}

func (d *deadcode) mark(key string) {
	if key == "" || d.live[key] {
		return
	}
	d.live[key] = true
	d.queue = append(d.queue, key)
}

func (d *deadcode) markAll(keys []string) {
	for _, k := range keys {
		d.mark(k)
	}
}

// drain follows the references of every live key not yet followed.
func (d *deadcode) drain() {
	for len(d.queue) > 0 {
		key := d.queue[len(d.queue)-1]
		d.queue = d.queue[:len(d.queue)-1]
		d.markAll(d.refs[key])
	}
}

// objectKey names a package-level object or a method by import path
// and name, the same whichever package's view it comes from; it is ""
// for fields, locals and anything else that has no declaration node.
func objectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin().FullName()
	}
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// usedObjects returns the keys of the loaded packages' declarations and
// methods that node's source uses.
func usedObjects(info *types.Info, loaded map[string]bool, node ast.Node) []string {
	var out []string
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && obj.Pkg() != nil && loaded[obj.Pkg().Path()] {
				if key := objectKey(obj); key != "" {
					out = append(out, key)
				}
			}
		}
		return true
	})
	return out
}

// implements returns the selections through which method set ms
// satisfies iface, or nil. Methods match by Id and by signature text,
// since the two sides may be different packages' views of one type.
func implements(ms *types.MethodSet, iface *types.Interface) []*types.Selection {
	sels := make([]*types.Selection, 0, iface.NumMethods())
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		sel := ms.Lookup(m.Pkg(), m.Name())
		if sel == nil || signature(sel.Obj().Type()) != signature(m.Type()) {
			return nil
		}
		sels = append(sels, sel)
	}
	return sels
}

// signature renders a method's parameter and result types without
// their names, qualified by import path.
func signature(t types.Type) string {
	sig := t.(*types.Signature)
	var b strings.Builder
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tup.Len(); i++ {
			b.WriteString(types.TypeString(tup.At(i).Type(), func(p *types.Package) string { return p.Path() }))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// receiverExported reports whether method fn's receiver base type is
// exported, so that fn is part of its package's API.
func receiverExported(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	return ok && named.Obj().Exported()
}

// interfaceCalls returns the keys of the interface methods that the
// loaded code calls, or takes as a method value or expression, on an
// interface value (a type parameter's counts: its constraint is one).
func interfaceCalls(pkgs []*Package) map[string]bool {
	called := map[string]bool{}
	for _, pkg := range pkgs {
		for _, sel := range pkg.Info.Selections {
			if sel.Kind() != types.FieldVal && types.IsInterface(sel.Recv()) {
				called[objectKey(sel.Obj())] = true
			}
		}
	}
	return called
}

// mentionedInterfaces collects the non-empty interface types that the
// loaded code's expressions and identifiers have, or take or return:
// an interface a call site can reach a method through.
func mentionedInterfaces(pkgs []*Package) []*types.Interface {
	seen := map[types.Type]bool{}
	var out []*types.Interface
	var visit func(t types.Type)
	visit = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if iface, ok := t.Underlying().(*types.Interface); ok {
				visit(iface)
			}
		case *types.Interface:
			if t.NumMethods() > 0 {
				out = append(out, t)
			}
		case *types.Pointer:
			visit(t.Elem())
		case *types.Slice:
			visit(t.Elem())
		case *types.Array:
			visit(t.Elem())
		case *types.Chan:
			visit(t.Elem())
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		case *types.Signature:
			visit(t.Params())
			visit(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				visit(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				visit(t.Field(i).Type())
			}
		}
	}
	for _, pkg := range pkgs {
		for _, tv := range pkg.Info.Types {
			visit(tv.Type)
		}
		for _, obj := range pkg.Info.Uses {
			visit(obj.Type())
		}
		for _, obj := range pkg.Info.Defs {
			if obj != nil {
				visit(obj.Type())
			}
		}
	}
	return out
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GuardedBy enforces declared lock discipline (whole-program): a
// struct field carrying //osap:guardedby <mu> in its doc or line
// comment may only be accessed
//
//   - inside a lexical region where <mu> is held on the same base
//     path as the access — between `x.mu.Lock()` (or RLock) and the
//     matching `x.mu.Unlock()`, or from `x.mu.Lock()` to the end of
//     the function when the unlock is deferred (an unlock nested more
//     deeply than its lock — the unlock-and-return early exit — leaves
//     the outer region open); accessing `sh.m` requires `sh.mu` held,
//     not some other shard's lock — or
//   - inside a method of the owning struct whose name ends in
//     "Locked", the repo's caller-holds-the-lock convention
//     (serveSafeLocked, settleLocked, promoteLocked, ...).
//
// The named mutex must be a sibling field of sync.Mutex or
// sync.RWMutex type (directly or behind a pointer); a directive naming
// anything else is itself a finding. The region tracking is
// intra-procedural and purely lexical: a lock taken inside a closure
// or a helper does not license accesses outside it. Constructor-style
// initialization before the value is shared is the intended use of
// //osap:ignore guardedby <reason>.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc:  "fields annotated //osap:guardedby <mu> may only be accessed with the named lock held",
	Run:  runGuardedBy,
}

// guardedField is one annotated field.
type guardedField struct {
	mu    string // sibling lock field name
	owner string // "pkgPath.Type" key of the declaring struct
}

func runGuardedBy(pass *Pass) {
	guarded := collectGuardedFields(pass)
	if len(guarded) == 0 {
		return
	}
	for _, pkg := range pass.Prog.Pkgs {
		pkg.funcDecls(func(_ *ast.File, fd *ast.FuncDecl) {
			checkGuardedAccesses(pass, pkg, fd, guarded)
		})
	}
}

// collectGuardedFields walks every struct declaration for
// //osap:guardedby field annotations, validates that the named mutex
// is a sibling lock field, and returns the field-key → annotation
// index.
func collectGuardedFields(pass *Pass) map[string]guardedField {
	out := map[string]guardedField{}
	for _, pkg := range pass.Prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					mu := fieldDirective(field)
					if mu == "" {
						continue
					}
					if !hasLockSibling(pkg, st, mu) {
						pass.Reportf(field.Pos(),
							"//osap:guardedby %s: %s.%s has no sibling field %q of sync.Mutex/RWMutex type",
							mu, ts.Name.Name, fieldNames(field), mu)
						continue
					}
					owner := pkg.Path + "." + ts.Name.Name
					for _, name := range field.Names {
						out[owner+"."+name.Name] = guardedField{mu: mu, owner: owner}
					}
				}
				return true
			})
		}
	}
	return out
}

// fieldDirective extracts the guardedby mutex name from a struct
// field's doc or trailing line comment ("" if absent or malformed —
// malformed shapes are already reported by scanDirectives).
func fieldDirective(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if mu := parseGuardedBy(c.Text); mu != "" {
				return mu
			}
		}
	}
	return ""
}

func fieldNames(field *ast.Field) string {
	names := make([]string, 0, len(field.Names))
	for _, n := range field.Names {
		names = append(names, n.Name)
	}
	return strings.Join(names, ",")
}

// hasLockSibling reports whether the struct literally declares a field
// named mu whose type is sync.Mutex or sync.RWMutex (directly or
// behind a pointer).
func hasLockSibling(pkg *Package, st *ast.StructType, mu string) bool {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.Name != mu {
				continue
			}
			t := pkg.Info.TypeOf(field.Type)
			if t == nil {
				return false
			}
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return false
			}
			obj := named.Obj()
			return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
				(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
		}
	}
	return false
}

// lockRegion is one lexical span in which a lock path is held.
type lockRegion struct {
	path string // rendered lock expression, e.g. "sh.mu"
	span span
}

// checkGuardedAccesses verifies every guarded-field access in fd.
func checkGuardedAccesses(pass *Pass, pkg *Package, fd *ast.FuncDecl, guarded map[string]guardedField) {
	info := pkg.Info
	var regions []lockRegion
	var accesses []*ast.SelectorExpr

	// One source-order sweep: open a region at each Lock/RLock call,
	// close the most recent matching one at each Unlock/RUnlock, and
	// extend to the function end when the unlock is deferred. Block
	// depth distinguishes an early-exit unlock (`if dup { mu.Unlock();
	// return ... }`) from the closing unlock on the main path: an
	// unlock more deeply nested than its lock leaves the outer region
	// open, since the fallthrough path still holds the lock.
	type open struct {
		path  string
		start token.Pos
		depth int
	}
	var opens []open
	deferCalls := map[*ast.CallExpr]bool{}
	blockDepth := 0
	var blockStack []bool
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			if last := len(blockStack) - 1; last >= 0 {
				if blockStack[last] {
					blockDepth--
				}
				blockStack = blockStack[:last]
			}
			return true
		}
		isBlock := false
		switch n.(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
			isBlock = true
			blockDepth++
		}
		blockStack = append(blockStack, isBlock)
		switch x := n.(type) {
		case *ast.DeferStmt:
			deferCalls[x.Call] = true
		case *ast.CallExpr:
			fun, ok := unparen(x.Fun).(*ast.SelectorExpr)
			if !ok || !isSyncLockMethod(info, fun) {
				break
			}
			path := exprPath(fun.X)
			if path == "" {
				break
			}
			switch fun.Sel.Name {
			case "Lock", "RLock":
				if !deferCalls[x] { // `defer mu.Lock()` is a bug, not a region
					opens = append(opens, open{path: path, start: x.End(), depth: blockDepth})
				}
			case "Unlock", "RUnlock":
				if deferCalls[x] {
					break // deferred unlock: region runs to function end
				}
				for i := len(opens) - 1; i >= 0; i-- {
					if opens[i].path != path {
						continue
					}
					if blockDepth > opens[i].depth {
						break // early-exit unlock in a nested branch
					}
					regions = append(regions, lockRegion{path: path, span: span{opens[i].start, x.Pos()}})
					opens = append(opens[:i], opens[i+1:]...)
					break
				}
			}
		case *ast.SelectorExpr:
			accesses = append(accesses, x)
		}
		return true
	})
	for _, o := range opens {
		regions = append(regions, lockRegion{path: o.path, span: span{o.start, fd.Body.End()}})
	}

	for _, sel := range accesses {
		key := fieldKey(pkg, sel)
		gf, ok := guarded[key]
		if !ok {
			continue
		}
		if isLockedMethodOf(pkg, fd, gf.owner) {
			continue
		}
		base := exprPath(sel.X)
		want := base + "." + gf.mu
		held := false
		if base != "" {
			for _, r := range regions {
				if r.path == want && r.span.contains(sel.Pos()) {
					held = true
					break
				}
			}
		}
		if !held {
			pass.Reportf(sel.Pos(),
				"access to %s without holding %s (//osap:guardedby): lock it, move the access into a *Locked method of %s, or justify with //osap:ignore guardedby <reason>",
				shortFuncName(key), lockDisplay(base, gf.mu), shortFuncName(gf.owner))
		}
	}
}

func lockDisplay(base, mu string) string {
	if base == "" {
		return mu
	}
	return base + "." + mu
}

// isSyncLockMethod reports whether sel names a (R)Lock/(R)Unlock
// method declared by the sync package.
func isSyncLockMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	f, ok := s.Obj().(*types.Func)
	return ok && f.Pkg() != nil && f.Pkg().Path() == "sync"
}

// isLockedMethodOf reports whether fd is a "*Locked" method of the
// struct identified by ownerKey — the repo's convention for helpers
// whose caller holds the lock.
func isLockedMethodOf(pkg *Package, fd *ast.FuncDecl, ownerKey string) bool {
	if !strings.HasSuffix(fd.Name.Name, "Locked") || fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := pkg.Info.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	path := ""
	if obj.Pkg() != nil {
		path = obj.Pkg().Path() + "."
	}
	return path+obj.Name() == ownerKey
}

// exprPath renders a selector base as a stable path string ("sh",
// "s.rollout", "t.shards[i]"); "" when the expression is not a simple
// path (the access is then reported — an unrenderable base cannot be
// matched to a lock region).
func exprPath(e ast.Expr) string {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		p := exprPath(x.X)
		if p == "" {
			return ""
		}
		return p + "." + x.Sel.Name
	case *ast.StarExpr:
		return exprPath(x.X)
	case *ast.IndexExpr:
		p := exprPath(x.X)
		if p == "" {
			return ""
		}
		switch idx := unparen(x.Index).(type) {
		case *ast.Ident:
			return p + "[" + idx.Name + "]"
		case *ast.BasicLit:
			return p + "[" + idx.Value + "]"
		}
		return ""
	}
	return ""
}

// fieldKey names a struct-field selection stably across package views:
// "pkgPath.Type.field" derived from the receiver's named type ("" if
// the selection is not a field access on a named struct). Export-data
// object identities differ per importing package, so string keys are
// the cross-package join point.
func fieldKey(pkg *Package, sel *ast.SelectorExpr) string {
	s := pkg.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return ""
	}
	t := s.Recv()
	// The field may be promoted: walk the embedding path so the key
	// names the struct that declares the field.
	idx := s.Index()
	for _, i := range idx[:len(idx)-1] {
		st, ok := derefStruct(t)
		if !ok {
			return ""
		}
		t = st.Field(i).Type()
	}
	for {
		ptr, ok := t.Underlying().(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	path := ""
	if obj.Pkg() != nil {
		path = obj.Pkg().Path() + "."
	}
	return path + obj.Name() + "." + s.Obj().Name()
}

// derefStruct unwraps pointers and names down to a struct type.
func derefStruct(t types.Type) (*types.Struct, bool) {
	for {
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Struct:
			return u, true
		default:
			return nil, false
		}
	}
}

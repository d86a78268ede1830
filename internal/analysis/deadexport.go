package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Deadexport reports exported API nothing uses: every exported
// package-level func, type, var and const, and every exported method,
// declared in a non-test file of a package under internal/ that no
// non-test file of the module references. Examples, cmd/ and the root
// package count as callers; a reference from a _test.go file does not,
// nor does a declaration's reference to itself (a recursive call, a
// method's receiver). A method also counts as referenced when some
// interface type in the module — anonymous ones in type assertions
// included — or a well-known standard-library interface declares a
// method of its name, because a call through the interface never names
// the concrete method. //jenga:api <why> on the declaration keeps an
// entry point that is API on purpose.
//
// It needs every package's uses at once, so it runs once over the
// whole loaded set (RunModule) instead of once per package.
var Deadexport = &Analyzer{
	Name:      "deadexport",
	Doc:       "report exported identifiers under internal/ with no non-test reference",
	RunModule: runDeadexport,
}

// stdMethods are method names standard-library interfaces call
// implicitly (fmt, errors, sort, container/heap, encoding).
var stdMethods = []string{
	"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
	"Len", "Less", "Swap", "Push", "Pop",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
}

func runDeadexport(passes []*Pass) error {
	used := map[string]bool{}
	ifaceMethods := map[string]bool{}
	for _, m := range stdMethods {
		ifaceMethods[m] = true
	}
	for _, pass := range passes {
		// self maps a declaration's key to its own span, and recvs holds
		// method receiver type names: neither keeps a declaration alive.
		self := map[string]ast.Node{}
		recvs := map[*ast.Ident]bool{}
		for _, f := range pass.Files {
			if pass.IsTestFile(f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, name := range m.Names {
							ifaceMethods[name.Name] = true
						}
					}
				case *ast.FuncDecl:
					if obj := pass.Info.Defs[n.Name]; obj != nil {
						self[objKey(obj)] = n
					}
					if n.Recv != nil {
						recvs[recvIdent(n.Recv.List[0].Type)] = true
					}
				case *ast.TypeSpec:
					if obj := pass.Info.Defs[n.Name]; obj != nil {
						self[objKey(obj)] = n
					}
				}
				return true
			})
		}
		for id, obj := range pass.Info.Uses {
			if !obj.Exported() || recvs[id] || strings.HasSuffix(pass.Fset.File(id.Pos()).Name(), "_test.go") {
				continue
			}
			k := objKey(obj)
			if d := self[k]; k == "" || d != nil && d.Pos() <= id.Pos() && id.Pos() < d.End() {
				continue
			}
			used[k] = true
		}
	}

	for _, pass := range passes {
		if !strings.Contains("/"+pass.Path, "/internal/") {
			continue
		}
		for _, f := range pass.Files {
			if pass.IsTestFile(f) {
				continue
			}
			report := func(name *ast.Ident, kind string) {
				obj := pass.Info.Defs[name]
				if !name.IsExported() || obj == nil || used[objKey(obj)] || pass.suppressed(f, "api", name.Pos()) {
					return
				}
				pass.Reportf(name.Pos(), "exported %s %s has no non-test reference: delete it, or mark it //jenga:api <why>", kind, name.Name)
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						report(d.Name, "func")
					} else if !ifaceMethods[d.Name.Name] {
						report(d.Name, "method")
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							report(s.Name, "type")
						case *ast.ValueSpec:
							for _, name := range s.Names {
								report(name, strings.ToLower(d.Tok.String()))
							}
						}
					}
				}
			}
		}
	}
	return nil
}

// objKey names a package-level object or a method the same way in
// every package, whether it was type-checked from source or imported
// from export data: package path, receiver type for a method, then the
// name. Anything else (a field, a local) has no key.
func objKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		t := fn.Signature().Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		recv := "" // an anonymous interface
		if n, ok := t.(*types.Named); ok {
			recv = n.Obj().Name()
		}
		name = recv + "." + name
	} else if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + name
}

// recvIdent is the type name of a receiver expression: T, *T, T[E] or
// *T[E].
func recvIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath holds functions annotated //jenga:hotpath — the zero-alloc
// set whose budget alloc_budget_test.go pins with
// testing.AllocsPerRun — to the allocation contract: no fmt calls, no
// map or closure allocation, no growing a nil local slice (the
// amortized scratch buffers that make these paths zero-alloc are
// struct fields, never loop-local slices born nil), and no boxing: a
// concrete value converted to an interface — as a call argument
// (variadic ...any included), a return value, or the right-hand side
// of an assignment — is copied to the heap unless it is a pointer, a
// constant or a single byte. Cold branches that must allocate move to
// an unannotated helper or carry //jenga:alloc-ok <why>; the one
// built-in exemption is the invariant idiom `if bad { check(false,
// "...", args) }`, whose arguments are evaluated only on the way to a
// panic. The check is per-function, not transitive: annotate every
// function of a measured chain.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "enforce the zero-alloc contract in //jenga:hotpath functions",
	Run:  runHotpath,
}

func runHotpath(pass *Pass) error {
	for _, f := range pass.Files {
		fp := pass.FilePragmas(f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fp.HotpathPragma(fn) == nil {
				continue
			}
			checkHotFunc(pass, f, fn)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, f *ast.File, fn *ast.FuncDecl) {
	// Nil-born local slices: `var x []T` declared in this function.
	nilSlices := map[types.Object]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		decl, ok := n.(*ast.DeclStmt)
		if !ok {
			return true
		}
		gd, ok := decl.Decl.(*ast.GenDecl)
		if !ok {
			return true
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) > 0 {
				continue
			}
			for _, name := range vs.Names {
				obj := pass.Info.Defs[name]
				if obj == nil {
					continue
				}
				if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
					nilSlices[obj] = true
				}
			}
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if !pass.suppressed(f, "alloc-ok", n.Pos()) {
				pass.Reportf(n.Pos(), "closure in //jenga:hotpath function %s may allocate per call; hoist it or justify with //jenga:alloc-ok <why>", fn.Name.Name)
			}
			return false
		case *ast.CompositeLit:
			if tv, ok := pass.Info.Types[n]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					if !pass.suppressed(f, "alloc-ok", n.Pos()) {
						pass.Reportf(n.Pos(), "map literal in //jenga:hotpath function %s allocates; reuse a field or justify with //jenga:alloc-ok <why>", fn.Name.Name)
					}
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, f, fn, n, nilSlices)
			checkCallBoxing(pass, f, fn, n)
		case *ast.ReturnStmt:
			if res := pass.Info.Defs[fn.Name].Type().(*types.Signature).Results(); res.Len() == len(n.Results) {
				for i, e := range n.Results {
					checkBoxing(pass, f, fn, e, res.At(i).Type())
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i, e := range n.Rhs {
					if tv, ok := pass.Info.Types[n.Lhs[i]]; ok {
						checkBoxing(pass, f, fn, e, tv.Type)
					}
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil && len(n.Names) == len(n.Values) {
				for _, e := range n.Values {
					checkBoxing(pass, f, fn, e, pass.Info.TypeOf(n.Type))
				}
			}
		}
		return true
	})
}

// checkCallBoxing checks every argument of a call (or the operand of a
// conversion) against the parameter type it is passed as.
func checkCallBoxing(pass *Pass, f *ast.File, fn *ast.FuncDecl, call *ast.CallExpr) {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() { // explicit conversion T(x)
		if len(call.Args) == 1 {
			checkBoxing(pass, f, fn, call.Args[0], tv.Type)
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || isFmtCall(pass, call) || isInvariantFailure(call) {
		// A builtin; a call the fmt finding already covers, boxing
		// included; or arguments evaluated only on the panic path.
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // xs... passes the slice through
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue // f(g()) with a multi-value g
		}
		checkBoxing(pass, f, fn, arg, pt)
	}
}

// isInvariantFailure recognizes check(false, ...): the repo's
// invariant helper called on an already-failed condition, i.e. a
// formatted panic.
func isInvariantFailure(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "check" || len(call.Args) == 0 {
		return false
	}
	cond, ok := call.Args[0].(*ast.Ident)
	return ok && cond.Name == "false"
}

// checkBoxing reports e when storing it as a value of type to converts
// a concrete value to an interface by copying it to the heap.
func checkBoxing(pass *Pass, f *ast.File, fn *ast.FuncDecl, e ast.Expr, to types.Type) {
	if to == nil || !types.IsInterface(to) {
		return
	}
	if _, isTypeParam := to.(*types.TypeParam); isTypeParam {
		return
	}
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil || tv.IsNil() || types.IsInterface(tv.Type) {
		return // constant, nil, or already an interface
	}
	switch u := tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return // pointer-shaped: stored in the interface word itself
	case *types.Basic:
		if u.Kind() == types.UnsafePointer || u.Info()&types.IsBoolean != 0 ||
			u.Kind() == types.Uint8 || u.Kind() == types.Int8 {
			return // single bytes come from the runtime's static table
		}
	}
	if !pass.suppressed(f, "alloc-ok", e.Pos()) {
		pass.Reportf(e.Pos(), "%s value boxed into %s in //jenga:hotpath function %s allocates; pass a pointer, keep it typed, or justify with //jenga:alloc-ok <why>",
			types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)), types.TypeString(to, types.RelativeTo(pass.Pkg)), fn.Name.Name)
	}
}

func checkHotCall(pass *Pass, f *ast.File, fn *ast.FuncDecl, call *ast.CallExpr, nilSlices map[types.Object]bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if _, isBuiltin := pass.Info.Uses[fun].(*types.Builtin); !isBuiltin {
			return
		}
		switch fun.Name {
		case "make":
			if len(call.Args) == 0 {
				return
			}
			if tv, ok := pass.Info.Types[call.Args[0]]; ok && tv.IsType() {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					if !pass.suppressed(f, "alloc-ok", call.Pos()) {
						pass.Reportf(call.Pos(), "make(map) in //jenga:hotpath function %s allocates; reuse a field or justify with //jenga:alloc-ok <why>", fn.Name.Name)
					}
				}
			}
		case "append":
			if len(call.Args) == 0 {
				return
			}
			id, ok := call.Args[0].(*ast.Ident)
			if !ok {
				return
			}
			if obj := pass.Info.ObjectOf(id); obj != nil && nilSlices[obj] {
				if !pass.suppressed(f, "alloc-ok", call.Pos()) {
					pass.Reportf(call.Pos(), "append to nil-born local slice %s in //jenga:hotpath function %s allocates on first growth; use an amortized scratch field or justify with //jenga:alloc-ok <why>", id.Name, fn.Name.Name)
				}
			}
		}
	case *ast.SelectorExpr:
		if isFmtCall(pass, call) && !pass.suppressed(f, "alloc-ok", call.Pos()) {
			pass.Reportf(call.Pos(), "fmt.%s in //jenga:hotpath function %s allocates (interface boxing + formatting); move it to a cold helper or justify with //jenga:alloc-ok <why>", fun.Sel.Name, fn.Name.Name)
		}
	}
}

// isFmtCall reports whether call is fmt.<Func>(...).
func isFmtCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := pass.Info.Uses[pkgID].(*types.PkgName)
	return ok && pkgName.Imported().Path() == "fmt"
}

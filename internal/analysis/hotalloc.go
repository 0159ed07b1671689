package analysis

import (
	"go/ast"
	"go/types"
)

// HotAlloc polices the warm-path allocation discipline: the per-query
// algorithm bodies (the select*/topk* family — any function with a
// *queryScratch parameter whose name starts with "select" or "topk" —
// plus anything whose doc comment carries //ssvet:hot) run once per
// query and must not allocate. Within a hot function the analyzer
// flags:
//
//   - map literals and make(...) whose destination is not rooted in the
//     scratch (growing a scratch slab lazily is the sanctioned cold
//     path; conjuring fresh maps per query is not),
//   - any call into package fmt (formatting allocates and is never
//     needed on the query path),
//   - append to a slice that is not derived from the scratch (appends
//     to scratch-backed slices reuse warm capacity; appends elsewhere
//     grow fresh backing arrays every query),
//   - function literals that escape (passed as an argument, returned,
//     or stored into a structure): an escaping closure allocates.
//     Deferred and immediately-invoked literals, and literals bound to
//     a local variable, stay on the stack and are allowed.
//
// A deliberate guarded allocation is annotated //ssvet:coldalloc
// <reason> on its line.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "hot-path functions must not allocate: no new maps, fmt calls, escaping closures, or appends to non-scratch slices",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotFunc(pass, fd) {
				continue
			}
			checkHotBody(pass, fd)
		}
	}
}

// isHotFunc selects the warm-path functions: scratch-carrying select*/
// topk* algorithm bodies, plus explicit //ssvet:hot opt-ins.
func isHotFunc(pass *Pass, fd *ast.FuncDecl) bool {
	if docAnnotated(fd, "hot") {
		return true
	}
	name := fd.Name.Name
	if !hasPrefixFold(name, "select") && !hasPrefixFold(name, "topk") {
		return false
	}
	if fd.Type.Params == nil {
		return false
	}
	for _, fld := range fd.Type.Params.List {
		if namedTypeName(pass.TypesInfo.TypeOf(fld.Type)) == "queryScratch" {
			return true
		}
	}
	return false
}

func hasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		c, p := s[i], prefix[i]
		if c|0x20 != p|0x20 {
			return false
		}
	}
	return true
}

// checkHotBody walks one hot function, including its nested literals
// (a closure invoked per query is as hot as its owner).
func checkHotBody(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	derived := scratchDerived(pass, fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, r := range n.Rhs {
				if !isAllocExpr(info, r) {
					continue
				}
				if i < len(n.Lhs) && lvalueRootedInScratch(pass, n.Lhs[i]) {
					continue // lazily growing a scratch slab
				}
				if !pass.Annotated(n, "coldalloc") {
					pass.Reportf(r.Pos(), "allocation in hot function %s (grow a scratch slab instead, or annotate //ssvet:coldalloc <reason>)", fd.Name.Name)
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, fd, derived, n)
		case *ast.CompositeLit:
			if _, ok := info.TypeOf(n).Underlying().(*types.Map); ok {
				if !pass.Annotated(n, "coldalloc") {
					pass.Reportf(n.Pos(), "map literal in hot function %s allocates per query", fd.Name.Name)
				}
			}
		case *ast.FuncLit:
			if escapingLit(fd.Body, n) && !pass.Annotated(n, "coldalloc") {
				pass.Reportf(n.Pos(), "closure escapes in hot function %s (heap-allocates per query)", fd.Name.Name)
			}
		}
		return true
	})
}

// checkHotCall flags fmt usage, free-standing allocating builtins, and
// appends to non-scratch slices.
func checkHotCall(pass *Pass, fd *ast.FuncDecl, derived map[types.Object]bool, call *ast.CallExpr) {
	info := pass.TypesInfo
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pkg, ok := useObj(info, id).(*types.PkgName); ok && pkg.Imported().Path() == "fmt" {
				if !pass.Annotated(call, "coldalloc") {
					pass.Reportf(call.Pos(), "fmt call in hot function %s", fd.Name.Name)
				}
				return
			}
		}
	}
	if calleeName(call) != "append" || len(call.Args) == 0 {
		return
	}
	root := rootIdent(call.Args[0])
	if root == nil {
		if !pass.Annotated(call, "coldalloc") {
			pass.Reportf(call.Pos(), "append to non-scratch slice in hot function %s", fd.Name.Name)
		}
		return
	}
	o := useObj(info, root)
	if o != nil && (derived[o] || namedTypeName(o.Type()) == "queryScratch") {
		return
	}
	if !pass.Annotated(call, "coldalloc") {
		pass.Reportf(call.Pos(), "append to %q, which is not scratch-backed, in hot function %s", root.Name, fd.Name.Name)
	}
}

// isAllocExpr recognizes the expression forms that heap-allocate:
// make(...) of any kind and new(...).
func isAllocExpr(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	name := calleeName(call)
	return name == "make" || name == "new"
}

// lvalueRootedInScratch reports whether an assignment destination lives
// inside the scratch (s.field, s.field[i], ...).
func lvalueRootedInScratch(pass *Pass, l ast.Expr) bool {
	root := rootIdent(l)
	if root == nil {
		return false
	}
	o := useObj(pass.TypesInfo, root)
	return o != nil && namedTypeName(o.Type()) == "queryScratch"
}

// scratchDerived computes the set of local variables whose backing
// memory comes from the scratch: direct reslices of scratch fields
// (out := s.results[:0]), values built from other derived variables
// (c = merged), and results of calls fed a scratch-rooted argument
// (suffix := resliceFloats(s.f0, n)). Two passes reach the fixpoint for
// buffer rotations such as SF's c, next = next, c[:0], whichever order
// their assignments appear in.
func scratchDerived(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	info := pass.TypesInfo
	derived := map[types.Object]bool{}
	isDerivedExpr := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if call, ok := e.(*ast.CallExpr); ok {
			for _, a := range call.Args {
				if r := rootIdent(a); r != nil {
					if o := useObj(info, r); o != nil && (derived[o] || namedTypeName(o.Type()) == "queryScratch") {
						return true
					}
				}
			}
			return false
		}
		if r := rootIdent(e); r != nil {
			if o := useObj(info, r); o != nil && (derived[o] || namedTypeName(o.Type()) == "queryScratch") {
				return true
			}
		}
		return false
	}
	for round := 0; round < 2; round++ {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, l := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				id, ok := ast.Unparen(l).(*ast.Ident)
				if !ok {
					continue
				}
				if o := useObj(info, id); o != nil && isDerivedExpr(as.Rhs[i]) {
					derived[o] = true
				}
			}
			return true
		})
	}
	return derived
}

// escapingLit reports whether a function literal escapes its frame: it
// is passed as a call argument (other than its own immediate invocation
// or a defer/go of itself), returned, stored into a field or slot, or
// sent on a channel. A literal bound to a local variable or invoked in
// place stays stack-allocated.
func escapingLit(body *ast.BlockStmt, lit *ast.FuncLit) bool {
	escape := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if ast.Unparen(n.Fun) == lit {
				return true // immediate invocation: func(){...}()
			}
			for _, a := range n.Args {
				if ast.Unparen(a) == lit {
					escape = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if ast.Unparen(r) == lit {
					escape = true
				}
			}
		case *ast.AssignStmt:
			for i, r := range n.Rhs {
				if ast.Unparen(r) != lit || i >= len(n.Lhs) {
					continue
				}
				if _, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); !ok {
					escape = true // stored into a field or element
				}
			}
		case *ast.SendStmt:
			if ast.Unparen(n.Value) == lit {
				escape = true
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if ast.Unparen(el) == lit {
					escape = true
				}
			}
		}
		return true
	})
	return escape
}

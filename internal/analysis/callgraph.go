package analysis

import (
	"go/ast"
	"go/types"
)

// CallGraph is the module-wide static call graph: one node per declared
// function or method, with edges to every function the body references.
// Edge collection is reference-based — any identifier whose use resolves
// to a *types.Func counts — so direct calls, method calls, method
// values, function values passed as arguments, and generic
// instantiations all produce edges. Function literals do not get nodes
// of their own: a reference inside a literal is attributed to the
// declaration that owns the literal, which is the behaviour the
// interprocedural analyzers want (the literal runs on behalf of its
// owner).
//
// Interface calls are resolved by class-hierarchy analysis: an abstract
// callee (a method whose receiver is an interface) expands to every
// concrete method of a module-declared type that implements the
// interface. The expansion is sound for module-internal dispatch — the
// only kind the analyzers reason about — and deterministic, because
// implementors are scanned in package order and scope order.
//
// The graph also carries one module-wide fact atomicfield keys on,
// collected during the same single pass that builds the edges:
// AtomicFnFields, the struct fields whose address is passed to a
// sync/atomic function (atomic.AddUint64(&c.hits, 1)) anywhere in the
// module. Such a field is atomically owned everywhere: a plain read or
// write of it in any other function is a race.
type CallGraph struct {
	nodes map[*types.Func]*cgNode
	named []*types.Named                // module-declared named types, for CHA
	impls map[*types.Func][]*types.Func // memoized CHA expansions

	AtomicFnFields map[*types.Var]bool
}

type cgNode struct {
	decl    *ast.FuncDecl
	callees []*types.Func // deduped, in order of first reference
}

// callGraphBuilds counts constructions, so the analyzer cost-guard test
// can assert a full RunAll builds the graph exactly once and shares it.
var callGraphBuilds int

// BuildCallGraph builds the graph for a set of loaded packages in a
// single pass over their syntax trees.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	callGraphBuilds++
	g := &CallGraph{
		nodes:          map[*types.Func]*cgNode{},
		impls:          map[*types.Func][]*types.Func{},
		AtomicFnFields: map[*types.Var]bool{},
	}
	// Register every declared function first, so edges can tell declared
	// module functions from imported ones.
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					g.named = append(g.named, n)
				}
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					g.nodes[fn] = &cgNode{decl: fd}
				}
			}
		}
	}
	// One pass per body: collect edges and the shared atomic fields.
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				node := g.nodes[fn]
				seen := map[*types.Func]bool{}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if callee, ok := pkg.Info.Uses[n].(*types.Func); ok && node != nil && !seen[callee] {
							seen[callee] = true
							node.callees = append(node.callees, callee)
						}
					case *ast.CallExpr:
						g.collectAtomicFnFields(pkg.Info, n)
					}
					return true
				})
			}
		}
	}
	return g
}

// collectAtomicFnFields records the fields one call hands to a
// sync/atomic function by address.
func (g *CallGraph) collectAtomicFnFields(info *types.Info, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !isAtomicPkgFunc(info, sel) {
		return
	}
	for _, arg := range call.Args {
		un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
		if !ok || un.Op.String() != "&" {
			continue
		}
		if v := selectedField(info, un.X); v != nil {
			g.AtomicFnFields[v] = true
		}
	}
}

// Decl returns the declaration of a module function, or nil for
// imported and abstract (interface-method) functions.
func (g *CallGraph) Decl(fn *types.Func) *ast.FuncDecl {
	if n := g.nodes[fn]; n != nil {
		return n.decl
	}
	return nil
}

// Callees returns fn's resolved callees: every function its body
// references, with abstract interface methods expanded to their module
// implementations (the abstract method itself is kept too, so callers
// can still recognize the interface hop).
func (g *CallGraph) Callees(fn *types.Func) []*types.Func {
	node := g.nodes[fn]
	if node == nil {
		if isAbstractMethod(fn) {
			return g.implementations(fn)
		}
		return nil
	}
	out := make([]*types.Func, 0, len(node.callees))
	seen := map[*types.Func]bool{}
	add := func(f *types.Func) {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	for _, c := range node.callees {
		add(c)
		if isAbstractMethod(c) {
			for _, impl := range g.implementations(c) {
				add(impl)
			}
		}
	}
	return out
}

// Reaches reports whether pred holds for fn or for any function
// reachable from it through at most depth call edges. pred receives the
// function and its declaration (nil for imported or abstract
// functions). Cycles are cut by remembering the largest remaining depth
// each function was explored with — a node first reached near the
// horizon is revisited when a shorter path later affords it more depth.
func (g *CallGraph) Reaches(fn *types.Func, depth int, pred func(*types.Func, *ast.FuncDecl) bool) bool {
	seen := map[*types.Func]int{}
	var walk func(f *types.Func, d int) bool
	walk = func(f *types.Func, d int) bool {
		if f == nil {
			return false
		}
		if prev, ok := seen[f]; ok && prev >= d {
			return false
		}
		seen[f] = d
		if pred(f, g.Decl(f)) {
			return true
		}
		if d <= 0 {
			return false
		}
		for _, c := range g.Callees(f) {
			if walk(c, d-1) {
				return true
			}
		}
		return false
	}
	return walk(fn, depth)
}

// implementations expands an abstract interface method to the concrete
// methods of module-declared types that implement its interface (CHA).
func (g *CallGraph) implementations(m *types.Func) []*types.Func {
	if impls, ok := g.impls[m]; ok {
		return impls
	}
	var out []*types.Func
	sig, _ := m.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		g.impls[m] = nil
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	if iface == nil {
		g.impls[m] = nil
		return nil
	}
	seen := map[*types.Func]bool{m: true}
	for _, n := range g.named {
		if types.IsInterface(n) {
			continue
		}
		for _, t := range []types.Type{n, types.NewPointer(n)} {
			if !types.Implements(t, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
			if f, ok := obj.(*types.Func); ok && !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
			break
		}
	}
	g.impls[m] = out
	return out
}

// isAbstractMethod reports whether fn is an interface method (no body
// anywhere: dispatch target unknown without CHA).
func isAbstractMethod(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// --- Pass-level accessors ---

// StaticCallee resolves the function a call expression names, without
// interface expansion: f(...) and x.m(...) resolve through go/types;
// calls through stored function values resolve to nil.
func (p *Pass) StaticCallee(call *ast.CallExpr) *types.Func {
	if p.TypesInfo == nil {
		return nil
	}
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	case *ast.IndexExpr:
		id, _ = ast.Unparen(fn.X).(*ast.Ident)
	case *ast.IndexListExpr:
		id, _ = ast.Unparen(fn.X).(*ast.Ident)
	}
	if id == nil {
		return nil
	}
	fn, _ := useObj(p.TypesInfo, id).(*types.Func)
	return fn
}

// Reaches reports whether pred holds for fn or anything it reaches
// within depth call edges (see CallGraph.Reaches). Without a graph it
// degenerates to testing fn itself.
func (p *Pass) Reaches(fn *types.Func, depth int, pred func(*types.Func, *ast.FuncDecl) bool) bool {
	if p.Graph == nil {
		return fn != nil && pred(fn, nil)
	}
	return p.Graph.Reaches(fn, depth, pred)
}

// --- shared atomic-type helpers ---

// isAtomicPkgFunc reports whether sel names a function of the
// sync/atomic package (atomic.AddUint64, atomic.LoadPointer, ...).
func isAtomicPkgFunc(info *types.Info, sel *ast.SelectorExpr) bool {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "sync/atomic"
}

// isAtomicNamed reports whether t (or its pointee) is one of the typed
// atomics declared in sync/atomic (atomic.Uint64, atomic.Pointer[T], ...).
func isAtomicNamed(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// isAtomicPointer reports whether t (or its pointee) is an
// atomic.Pointer[T].
func isAtomicPointer(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && obj.Name() == "Pointer"
}

// selectedField resolves an expression to the struct field it selects,
// looking through parens and one level of indexing: c.hits → hits,
// t.bits[w] → bits. nil when the expression is not a field selection.
func selectedField(info *types.Info, e ast.Expr) *types.Var {
	e = ast.Unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(ix.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}

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
type CallGraph struct {
	nodes map[*types.Func]*cgNode
	named []*types.Named                // module-declared named types, for CHA
	impls map[*types.Func][]*types.Func // memoized CHA expansions
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
		nodes: map[*types.Func]*cgNode{},
		impls: map[*types.Func][]*types.Func{},
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
	// One pass per body collects its edges.
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
				if node == nil {
					continue
				}
				seen := map[*types.Func]bool{}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if callee, ok := pkg.Info.Uses[id].(*types.Func); ok && !seen[callee] {
							seen[callee] = true
							node.callees = append(node.callees, callee)
						}
					}
					return true
				})
			}
		}
	}
	return g
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

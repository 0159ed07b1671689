package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CowPublish enforces the copy-on-write publication discipline behind
// the lock-free snapshots (DESIGN.md §16): a value stored into an
// atomic.Pointer[T] must be freshly built, and once published (or
// loaded from the pointer) it is frozen — no write through it, ever.
// Readers pinned on a snapshot assume it never changes under them; a
// single post-publish mutation turns the bitwise-equivalence guarantees
// into schedule-dependent fiction.
//
// The rule tracks aliases per function, in source order:
//
//   - `v := p.Load()` on an atomic.Pointer makes v a published alias
//     from that point on.
//   - `p.Store(v)` / `p.Swap(v)` / `p.CompareAndSwap(_, v)` make v a
//     published alias from the call onward — writes through v before
//     the Store are the builder filling the fresh value and stay legal.
//   - Aliases propagate through reference-typed derivations (selector,
//     index, slice, address-of chains), through `copy(dst, src)` (a
//     shallow copy shares every slice backing array), and through
//     `for _, x := range alias` when the element type is a reference.
//
// A plain assignment or ++/-- whose left-hand side reaches memory
// through a published alias is a finding. Atomic method calls through
// an alias (t.bits[w].Store(...)) are not plain writes and are left to
// atomicfield.
//
// Escape hatch: //ssvet:cowfrozen <reason>, for writes whose visibility
// is provably bounded (e.g. appending within capacity past every
// pinned reader's slice header).
var CowPublish = &Analyzer{
	Name: "cowpublish",
	Doc:  "values published through atomic.Pointer must never be written through after Store",
	Run:  runCowPublish,
}

func runCowPublish(pass *Pass) {
	if pass.TypesInfo == nil {
		return
	}
	for _, f := range pass.Files {
		for _, u := range funcUnits(f) {
			checkCowUnit(pass, u)
		}
	}
}

// cowAlias records one published alias: the position publication
// happened at, and the pointer expression it came from (for messages).
type cowAlias struct {
	published token.Pos
	src       string
}

func checkCowUnit(pass *Pass, u funcUnit) {
	info := pass.TypesInfo
	aliases := map[types.Object]*cowAlias{}

	// Seed pass: Load results and Stored values become aliases.
	inspectShallow(u.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					if src, ok := atomicPointerCall(info, call, "Load"); ok {
						if id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident); ok {
							if obj := useObj(info, id); obj != nil {
								aliases[obj] = &cowAlias{published: call.Pos(), src: src}
							}
						}
					}
				}
			}
		case *ast.CallExpr:
			var val ast.Expr
			src, ok := atomicPointerCall(info, n, "Store", "Swap")
			if ok && len(n.Args) >= 1 {
				val = n.Args[0]
			} else if src, ok = atomicPointerCall(info, n, "CompareAndSwap"); ok && len(n.Args) >= 2 {
				val = n.Args[1]
			}
			if val == nil {
				return true
			}
			e := ast.Unparen(val)
			if un, ok := e.(*ast.UnaryExpr); ok && un.Op.String() == "&" {
				e = ast.Unparen(un.X)
			}
			if id, ok := e.(*ast.Ident); ok {
				if obj := useObj(info, id); obj != nil {
					aliases[obj] = &cowAlias{published: n.Pos(), src: src}
				}
			}
		}
		return true
	})
	// Propagation to a fixpoint: derived reference values inherit the
	// alias of their root (derivedAlias can also mint one from a direct
	// p.Load() inside a larger expression, so this runs even when the
	// seed pass found nothing). Bounded by the alias count, so it
	// terminates.
	for changed := true; changed; {
		changed = false
		inspectShallow(u.body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					obj := useObj(info, id)
					if obj == nil || aliases[obj] != nil {
						continue
					}
					if a := derivedAlias(info, aliases, n.Rhs[i]); a != nil {
						aliases[obj] = a
						changed = true
					}
				}
			case *ast.RangeStmt:
				a := derivedAlias(info, aliases, n.X)
				if a == nil {
					break
				}
				for _, e := range []ast.Expr{n.Key, n.Value} {
					id, ok := e.(*ast.Ident)
					if !ok {
						continue
					}
					obj := info.Defs[id]
					if obj == nil || aliases[obj] != nil || !isRefType(obj.Type()) {
						continue
					}
					aliases[obj] = a
					changed = true
				}
			case *ast.CallExpr:
				// copy(dst, src): a shallow copy of published elements
				// shares their backing arrays, so dst joins the alias.
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "copy" && len(n.Args) == 2 &&
					elemSharesMemory(info.TypeOf(n.Args[1])) {
					src := derivedAlias(info, aliases, n.Args[1])
					dst := rootIdent(n.Args[0])
					if src != nil && dst != nil {
						if obj := useObj(info, dst); obj != nil && aliases[obj] == nil {
							aliases[obj] = src
							changed = true
						}
					}
				}
			}
			return true
		})
	}
	if len(aliases) == 0 {
		return
	}

	// Flag pass: plain writes through an alias after publication.
	inspectShallow(u.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkCowWrite(pass, aliases, lhs, n.Pos())
			}
		case *ast.IncDecStmt:
			checkCowWrite(pass, aliases, n.X, n.Pos())
		}
		return true
	})
}

// checkCowWrite reports a plain write whose target reaches memory
// through a published alias.
func checkCowWrite(pass *Pass, aliases map[types.Object]*cowAlias, lhs ast.Expr, at token.Pos) {
	e := ast.Unparen(lhs)
	if _, ok := e.(*ast.Ident); ok {
		// Rebinding the alias variable itself writes no shared memory.
		return
	}
	root := rootIdent(e)
	if root == nil {
		return
	}
	obj := useObj(pass.TypesInfo, root)
	if obj == nil {
		return
	}
	a := aliases[obj]
	if a == nil || at <= a.published {
		return
	}
	if pass.Annotated(e, "cowfrozen") {
		return
	}
	pass.Reportf(e.Pos(), "write through %s, which aliases a value published via %s; copy-on-write snapshots are frozen after publication (build a fresh value, or annotate //ssvet:cowfrozen <reason>)", root.Name, a.src)
}

// derivedAlias resolves an expression to the published alias it derives
// from: a pure access chain (selector/index/slice/star/&) rooted at an
// aliased object or at a direct atomic.Pointer Load call, with a
// reference-typed result.
func derivedAlias(info *types.Info, aliases map[types.Object]*cowAlias, e ast.Expr) *cowAlias {
	if !isRefType(info.TypeOf(e)) {
		return nil
	}
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return aliases[useObj(info, x)]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op.String() != "&" {
				return nil
			}
			e = x.X
		case *ast.CallExpr:
			if src, ok := atomicPointerCall(info, x, "Load"); ok {
				return &cowAlias{published: x.Pos(), src: src}
			}
			return nil
		default:
			return nil
		}
	}
}

// elemSharesMemory reports whether copying a slice of t's element type
// shares memory with the source: true unless the elements are plain
// basic values (copying []int duplicates, copying []shard shares each
// shard's slices).
func elemSharesMemory(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return true // conservative for non-slice copy sources
	}
	_, basic := sl.Elem().Underlying().(*types.Basic)
	return !basic
}

// isRefType reports whether t shares memory when copied: pointers,
// slices, and maps (the shapes snapshot structures are made of).
func isRefType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// atomicPointerCall reports whether call is one of the named methods on
// an atomic.Pointer receiver, returning the receiver expression's
// source text for diagnostics.
func atomicPointerCall(info *types.Info, call *ast.CallExpr, methods ...string) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !isAtomicPointer(info.TypeOf(sel.X)) {
		return "", false
	}
	for _, m := range methods {
		if sel.Sel.Name == m {
			return types.ExprString(sel.X), true
		}
	}
	return "", false
}

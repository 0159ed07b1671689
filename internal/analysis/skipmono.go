package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SkipMono enforces the skip-index monotonicity contract: SeekLen is a
// forward-only seek. Every cursor implementation guards against moving
// backwards, so a SeekLen whose target is not larger than a previous
// seek's silently does nothing — the scan then reads from the old
// position and quietly returns postings below the intended bound. Two
// shapes are almost always that bug:
//
//   - SeekLen inside a loop on a cursor created outside the loop: each
//     iteration re-seeks the same cursor, and any non-increasing target
//     sequence no-ops from the second iteration on. (The sanctioned
//     pattern opens a fresh cursor per iteration, as openLists does.)
//
//   - A second SeekLen on the same cursor in one function: only the
//     first can be assumed to move.
//
//   - SeekLen on a cursor the function was handed (reached through a
//     parameter or its receiver): the cursor outlives the call, so every
//     further call is a re-seek, and only the callers can keep the targets
//     from decreasing.
//
// Call sites whose target sequence is provably non-decreasing can opt
// out with //ssvet:monotone <reason>.
var SkipMono = &Analyzer{
	Name: "skipmono",
	Doc:  "SeekLen is forward-only: never re-seek a cursor, never seek a loop-invariant cursor in a loop",
	Run:  runSkipMono,
}

func runSkipMono(pass *Pass) {
	for _, f := range pass.Files {
		for _, u := range funcUnits(f) {
			checkSkipMono(pass, u)
		}
	}
}

// loopBody returns the body of a for/range statement, or nil.
func loopBody(n ast.Node) *ast.BlockStmt {
	switch l := n.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return nil
}

func checkSkipMono(pass *Pass, u funcUnit) {
	// Loop bodies, in visit (hence nesting) order; the innermost body
	// containing a position is the last one collected that spans it.
	var bodies []*ast.BlockStmt
	inspectShallow(u.body, func(n ast.Node) bool {
		if b := loopBody(n); b != nil {
			bodies = append(bodies, b)
		}
		return true
	})
	innermost := func(pos token.Pos) *ast.BlockStmt {
		var in *ast.BlockStmt
		for _, b := range bodies {
			if b.Pos() <= pos && pos < b.End() {
				in = b
			}
		}
		return in
	}

	seen := map[types.Object]bool{}
	inspectShallow(u.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || calleeName(call) != "SeekLen" {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv := rootIdent(sel.X)
		if recv == nil {
			return true
		}
		obj := useObj(pass.TypesInfo, recv)
		if obj == nil {
			return true
		}
		if loop := innermost(call.Pos()); loop != nil {
			// The cursor is loop-invariant when it is not declared inside
			// the innermost loop's body (a per-iteration cursor is fresh
			// every pass and its single seek is trivially monotone).
			if obj.Pos() < loop.Pos() || obj.Pos() >= loop.End() {
				if !pass.Annotated(call, "monotone") {
					pass.Reportf(call.Pos(),
						"SeekLen on loop-invariant cursor %q inside a loop; forward-only seeks silently no-op unless the targets are non-decreasing (open the cursor inside the loop, or annotate //ssvet:monotone <reason>)",
						recv.Name)
				}
				return true
			}
		}
		if seen[obj] {
			if !pass.Annotated(call, "monotone") {
				pass.Reportf(call.Pos(),
					"repeated SeekLen on cursor %q; forward-only seeks silently no-op when the new target is not larger (annotate //ssvet:monotone <reason> if it provably is)",
					recv.Name)
			}
			return true
		}
		seen[obj] = true
		if handedIn(u, obj) && !pass.Annotated(call, "monotone") {
			pass.Reportf(call.Pos(),
				"SeekLen on cursor %q that this function did not open; every call re-seeks it, and forward-only seeks silently no-op unless the callers' targets are non-decreasing (annotate //ssvet:monotone <reason>)",
				recv.Name)
		}
		return true
	})
}

// handedIn reports whether obj is a parameter or the receiver of u.
func handedIn(u funcUnit, obj types.Object) bool {
	in := func(fl *ast.FieldList) bool {
		return fl != nil && fl.Pos() <= obj.Pos() && obj.Pos() < fl.End()
	}
	return in(u.typ.Params) || (u.decl != nil && in(u.decl.Recv))
}

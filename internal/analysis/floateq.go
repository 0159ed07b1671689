package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq forbids == and != on floating-point values. Similarity scores
// and set lengths are sums of float64 idf weights. Every algorithm but
// SQL emits one canonical sum (core/rescore.go), so two scores of one
// set are equal by construction; but a threshold meets a user's τ, and
// SQL's sum and the rounding of Eq. 1 itself sit an ulp or so from the
// exact value. So thresholds must go through the epsilon comparison
// (sim.Meets / sim.ScoreEpsilon) and zero-tests must use inequalities.
//
// Two tie-break idioms are exempt, both orderings whose correctness
// does not depend on exactness (inexactness only perturbs the sort
// order of near-equal keys):
//
//	if a.Len != b.Len { return a.Len < b.Len }   // statement form
//	a.Len < b.Len || (a.Len == b.Len && a.ID < b.ID) // expression form
//
// Any other intentional exact comparison is annotated
// //ssvet:floatexact <reason>.
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "no ==/!= on float64 similarity or length values; use epsilon comparison",
	Run:  runFloatEq,
}

func runFloatEq(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			// Recognize the tie-break idiom at the statement level and
			// skip its guard entirely.
			if ifs, ok := n.(*ast.IfStmt); ok && isTiebreakIf(pass.TypesInfo, ifs) {
				if ifs.Else != nil {
					ast.Inspect(ifs.Else, func(m ast.Node) bool { checkFloatCmp(pass, m); return true })
				}
				ast.Inspect(ifs.Body, func(m ast.Node) bool { checkFloatCmp(pass, m); return true })
				return false
			}
			if be, ok := n.(*ast.BinaryExpr); ok && isLexTiebreak(pass.TypesInfo, be) {
				// Skip only the `a == b` guard; the rest of the
				// expression is still inspected by the outer walk.
				and, _ := ast.Unparen(be.Y).(*ast.BinaryExpr)
				ast.Inspect(and.Y, func(m ast.Node) bool { checkFloatCmp(pass, m); return true })
				ast.Inspect(be.X, func(m ast.Node) bool { checkFloatCmp(pass, m); return true })
				return false
			}
			checkFloatCmp(pass, n)
			return true
		})
	}
}

func checkFloatCmp(pass *Pass, n ast.Node) {
	be, ok := n.(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return
	}
	if !isFloat(pass.TypesInfo.TypeOf(be.X)) && !isFloat(pass.TypesInfo.TypeOf(be.Y)) {
		return
	}
	if pass.Annotated(be, "floatexact") {
		return
	}
	pass.Reportf(be.OpPos, "%s on float64 values; compare with an epsilon (sim.ScoreEpsilon) or restate as an inequality", be.Op)
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isTiebreakIf matches `if a != b { return a < b }` (or >, <=, >=) with
// the same two operands in guard and body: a float-keyed comparator's
// primary ordering, whose correctness does not depend on exactness.
func isTiebreakIf(info *types.Info, ifs *ast.IfStmt) bool {
	guard, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
	if !ok || guard.Op != token.NEQ {
		return false
	}
	if !isFloat(info.TypeOf(guard.X)) && !isFloat(info.TypeOf(guard.Y)) {
		return false
	}
	if len(ifs.Body.List) != 1 {
		return false
	}
	ret, ok := ifs.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	cmp, ok := ast.Unparen(ret.Results[0]).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cmp.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return false
	}
	return types.ExprString(guard.X) == types.ExprString(cmp.X) &&
		types.ExprString(guard.Y) == types.ExprString(cmp.Y)
}

// isLexTiebreak matches the expression form of the comparator idiom:
// `a < b || (a == b && <tiebreak>)` (any strict ordering operator on
// the primary key), where the == reuses the ordering's operands.
func isLexTiebreak(info *types.Info, or *ast.BinaryExpr) bool {
	if or.Op != token.LOR {
		return false
	}
	ord, ok := ast.Unparen(or.X).(*ast.BinaryExpr)
	if !ok || (ord.Op != token.LSS && ord.Op != token.GTR) {
		return false
	}
	if !isFloat(info.TypeOf(ord.X)) && !isFloat(info.TypeOf(ord.Y)) {
		return false
	}
	and, ok := ast.Unparen(or.Y).(*ast.BinaryExpr)
	if !ok || and.Op != token.LAND {
		return false
	}
	eq, ok := ast.Unparen(and.X).(*ast.BinaryExpr)
	if !ok || eq.Op != token.EQL {
		return false
	}
	return types.ExprString(ord.X) == types.ExprString(eq.X) &&
		types.ExprString(ord.Y) == types.ExprString(eq.Y)
}

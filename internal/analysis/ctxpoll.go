package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxPoll enforces the cancellation-granularity guarantee of SelectCtx:
// every loop that advances a posting cursor, btree iterator or row plan
// must observe the query's canceller (cc.stop(), a stop func() bool
// hook, or passing either into a callee that polls), so a cancelled
// query stops within cancelInterval postings instead of running its scan
// to completion.
//
// Two rules:
//
//  1. In a function with a canceller in scope — a *canceller parameter,
//     a local cc := &canceller{...}, or a func() bool stop hook — each
//     outermost advancing loop must poll it (anywhere inside, including
//     nested loops).
//  2. In the core and relational packages, an advancing loop in a
//     function with NO canceller in scope is itself a finding: that scan
//     can never observe cancellation (the gramRows class of bug).
//
// A loop is "advancing" when it calls a cursor-advance method (next,
// Next, SeekLen, mergeAdvance), indexes or ranges over a []Posting or a
// posting-arena column (PostingIDs, PostingLens), or scans the whole
// collection (NumSets in its condition). Bounded
// bookkeeping loops are exempt by construction; a genuinely bounded scan
// is annotated //ssvet:nopoll <reason>.
var CtxPoll = &Analyzer{
	Name: "ctxpoll",
	Doc:  "posting/cursor scan loops must poll the canceller (or carry //ssvet:nopoll <reason>)",
	Run:  runCtxPoll,
}

// advanceCalls are the cursor/iterator advancement methods; a loop that
// invokes one is reading an unbounded input stream.
var advanceCalls = map[string]bool{
	"next":         true,
	"Next":         true,
	"SeekLen":      true,
	"mergeAdvance": true,
}

// ctxPollStrictPkgs are the packages whose scan loops must always be
// attributable to a canceller (rule 2): the query algorithms and the
// relational baseline they delegate to.
var ctxPollStrictPkgs = map[string]bool{
	"core":       true,
	"relational": true,
}

func runCtxPoll(pass *Pass) {
	strict := ctxPollStrictPkgs[pass.Pkg.Name()] ||
		strings.HasPrefix(pass.Pkg.Name(), "ctxpoll") // testdata corpora
	for _, f := range pass.Files {
		for _, u := range funcUnits(f) {
			hasCC := unitHasCanceller(pass.TypesInfo, u)
			for _, loop := range outermostLoops(u.body) {
				if !loopAdvances(pass.TypesInfo, loop) {
					continue
				}
				// Annotated is consulted only where a finding would fire, so
				// a //ssvet:nopoll on a loop that needs no exemption stays
				// un-hit and is flagged by annlive as a dead escape hatch.
				if !hasCC {
					if strict && !pass.Annotated(loop, "nopoll") {
						pass.Reportf(loop.Pos(), "scan loop cannot observe cancellation: no canceller or stop hook in scope (thread one in, or annotate //ssvet:nopoll <reason>)")
					}
					continue
				}
				if !loopPolls(pass.TypesInfo, loop) && !pass.Annotated(loop, "nopoll") {
					pass.Reportf(loop.Pos(), "scan loop advances a cursor without polling the canceller (cc.stop(), a stop hook, or a polling callee)")
				}
			}
		}
	}
}

// unitHasCanceller reports whether the unit can observe cancellation: a
// *canceller or func() bool parameter, or a local canceller literal.
func unitHasCanceller(info *types.Info, u funcUnit) bool {
	if u.typ.Params != nil {
		for _, fld := range u.typ.Params.List {
			t := info.TypeOf(fld.Type)
			if namedTypeName(t) == "canceller" || isFuncBool(t) {
				return true
			}
		}
	}
	found := false
	inspectShallow(u.body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				if namedTypeName(info.TypeOf(r)) == "canceller" {
					found = true
				}
			}
		case *ast.ValueSpec:
			for _, r := range n.Values {
				if namedTypeName(info.TypeOf(r)) == "canceller" {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// outermostLoops returns the top-level for/range statements of a body:
// loops not nested inside another loop (nested loops are covered by the
// outer loop's poll requirement) and not inside a function literal
// (literals are separate units).
func outermostLoops(body *ast.BlockStmt) []ast.Stmt {
	var loops []ast.Stmt
	inspectShallow(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n.(ast.Stmt))
			return false // nested loops belong to this one
		}
		return true
	})
	return loops
}

// loopAdvances reports whether the loop consumes an unbounded stream.
func loopAdvances(info *types.Info, loop ast.Stmt) bool {
	adv := false
	check := func(n ast.Node) bool {
		if adv {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			name := calleeName(n)
			if advanceCalls[name] || name == "NumSets" {
				adv = true
			}
		case *ast.IndexExpr:
			if isPostingSlice(info.TypeOf(n.X)) {
				adv = true
			}
		case *ast.RangeStmt:
			if isPostingSlice(info.TypeOf(n.X)) {
				adv = true
			}
		case *ast.FuncLit:
			return false
		}
		return true
	}
	switch l := loop.(type) {
	case *ast.ForStmt:
		if l.Cond != nil {
			ast.Inspect(l.Cond, check)
		}
		if l.Post != nil {
			ast.Inspect(l.Post, check)
		}
		ast.Inspect(l.Body, check)
	case *ast.RangeStmt:
		// Inspect the whole statement so the loop's own range target is
		// seen by the RangeStmt case, not only nested ranges.
		ast.Inspect(l, check)
	}
	return adv
}

// postingColumns are the named column types of a posting arena, which
// hot loops index instead of a []Posting.
var postingColumns = map[string]bool{
	"PostingIDs":  true,
	"PostingLens": true,
}

// isPostingSlice reports whether t holds postings: a []Posting, or a
// column of a posting arena (PostingIDs, PostingLens).
func isPostingSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	if postingColumns[namedTypeName(t)] {
		return true
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	return namedTypeName(sl.Elem()) == "Posting"
}

// loopPolls reports whether the loop body contains a canceller
// observation: a stop() call on a canceller or func() bool value, or a
// call that receives the canceller/hook as an argument (delegated
// polling, e.g. openLists(s, cc, ...) or SelectStop(..., cc.stop)).
func loopPolls(info *types.Info, loop ast.Stmt) bool {
	polls := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if polls {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fn := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			if fn.Sel.Name == "stop" && namedTypeName(info.TypeOf(fn.X)) == "canceller" {
				polls = true
				return true
			}
		case *ast.Ident:
			if isFuncBool(info.TypeOf(fn)) {
				polls = true
				return true
			}
		}
		for _, arg := range call.Args {
			t := info.TypeOf(arg)
			if namedTypeName(t) == "canceller" || isFuncBool(t) {
				polls = true
				return true
			}
		}
		return true
	})
	return polls
}

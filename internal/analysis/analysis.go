// Package analysis is the engine behind ssvet: a custom static-analysis
// suite, written only against the standard library (go/parser, go/ast,
// go/token, go/types, go/importer — no golang.org/x/tools), that
// mechanically enforces the repository's scan-loop invariants.
//
// The suite has five analyzers, each guarding a convention with many
// sites: canceller polling in every scan loop (ctxpoll), the paper's
// counters on every posting loop (statsacct), lock hygiene in the sharded block
// cache (lockscope), stdlib-only imports (stdlibonly), and live escape
// hatches (annlive). An unpolled posting loop or an unaccounted scan
// fails CI instead of silently reintroducing hangs past deadlines or
// deflating the pruning-power numbers (DESIGN.md §10, "Enforced
// invariants"). Conventions that a runtime test pins more directly are
// checked there instead: the warm-path allocation budget by the
// allocation tests, copies of typed atomics by go vet's copylocks
// check, copy-on-write publication by the frozen-snapshot test, and the
// scratch pool, CAS loops and algorithm dispatch by the tests of the
// packages that own them.
//
// Analyzers match repository conventions by name (a canceller method
// named "stop", a Stats field named "ElementsRead"), not by import
// path. This keeps every analyzer testable against small
// self-contained corpora under testdata/ and keeps the rules robust to
// package moves.
//
// Escape hatches are explicit annotations, each requiring a reason:
//
//	//ssvet:nopoll <reason>     — this loop is exempt from ctxpoll
//	//ssvet:nostats <reason>    — this posting loop's work is accounted
//	                              by its caller
//
// An annotation with a missing reason is itself a diagnostic: the tool
// enforces that every exemption documents why it is safe.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one rule violation at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named rule set run over every package.
type Analyzer struct {
	Name string
	Doc  string
	// SyntaxOnly analyzers run on parsed files without type information
	// (they also see _test.go files); the rest receive a fully
	// type-checked package.
	SyntaxOnly bool
	Run        func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	PkgPath  string
	// Files are the package's non-test files (type-checked unless the
	// analyzer is SyntaxOnly).
	Files []*ast.File
	// TestFiles are the package's _test.go files, parse-only. They are
	// nil for analyzers that are not SyntaxOnly.
	TestFiles []*ast.File
	// TypesInfo and Pkg are nil for SyntaxOnly analyzers.
	TypesInfo *types.Info
	Pkg       *types.Package
	// Graph is the static call graph over every package of the run,
	// built once per RunAll and shared by all analyzers (nil for
	// SyntaxOnly analyzers). See callgraph.go.
	Graph *CallGraph

	ann   *annotations
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Annotated reports whether node carries the //ssvet:<verb> annotation,
// either at the end of its first line or on the line directly above it.
// An annotation whose verb requires a reason but has none is reported as
// its own diagnostic (once) and still honoured, so a rule violation is
// never double-reported. A true return also marks the annotation live
// for the annlive analyzer, so analyzers must consult Annotated only at
// the point where the annotation actually suppresses a finding.
func (p *Pass) Annotated(node ast.Node, verb string) bool {
	if p.ann == nil {
		return false
	}
	pos := p.Fset.Position(node.Pos())
	for _, l := range []int{pos.Line, pos.Line - 1} {
		if a, ok := p.ann.at(pos.Filename, l, verb); ok {
			a.hit = true
			if a.reason == "" && !a.reported {
				a.reported = true
				p.Reportf(node.Pos(), "//ssvet:%s annotation is missing its reason", verb)
			}
			return true
		}
	}
	return false
}

// annotation is one parsed //ssvet: comment.
type annotation struct {
	verb     string
	reason   string
	pos      token.Pos
	reported bool
	// hit records that some analyzer honoured the annotation during this
	// run; annlive flags annotations that end a full suite run un-hit.
	hit bool
}

// annotations indexes every //ssvet: comment of a package by file and
// line, so analyzers can look exemptions up at node positions.
type annotations struct {
	byLine map[string]map[int][]*annotation
}

func (a *annotations) at(file string, line int, verb string) (*annotation, bool) {
	for _, ann := range a.byLine[file][line] {
		if ann.verb == verb {
			return ann, true
		}
	}
	return nil, false
}

const annPrefix = "//ssvet:"

func collectAnnotations(fset *token.FileSet, files []*ast.File) *annotations {
	a := &annotations{byLine: map[string]map[int][]*annotation{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, annPrefix) {
					continue
				}
				body := strings.TrimPrefix(c.Text, annPrefix)
				verb, reason, _ := strings.Cut(body, " ")
				pos := fset.Position(c.Pos())
				m := a.byLine[pos.Filename]
				if m == nil {
					m = map[int][]*annotation{}
					a.byLine[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], &annotation{
					verb:   verb,
					reason: strings.TrimSpace(reason),
					pos:    c.Pos(),
				})
			}
		}
	}
	return a
}

// Analyzers returns the full suite in presentation order. AnnLive must
// run last: it flags the annotations the preceding analyzers never
// honoured.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		CtxPoll,
		LockScope,
		StdlibOnly,
		StatsAcct,
		AnnLive,
	}
}

// RunPackage runs one analyzer over one loaded package and returns its
// diagnostics. Type-dependent analyzers skip test-only packages, which
// carry no type information. The annotation table is fresh, so AnnLive
// run alone through RunPackage sees every annotation as dead; liveness
// is only meaningful under RunAll, where the table is shared across the
// suite.
func RunPackage(a *Analyzer, pkg *Package) []Diagnostic {
	var graph *CallGraph
	if !a.SyntaxOnly {
		graph = BuildCallGraph([]*Package{pkg})
	}
	return runPackage(a, pkg, collectAnnotations(pkg.Fset, pkg.Files), graph)
}

func runPackage(a *Analyzer, pkg *Package, ann *annotations, graph *CallGraph) []Diagnostic {
	if !a.SyntaxOnly && pkg.Info == nil {
		return nil
	}
	var diags []Diagnostic
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		PkgPath:  pkg.Path,
		Files:    pkg.Files,
		ann:      ann,
		diags:    &diags,
	}
	if a.SyntaxOnly {
		pass.TestFiles = pkg.TestFiles
	} else {
		pass.TypesInfo = pkg.Info
		pass.Pkg = pkg.Types
		pass.Graph = graph
	}
	a.Run(pass)
	return diags
}

// RunAll runs every analyzer over every package and returns the combined
// diagnostics sorted by position. Each package's annotation table is
// shared across the whole suite, which is what lets AnnLive (last in the
// roster) see which annotations were honoured by any analyzer. The call
// graph is built exactly once here and shared by every analyzer of the
// run (the cost guard in the tests pins this).
func RunAll(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	graph := BuildCallGraph(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ann := collectAnnotations(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			diags = append(diags, runPackage(a, pkg, ann, graph)...)
		}
	}
	Sort(diags)
	return diags
}

// Sort orders diagnostics deterministically by file, line, analyzer,
// then message — the order RunAll returns and ssvet -json emits.
func Sort(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// --- shared type/AST helpers used by several analyzers ---

// namedTypeName returns the bare name of t's core named type, stripping
// one level of pointer: *core.queryScratch → "queryScratch".
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// isFuncBool reports whether t is func() bool (the relational stop hook).
func isFuncBool(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	b, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

// calleeName returns the bare called name of a call: f(...) → "f",
// x.m(...) → "m". Empty for indirect calls through non-selector exprs.
func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fn.X).(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// useObj resolves an identifier to its object via Uses then Defs.
func useObj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// funcUnit is one function body of a file: a declared function or,
// independently, each function literal inside one (a literal's loops
// are analyzed in the scope that owns them).
type funcUnit struct {
	body *ast.BlockStmt
	typ  *ast.FuncType
}

func funcUnits(f *ast.File) []funcUnit {
	var units []funcUnit
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		units = append(units, funcUnit{body: fd.Body, typ: fd.Type})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				units = append(units, funcUnit{body: lit.Body, typ: lit.Type})
			}
			return true
		})
	}
	return units
}

// inspectShallow walks the subtree rooted at n but does not descend into
// function literals: each literal is analyzed as its own funcUnit.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return fn(m)
	})
}

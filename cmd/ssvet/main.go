// Command ssvet runs the repository's custom static-analysis suite
// (internal/analysis) over every package in the module and exits
// non-zero on any diagnostic. It is the CI gate for the engine's
// scan-loop invariants: canceller polling in scan loops, paper counters
// on posting loops, lock hygiene, live escape hatches, and the
// stdlib-only import constraint. Copies of typed atomics are go vet's
// copylocks check; warm-path allocations and copy-on-write publication
// are pinned by runtime tests in internal/core.
//
// Usage:
//
//	go run ./cmd/ssvet ./...
//	go run ./cmd/ssvet -list
//	go run ./cmd/ssvet -json ./...
//	go run ./cmd/ssvet -o findings.json ./...
//
// The ./... argument is accepted for familiarity; ssvet always analyzes
// the whole module enclosing the working directory. -list prints the
// analyzer roster and exits. -json replaces the human-readable report
// on stdout with a deterministic JSON array (sorted by file, line,
// analyzer, message — byte-identical across runs on the same tree); -o
// writes that same JSON to a file regardless of the stdout format, and
// writes it before the exit code is decided, so CI can always upload
// the artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"

	"repro/internal/analysis"
)

// positionAt fabricates a position for findings that have no AST node,
// such as the go.mod require check.
func positionAt(file string, line int) token.Position {
	return token.Position{Filename: file, Line: line}
}

// jsonDiag is the stable wire form of one finding. Fields are flat and
// lower-cased, so downstream tooling does not depend on go/token types.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func toJSON(diags []analysis.Diagnostic) []byte {
	out := make([]jsonDiag, 0, len(diags)) // empty array, not null, on a clean tree
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		// A flat struct of strings and ints cannot fail to marshal.
		panic(err)
	}
	return append(b, '\n')
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "print findings as a deterministic JSON array on stdout")
	outFile := flag.String("o", "", "also write the JSON findings to this file (written even when findings exist)")
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssvet:", err)
		os.Exit(2)
	}

	var diags []analysis.Diagnostic
	// The stdlib-only rule extends to go.mod itself: a require directive
	// means a dependency slipped in even if no file imports it yet.
	if lines, err := loader.GoModRequires(); err == nil {
		for _, ln := range lines {
			diags = append(diags, analysis.Diagnostic{
				Pos:      positionAt("go.mod", ln),
				Analyzer: "stdlibonly",
				Message:  fmt.Sprintf("go.mod line %d: require directive in a stdlib-only module", ln),
			})
		}
	}

	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssvet:", err)
		os.Exit(2)
	}
	diags = append(diags, analysis.RunAll(pkgs, analysis.Analyzers())...)
	// RunAll sorts its own slice; re-sort after splicing in the go.mod
	// pseudo-diagnostics so every output form is deterministic.
	analysis.Sort(diags)

	if *outFile != "" {
		if err := os.WriteFile(*outFile, toJSON(diags), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ssvet:", err)
			os.Exit(2)
		}
	}
	if *jsonOut {
		os.Stdout.Write(toJSON(diags))
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ssvet: %d diagnostic(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

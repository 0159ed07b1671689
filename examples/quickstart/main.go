// Quickstart: index a handful of address strings as 3-gram sets and run
// one selection query with the Shortest-First algorithm.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/setsim"
)

func main() {
	corpus := []string{
		"Main St., Main",
		"Main St., Maine",
		"Main Street",
		"Maine Street",
		"Florham Park NJ",
		"Park Avenue NY",
		"Wall Street NY",
		"185 Park Avenue Florham Park",
	}

	// Build the index: 3-gram tokens, inverted lists + skip lists only
	// (SF needs nothing more).
	idx := setsim.Build(corpus, setsim.QGramTokenizer{Q: 3}, setsim.Config{})

	query := "Maine Str."
	q := idx.Prepare(query)
	fmt.Printf("query %q: %d distinct grams, len(q) = %.2f\n\n", query, len(q.Tokens), q.Len)

	for _, tau := range []float64{0.9, 0.7, 0.5} {
		res, stats, err := idx.Select(q, tau, setsim.SF, nil)
		if err != nil {
			panic(err)
		}
		fmt.Printf("tau = %.1f  (%d results, read %d of %d postings, %.0f%% pruned)\n",
			tau, len(res), stats.ElementsRead, stats.ListTotal, stats.PruningPower())
		for _, r := range res {
			fmt.Printf("  %.4f  %s\n", r.Score, idx.Collection().Source(r.ID))
		}
		fmt.Println()
	}
}

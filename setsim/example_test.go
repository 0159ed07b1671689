package setsim_test

import (
	"fmt"

	"repro/setsim"
)

// ExampleBuild shows the minimal end-to-end flow: build an index over a
// string corpus and run one selection query.
func ExampleBuild() {
	corpus := []string{"Main Street", "Maine Street", "Florham Park"}
	idx := setsim.Build(corpus, setsim.QGramTokenizer{Q: 3}, setsim.Config{})

	q := idx.Prepare("Maine Str.")
	results, _, err := idx.Select(q, 0.7, setsim.SF, nil)
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Printf("%.2f %s\n", r.Score, idx.Collection().Source(r.ID))
	}
	// Output:
	// 0.74 Maine Street
}

// ExampleEngine_SelectTopK asks for the two most similar corpus strings
// instead of a threshold.
func ExampleEngine_SelectTopK() {
	corpus := []string{"main street", "maine street", "wall street", "florham park"}
	idx := setsim.Build(corpus, setsim.QGramTokenizer{Q: 3}, setsim.Config{})

	res, _, err := idx.SelectTopK(idx.Prepare("main street"), 2, setsim.SF, nil)
	if err != nil {
		panic(err)
	}
	for i, r := range res {
		fmt.Printf("%d. %s\n", i+1, idx.Collection().Source(r.ID))
	}
	// Output:
	// 1. main street
	// 2. maine street
}

// ExampleEngine_Select_statistics shows the access statistics every query
// reports — the quantities the paper's evaluation plots. Both lists hold
// two postings. SF reads "beta gamma" off the "beta" list and stops at the
// longer "alpha beta". The "gamma" list can admit nothing new, so SF seeks
// it to its one candidate, finds "beta gamma" there and is done: "gamma
// delta" behind it, equally long, which the paper's read-to-maxLen(C)
// completion would have read as a third posting, is never touched.
func ExampleEngine_Select_statistics() {
	corpus := []string{"alpha beta", "beta gamma", "gamma delta", "delta epsilon"}
	idx := setsim.Build(corpus, setsim.WordTokenizer{}, setsim.Config{})

	_, stats, err := idx.Select(idx.Prepare("beta gamma"), 0.9, setsim.SF, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("read %d of %d postings\n", stats.ElementsRead, stats.ListTotal)
	// Output:
	// read 2 of 4 postings
}

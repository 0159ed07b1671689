// Top-k extension (§X): instead of a threshold, ask for the k most
// similar sets. The SF-topk variant raises the pruning bound to the k-th
// best lower bound as it scans, reading a fraction of the lists.
//
//	go run ./examples/topk
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/setsim"
)

func main() {
	rng := rand.New(rand.NewSource(21))
	rows := dataset.DBLPLike(rng, 8000)
	fmt.Printf("corpus: %d citation-title-like rows\n\n", len(rows))

	// Index whole titles as word sets — top-k over records rather than
	// words, the "related titles" use case.
	idx := setsim.Build(rows, setsim.WordTokenizer{}, setsim.Config{})

	probe := rows[rng.Intn(len(rows))]
	fmt.Printf("probe: %q\n\n", probe)
	q := idx.Prepare(probe)

	for _, k := range []int{1, 5} {
		res, stats, err := idx.SelectTopK(q, k, setsim.SF, nil)
		if err != nil {
			panic(err)
		}
		fmt.Printf("top-%d (read %d of %d postings):\n", k, stats.ElementsRead, stats.ListTotal)
		for rank, r := range res {
			fmt.Printf("  %d. %.4f  %s\n", rank+1, r.Score, idx.Collection().Source(r.ID))
		}
		fmt.Println()
	}

	// Verify against the exhaustive oracle.
	want, _, err := idx.SelectTopK(q, 5, setsim.Naive, nil)
	if err != nil {
		panic(err)
	}
	got, _, err := idx.SelectTopK(q, 5, setsim.SF, nil)
	if err != nil {
		panic(err)
	}
	same := len(got) == len(want)
	for i := range got {
		if !same || got[i].Score-want[i].Score > 1e-9 || want[i].Score-got[i].Score > 1e-9 {
			same = false
		}
	}
	fmt.Printf("SF top-5 matches exhaustive scan: %v\n", same)
}

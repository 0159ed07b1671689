// Approximate word matching: the paper's IMDB experiment in miniature
// (§VIII-A). A dictionary of words is indexed as 3-gram sets; misspelled
// probes are answered with the SF algorithm, and the same workload is
// run through the sort-by-id baseline to show the pruning gap.
//
//	go run ./examples/spellcheck
package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/setsim"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	rows := dataset.IMDBLike(rng, 40000)
	words := dataset.Words(rows)
	fmt.Printf("dictionary: %d distinct words from %d rows\n\n", len(words), len(rows))

	idx := setsim.Build(words, setsim.QGramTokenizer{Q: 3}, setsim.Config{})

	// Misspell 200 random dictionary words with 1-2 edits.
	probes := make([]string, 200)
	for i := range probes {
		w := words[rng.Intn(len(words))]
		probes[i] = dataset.Modify(rng, w, 1+rng.Intn(2))
	}

	const tau = 0.7
	run := func(alg setsim.Algorithm) (time.Duration, int, float64) {
		var elapsed time.Duration
		var read, total, found int
		for _, p := range probes {
			q := idx.Prepare(p)
			if len(q.Tokens) == 0 {
				continue // every gram of the probe is out-of-vocabulary
			}
			res, st, err := idx.Select(q, tau, alg, nil)
			if err != nil {
				panic(err)
			}
			elapsed += st.Elapsed
			read += st.ElementsRead
			total += st.ListTotal
			found += len(res)
		}
		pruned := 100 * (1 - float64(read)/float64(total))
		return elapsed, found, pruned
	}

	sfTime, sfFound, sfPruned := run(setsim.SF)
	mergeTime, mergeFound, _ := run(setsim.SortByID)
	fmt.Printf("SF:         %8v total, %d suggestions, %.1f%% of postings pruned\n",
		sfTime.Round(time.Microsecond), sfFound, sfPruned)
	fmt.Printf("sort-by-id: %8v total, %d suggestions, 0%% pruned (full merge)\n",
		mergeTime.Round(time.Microsecond), mergeFound)
	fmt.Printf("speedup: %.1fx\n\n", float64(mergeTime)/float64(sfTime))

	// Show a few corrections.
	for _, p := range probes[:5] {
		q := idx.Prepare(p)
		if len(q.Tokens) == 0 {
			continue
		}
		res, _, _ := idx.Select(q, tau, setsim.SF, nil)
		best := "(no match)"
		var bestScore float64
		for _, r := range res {
			if r.Score > bestScore {
				bestScore = r.Score
				best = idx.Collection().Source(r.ID)
			}
		}
		fmt.Printf("  %-18q -> %-18q (%.3f)\n", p, best, bestScore)
	}
}

// Data cleaning: the paper's motivating scenario (§I). A customer table
// contains dirty duplicates — typos, formatting noise. We index every
// record, run one selection query per record in parallel, and union the
// matches into duplicate clusters.
//
//	go run ./examples/datacleaning
package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dataset"
	"repro/setsim"
)

func main() {
	// Synthesize a dirty customer table: 60 true entities, 3 noisy
	// copies each (the cu-style error model of the Table I experiment).
	rng := rand.New(rand.NewSource(7))
	cu := dataset.CUDatasets(rng, 60, 3, 0)[4] // cu5: moderate errors
	records := cu.Records
	fmt.Printf("customer table: %d records (%d true entities)\n\n", len(records), 60)

	idx := setsim.Build(records, setsim.QGramTokenizer{Q: 3}, setsim.Config{})

	// One selection query per record, fanned out over a worker pool.
	queries := make([]setsim.Query, len(records))
	for i, r := range records {
		queries[i] = idx.Prepare(r)
	}
	const tau = 0.6
	batch := idx.SelectBatch(queries, tau, setsim.SF, nil, 0)

	// Union-find over match pairs.
	parent := make([]int, len(records))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	pairs := 0
	for i, br := range batch {
		if br.Err != nil {
			panic(br.Err)
		}
		for _, r := range br.Results {
			j := int(r.ID)
			if i == j {
				continue
			}
			pairs++
			pi, pj := find(i), find(j)
			if pi != pj {
				parent[pi] = pj
			}
		}
	}

	clusters := map[int][]int{}
	for i := range records {
		root := find(i)
		clusters[root] = append(clusters[root], i)
	}
	fmt.Printf("tau = %.2f: %d match pairs -> %d clusters\n\n", tau, pairs/2, len(clusters))

	// Accuracy against ground truth: a cluster is pure if all members
	// share the true entity.
	pure, multi := 0, 0
	for _, members := range clusters {
		truth := cu.Cluster[members[0]]
		ok := true
		for _, m := range members {
			if cu.Cluster[m] != truth {
				ok = false
			}
		}
		if ok {
			pure++
		}
		if len(members) > 1 {
			multi++
		}
	}
	fmt.Printf("cluster purity: %d/%d pure, %d clusters merged >1 record\n\n",
		pure, len(clusters), multi)

	// Show the three largest clusters.
	var roots []int
	for r := range clusters {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return len(clusters[roots[i]]) > len(clusters[roots[j]]) })
	for _, r := range roots[:3] {
		fmt.Println("cluster:")
		for _, m := range clusters[r] {
			fmt.Printf("  %q\n", records[m])
		}
	}
}

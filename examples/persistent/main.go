// Persistent index: build once, save the corpus as a store and the
// disk-resident inverted lists, then reopen and serve queries from the
// on-disk lists — the paper's deployment model (§VIII keeps the 5GB of
// lists on disk and leaves caching to the OS).
//
//	go run ./examples/persistent
package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/dataset"
	"repro/setsim"
)

func main() {
	dir, err := os.MkdirTemp("", "setsim-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	storePath := filepath.Join(dir, "words.sssnap")
	listPath := filepath.Join(dir, "words.ssidx")

	// Build from a synthetic word corpus and persist both files.
	rng := rand.New(rand.NewSource(5))
	words := dataset.Words(dataset.IMDBLike(rng, 30000))
	idx := setsim.Build(words, setsim.QGramTokenizer{Q: 3}, setsim.Config{})
	if err := setsim.Save(storePath, idx); err != nil {
		panic(err)
	}
	if err := setsim.SaveLists(listPath, idx); err != nil {
		panic(err)
	}
	// The store is its manifest plus the segment package beside it.
	var storeSize int64
	files, _ := filepath.Glob(storePath + "*")
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			storeSize += fi.Size()
		}
	}
	li, _ := os.Stat(listPath)
	fmt.Printf("saved %d words: store %d KB, inverted lists %d KB\n\n",
		len(words), storeSize/1024, li.Size()/1024)

	// Reopen: queries now run against the on-disk lists.
	disk, err := setsim.LoadWithLists(storePath, listPath, setsim.Config{})
	if err != nil {
		panic(err)
	}
	// Pick a reasonably long word so a one-edit probe still shares grams
	// with the corpus.
	base := words[100]
	for _, w := range words {
		if len(w) >= 10 {
			base = w
			break
		}
	}
	probe := dataset.Modify(rng, base, 1)
	q := disk.Prepare(probe)
	if len(q.Tokens) == 0 {
		fmt.Println("probe shares no grams with the corpus; nothing to do")
		return
	}
	res, stats, err := disk.Select(q, 0.6, setsim.SF, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("query %q over on-disk lists (%v, %d postings read, %d skipped):\n",
		probe, stats.Elapsed, stats.ElementsRead, stats.ElementsSkipped)
	for _, r := range res {
		fmt.Printf("  %.4f  %s\n", r.Score, disk.Collection().Source(r.ID))
	}
}

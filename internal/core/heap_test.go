package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/collection"
	"repro/internal/dataset"
	"repro/internal/tokenize"
)

// retainedHeap returns the live heap after a full collection.
func retainedHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestShardedIndexRetainedHeap guards what the inverted lists keep alive
// on a small sharded engine: thousands of tokens per shard and a handful
// of postings per list, the shape where per-list overhead rather than
// postings decides the footprint (a pointer skip list per list once cost
// 52 of 55 MB on a store like this). The heap the build adds may exceed
// what remains once the stores are dropped — collections, dictionary,
// summaries — by at most 1.5× the accounted index size.
func TestShardedIndexRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not comparable under the race detector")
	}
	words := dataset.Words(dataset.IMDBLike(rand.New(rand.NewSource(9)), 20000))
	if len(words) < 2000 {
		t.Fatalf("corpus has %d words, want 2000", len(words))
	}
	words = words[:2000]

	before := retainedHeap()
	se := BuildSharded(tokenize.QGramTokenizer{Q: 3}, words, false, 4, Config{})
	defer se.Close()
	built := retainedHeap()

	var index int64
	for i := 0; i < se.NumShards(); i++ {
		index += se.Shard(i).Store().Sizes().Total()
		se.shards[i].store = nil
	}
	rest := retainedHeap()
	runtime.KeepAlive(se)

	if growth, budget := built-before, index*3/2+(rest-before); growth > budget {
		t.Errorf("build retained %d bytes; budget %d = 1.5 × %d index bytes + %d collection bytes",
			growth, budget, index, rest-before)
	}
}

// TestListsOnlyRetainsOnePostingArena holds what a default engine keeps
// alive to one copy of its postings: Config{} builds the lists only, and
// TA's bitmaps and SQL's tables wait for their first query. The heap the
// build adds may exceed what remains once the store is dropped by the
// 16-byte postings of every list, the two offset tables and the skip
// samples, plus the allocator's rounding of those four arrays to whole
// pages. A second posting arena (an id-sorted copy of every list), the
// bitmaps or the tables do not fit. The race detector's
// shadow memory lies outside the Go heap, so the bound holds under it.
func TestListsOnlyRetainsOnePostingArena(t *testing.T) {
	b := collection.NewBuilder(tokenize.QGramTokenizer{Q: 3}, false)
	for _, w := range dataset.Words(dataset.IMDBLike(rand.New(rand.NewSource(9)), 20000)) {
		b.Add(w)
	}
	c := b.Build()

	before := retainedHeap()
	e := NewEngine(c, Config{})
	built := retainedHeap()
	postings := 0
	for tk := 0; tk < c.NumTokens(); tk++ {
		postings += e.store.ListLen(tokenize.Token(tk))
	}
	tables := 2*4*int64(c.NumTokens()+1) + e.store.Sizes().SkipIndexes
	e.store = nil
	rest := retainedHeap()
	runtime.KeepAlive(e)

	const rounding = 4 * 8 << 10 // a page for each of the four arrays
	arena := 16 * int64(postings)
	if growth, budget := built-before, arena+tables+rounding+(rest-before); growth > budget {
		t.Errorf("default engine retained %d bytes; budget %d = %d posting bytes + %d table bytes + %d rounding + %d bytes besides the store",
			growth, budget, arena, tables, rounding, rest-before)
	}
}

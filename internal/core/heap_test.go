package core

import (
	"math/rand"
	"runtime"
	"strings"
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
// what remains once the stores and the dense lists' bitmaps are dropped —
// collections, dictionary, summaries — by at most 1.5× the accounted
// index size.
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
	se := BuildSharded(tokenize.QGramTokenizer{Q: 3}, words, 4, Config{})
	defer se.Close()
	built := retainedHeap()

	var index int64
	for i := 0; i < se.NumShards(); i++ {
		sh := se.Shard(i)
		index += sh.Sizes().Total()
		sh.store, sh.dense = nil, denseLists{}
	}
	rest := retainedHeap()
	runtime.KeepAlive(se)

	if growth, budget := built-before, index*3/2+(rest-before); growth > budget {
		t.Errorf("build retained %d bytes; budget %d = 1.5 × %d index bytes + %d collection bytes",
			growth, budget, index, rest-before)
	}
}

// TestListsOnlyRetainsOnePostingArena holds what a default engine keeps
// alive to one copy of its postings: Config{} builds the lists (and the
// dense lists' bitmaps, which stay with the engine), and TA's bitmaps and
// SQL's tables wait for their first query. The heap the build adds may
// exceed what remains once the store is dropped by 16 bytes for every
// posting (the arena's two columns take 12), the two offset tables and
// the skip samples, plus the allocator's rounding of those four arrays
// to whole pages. A second posting arena (an id-sorted copy of every list), the
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

// TestCollectionRetainsFlatArena holds what a built collection keeps
// alive to its flat layout: 4 bytes per distinct token of a set (the
// arena), 4 per set offset, 8 per set length, 8 per entry whose term
// frequency exceeds 1 (the side table), the two per-token tables (df
// and idf, 8 bytes each) and the allocator's rounding of those six
// arrays to whole pages. A per-set vector behind a slice header (24
// bytes, plus 8 per entry rounded to a size class) does not fit, nor
// does an arena keeping the spare capacity of append growth. The
// dictionary is interned before the measurement, so the tokens' strings
// are not counted.
func TestCollectionRetainsFlatArena(t *testing.T) {
	rows := dataset.IMDBLike(rand.New(rand.NewSource(9)), 20000)
	tk := tokenize.QGramTokenizer{Q: 3}
	dict := func() *tokenize.Dict {
		warm := collection.NewBuilder(tk, false)
		for _, s := range rows {
			warm.Add(s)
		}
		return warm.Build().Dict()
	}()

	before := retainedHeap()
	b := collection.NewBuilderWithDict(dict, tk, false)
	for _, s := range rows {
		b.Add(s)
	}
	c := b.Build()
	built := retainedHeap()
	runtime.KeepAlive(rows)

	var entries, repeats int64
	for id := range c.NumSets() {
		for _, cnt := range c.Set(collection.SetID(id)) {
			entries++
			if cnt.TF > 1 {
				repeats++
			}
		}
	}
	sets, tokens := int64(c.NumSets()), int64(c.NumTokens())
	const rounding = 6 * 8 << 10 // a page for each of the six arrays
	budget := 4*entries + 4*(sets+1) + 8*sets + 8*repeats + 16*tokens + rounding
	if growth := built - before; growth > budget {
		t.Errorf("collection retained %d bytes; budget %d for %d entries, %d sets, %d entries with TF > 1 and %d tokens",
			growth, budget, entries, sets, repeats, tokens)
	}
	t.Logf("collection retained %d bytes, %.2f per entry; budget %d", built-before, float64(built-before)/float64(entries), budget)
}

// TestBuildAddAllocations pins both build paths to their arenas: once a
// builder (Builder.Add) or a build round (segmentRound.addAll, at two
// workers) has taken a corpus, adding it again — every token already
// interned, lower-case input the tokenizer does not copy — allocates
// nothing per document but the amortized growth of the arrays it
// appends to: the round's fan-out costs O(workers), not O(documents).
// The count is exact: testing.AllocsPerRun would round it down to a
// whole number.
func TestBuildAddAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	rows := dataset.IMDBLike(rand.New(rand.NewSource(9)), 5000)
	for i, s := range rows {
		rows[i] = strings.ToLower(s)
	}
	perDoc := func(procs int, addAll func()) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		addAll() // warm-up: intern every token, grow every array
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		addAll()
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(len(rows))
	}
	const budget = 0.1
	tk := tokenize.QGramTokenizer{Q: 3}

	b := collection.NewBuilder(tk, true)
	got := perDoc(1, func() {
		for _, s := range rows {
			b.Add(s)
		}
	})
	t.Logf("Builder.Add: %.4f allocations per document", got)
	if got >= budget {
		t.Errorf("Builder.Add: %.3f allocations per document, want < %v", got, budget)
	}

	r := newSegmentRound(tk, 2)
	refs := make([]docRef, len(rows))
	for i, s := range rows {
		refs[i] = docRef{id: collection.SetID(i), source: s}
	}
	got = perDoc(2, func() { r.addAll(refs) })
	t.Logf("segmentRound.addAll: %.4f allocations per document", got)
	if got >= budget {
		t.Errorf("segmentRound.addAll: %.3f allocations per document, want < %v", got, budget)
	}
}

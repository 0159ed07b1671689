package core

import (
	"math/rand"
	"runtime"
	"testing"

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
	se := BuildSharded(tokenize.QGramTokenizer{Q: 3}, words, false, 4, Config{NoHashes: true, NoRelational: true})
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

package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/tokenize"
)

// TestShardedSourceRoundTrip checks the global-id → shard → local-id
// mapping by reading every document back through the sharded engine,
// and that every shard prepares a document's query with the monolithic
// engine's length bits.
func TestShardedSourceRoundTrip(t *testing.T) {
	docs := randomDocs(300, 21, 8)
	mono := engineFromDocs(docs, Config{})
	se := BuildSharded(tokenize.QGramTokenizer{Q: 3}, docs, 4, Config{})
	defer se.Close()
	if se.NumDocs() != mono.c.NumSets() {
		t.Fatalf("sharded NumDocs=%d, monolithic %d", se.NumDocs(), mono.c.NumSets())
	}
	for id := 0; id < mono.c.NumSets(); id++ {
		if q, qs := mono.Prepare(docs[id]), se.Prepare(docs[id]); math.Float64bits(q.Len) != math.Float64bits(qs.Len) {
			t.Fatalf("doc %d: query Len %.17g, monolithic %.17g", id, qs.Len, q.Len)
		}
		if got, want := se.Source(collection.SetID(id)), mono.c.Source(collection.SetID(id)); got != want {
			t.Fatalf("Source(%d) = %q, monolithic %q", id, got, want)
		}
	}
}

// TestShardedValidationAndCancel covers the fleet-level error paths:
// input validation happens once, before any fan-out, and a cancelled
// context surfaces from the shards. Close closes the viewed live engine,
// whose queries keep working after it: the executor is the process's.
func TestShardedValidationAndCancel(t *testing.T) {
	docs := randomDocs(200, 3, 6)
	se := BuildSharded(tokenize.QGramTokenizer{Q: 3}, docs, 3, Config{})
	defer se.Close()
	q := se.Prepare(docs[0])
	if _, _, err := se.Select(Query{}, 0.5, SF, nil); err != ErrEmptyQuery {
		t.Errorf("empty query err = %v", err)
	}
	if _, _, err := se.Select(q, 0, SF, nil); err != ErrBadThreshold {
		t.Errorf("τ=0 err = %v", err)
	}
	if _, _, err := se.Select(q, 0.5, Algorithm(99), nil); err != ErrUnknownAlg {
		t.Errorf("bad alg err = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := se.SelectCtx(ctx, q, 0.5, SF, nil); err != context.Canceled {
		t.Errorf("cancelled ctx err = %v", err)
	}
	if _, _, err := se.SelectTopKCtx(ctx, q, 5, SF, nil); err != context.Canceled {
		t.Errorf("cancelled top-k ctx err = %v", err)
	}
	if res, _, err := se.SelectTopK(q, 0, SF, nil); err != nil || res != nil {
		t.Errorf("k=0: res=%v err=%v", res, err)
	}
	want, _, err := se.Select(q, 0.5, SF, nil)
	if err != nil || len(want) == 0 {
		t.Fatalf("select: %d results, %v", len(want), err)
	}
	se.Close()
	got, _, err := se.Select(q, 0.5, SF, nil)
	if err != nil {
		t.Fatalf("select after Close: %v", err)
	}
	assertBitwise(t, "select after Close", got, want)
}

// TestShardedMetrics checks the fleet gauges: fan-out and merge counters
// move, and the shard line renders.
func TestShardedMetrics(t *testing.T) {
	docs := randomDocs(300, 33, 6)
	se := BuildSharded(tokenize.QGramTokenizer{Q: 3}, docs, 4, Config{})
	defer se.Close()
	q := se.Prepare(docs[0])
	if _, _, err := se.Select(q, 0.5, SF, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := se.SelectTopK(q, 5, SF, nil); err != nil {
		t.Fatal(err)
	}
	snap := se.Metrics().Snapshot()
	if !snap.HasShard {
		t.Fatal("snapshot missing shard gauges")
	}
	if snap.Shard.Shards != 4 {
		t.Errorf("Shards = %d", snap.Shard.Shards)
	}
	if snap.Shard.Fanouts != 2 {
		t.Errorf("Fanouts = %d", snap.Shard.Fanouts)
	}
	if snap.Shard.Merged == 0 {
		t.Error("Merged = 0 after a matching select")
	}
	if !strings.Contains(snap.String(), "shard:") {
		t.Errorf("String() missing shard line:\n%s", snap.String())
	}
}

// TestShardOfRange pins the hash router inside [0, k) for a sweep of ids
// and shard counts, including non-powers of two.
func TestShardOfRange(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 7, 16} {
		counts := make([]int, k)
		for id := 0; id < 10000; id++ {
			sh := shardOf(collection.SetID(id), k)
			if sh < 0 || sh >= k {
				t.Fatalf("shardOf(%d, %d) = %d", id, k, sh)
			}
			counts[sh]++
		}
		if k > 1 {
			for sh, c := range counts {
				if c == 0 {
					t.Errorf("k=%d: shard %d got no ids", k, sh)
				}
			}
		}
	}
}

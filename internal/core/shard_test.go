package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/tokenize"
)

// randomDocs mirrors buildEngine's corpus generation but returns the raw
// strings, so the same documents can feed both a monolithic Builder and
// BuildSharded.
func randomDocs(n int, seed int64, alphabet int) []string {
	rng := rand.New(rand.NewSource(seed))
	docs := make([]string, n)
	for i := range docs {
		ln := 3 + rng.Intn(14)
		var sb strings.Builder
		for j := 0; j < ln; j++ {
			sb.WriteByte(byte('a' + rng.Intn(alphabet)))
		}
		docs[i] = sb.String()
	}
	return docs
}

func engineFromDocs(docs []string, cfg Config) *Engine {
	b := collection.NewBuilder(tokenize.QGramTokenizer{Q: 3}, true)
	for _, d := range docs {
		b.Add(d)
	}
	return NewEngine(b.Build(), cfg)
}

// assertBitwise demands byte-for-byte agreement: same length, same ids in
// the same order, same score bits. This is the sharding contract — not
// epsilon-close, identical.
func assertBitwise(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, monolithic %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s: result[%d] id=%d, monolithic %d", label, i, got[i].ID, want[i].ID)
		}
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: result[%d] (id=%d) score %.17g, monolithic %.17g",
				label, i, got[i].ID, got[i].Score, want[i].Score)
		}
	}
}

var shardKs = []int{1, 2, 4, 7}

// TestShardedMatchesMonolithic is the core sharding contract: for every
// algorithm, every shard count, threshold selection over the partitioned
// corpus returns bitwise-identical results to the monolithic engine.
func TestShardedMatchesMonolithic(t *testing.T) {
	docs := randomDocs(700, 42, 7)
	mono := engineFromDocs(docs, Config{})
	algs := append([]Algorithm{Naive}, Algorithms()...)
	for _, K := range shardKs {
		K := K
		t.Run(fmt.Sprintf("K=%d", K), func(t *testing.T) {
			se := BuildSharded(tokenize.QGramTokenizer{Q: 3}, docs, true, K, Config{})
			defer se.Close()
			if se.NumDocs() != mono.c.NumSets() {
				t.Fatalf("sharded NumDocs=%d, monolithic %d", se.NumDocs(), mono.c.NumSets())
			}
			rng := rand.New(rand.NewSource(43))
			taus := []float64{0.3, 0.5, 0.7, 0.85, 0.95, 1.0}
			for trial := 0; trial < 12; trial++ {
				qid := collection.SetID(rng.Intn(mono.c.NumSets()))
				src := mono.c.Source(qid)
				q := mono.Prepare(src)
				qs := se.Prepare(src)
				if math.Float64bits(q.Len) != math.Float64bits(qs.Len) {
					t.Fatalf("query Len diverges: %.17g vs %.17g", q.Len, qs.Len)
				}
				tau := taus[trial%len(taus)]
				for _, alg := range algs {
					want, _, err := mono.Select(q, tau, alg, nil)
					if err != nil {
						t.Fatalf("mono %v: %v", alg, err)
					}
					got, _, err := se.Select(qs, tau, alg, nil)
					if err != nil {
						t.Fatalf("sharded %v: %v", alg, err)
					}
					assertBitwise(t, fmt.Sprintf("%v τ=%g", alg, tau), got, want)
				}
			}
		})
	}
}

// TestShardedTopKMatchesMonolithic checks the threshold-aware top-k merge
// for every supported algorithm and shard count, across k values that
// straddle typical shard result sizes.
func TestShardedTopKMatchesMonolithic(t *testing.T) {
	docs := randomDocs(600, 11, 6)
	mono := engineFromDocs(docs, Config{})
	for _, K := range shardKs {
		K := K
		t.Run(fmt.Sprintf("K=%d", K), func(t *testing.T) {
			se := BuildSharded(tokenize.QGramTokenizer{Q: 3}, docs, true, K, Config{})
			defer se.Close()
			rng := rand.New(rand.NewSource(17))
			for trial := 0; trial < 10; trial++ {
				qid := collection.SetID(rng.Intn(mono.c.NumSets()))
				q := mono.PrepareCounts(mono.c.Set(qid))
				for _, k := range []int{1, 3, 10, 25} {
					for _, alg := range []Algorithm{Naive, SF} {
						want, _, err := mono.SelectTopK(q, k, alg, nil)
						if err != nil {
							t.Fatalf("mono %v k=%d: %v", alg, k, err)
						}
						got, _, err := se.SelectTopK(q, k, alg, nil)
						if err != nil {
							t.Fatalf("sharded %v k=%d: %v", alg, k, err)
						}
						assertBitwise(t, fmt.Sprintf("topk %v k=%d", alg, k), got, want)
					}
				}
			}
		})
	}
}

// TestShardedBatchMatchesMonolithic drives the outer batch pool over the
// inner shard fan-out (nested parallelism) and demands bitwise agreement
// for every query in the batch.
func TestShardedBatchMatchesMonolithic(t *testing.T) {
	docs := randomDocs(500, 5, 6)
	mono := engineFromDocs(docs, Config{})
	rng := rand.New(rand.NewSource(6))
	var queries []Query
	for i := 0; i < 24; i++ {
		queries = append(queries, mono.PrepareCounts(mono.c.Set(collection.SetID(rng.Intn(mono.c.NumSets())))))
	}
	for _, K := range shardKs {
		K := K
		t.Run(fmt.Sprintf("K=%d", K), func(t *testing.T) {
			se := BuildSharded(tokenize.QGramTokenizer{Q: 3}, docs, true, K, Config{})
			defer se.Close()
			for _, alg := range []Algorithm{SF, Hybrid, INRA} {
				batch := se.SelectBatch(queries, 0.6, alg, nil, 3)
				for i, br := range batch {
					if br.Err != nil {
						t.Fatalf("%v query %d: %v", alg, i, br.Err)
					}
					want, _, err := mono.Select(queries[i], 0.6, alg, nil)
					if err != nil {
						t.Fatal(err)
					}
					assertBitwise(t, fmt.Sprintf("batch %v q=%d", alg, i), br.Results, want)
				}
			}
		})
	}
}

// TestShardedSourceRoundTrip checks the global-id → shard → local-id
// mapping by reading every document back through the sharded engine.
func TestShardedSourceRoundTrip(t *testing.T) {
	docs := randomDocs(300, 21, 8)
	mono := engineFromDocs(docs, Config{})
	se := BuildSharded(tokenize.QGramTokenizer{Q: 3}, docs, true, 4, Config{})
	defer se.Close()
	for id := 0; id < mono.c.NumSets(); id++ {
		if got, want := se.Source(collection.SetID(id)), mono.c.Source(collection.SetID(id)); got != want {
			t.Fatalf("Source(%d) = %q, monolithic %q", id, got, want)
		}
	}
}

// TestShardedValidationAndCancel covers the fleet-level error paths:
// input validation happens once, before any fan-out, and a cancelled
// context surfaces from the shards.
func TestShardedValidationAndCancel(t *testing.T) {
	docs := randomDocs(200, 3, 6)
	se := BuildSharded(tokenize.QGramTokenizer{Q: 3}, docs, true, 3, Config{})
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
}

// TestShardedMetrics checks the fleet gauges: fan-out and merge counters
// move, and the shard line renders.
func TestShardedMetrics(t *testing.T) {
	docs := randomDocs(300, 33, 6)
	se := BuildSharded(tokenize.QGramTokenizer{Q: 3}, docs, true, 4, Config{})
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

// TestShardedLiveMatchesMonolithicLive drives identical mutation
// streams through a monolithic and a sharded LiveEngine and demands
// bitwise-identical answers in three states: after the bulk build (one
// compacted segment per shard), in a memtable-mixed state (segments
// plus per-shard memtables plus tombstones), and after an explicit full
// compaction folds the mutations in.
func TestShardedLiveMatchesMonolithicLive(t *testing.T) {
	docs := randomDocs(500, 77, 7)
	tk := tokenize.QGramTokenizer{Q: 3}
	cfg := func(shards int) LiveConfig {
		return LiveConfig{NoBackground: true, FlushThreshold: 1 << 20, Shards: shards}
	}
	compare := func(t *testing.T, mono, sh *LiveEngine, state string) {
		t.Helper()
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 8; trial++ {
			src, ok := mono.Source(collection.SetID(rng.Intn(mono.NumDocs())))
			if !ok {
				continue
			}
			qm := mono.Prepare(src)
			qs := sh.Prepare(src)
			for _, tau := range []float64{0.4, 0.7, 0.9} {
				for _, alg := range []Algorithm{SF, INRA, Hybrid, SortByID} {
					want, _, err := mono.Select(qm, tau, alg, nil)
					if err != nil {
						t.Fatalf("%s mono %v: %v", state, alg, err)
					}
					got, _, err := sh.Select(qs, tau, alg, nil)
					if err != nil {
						t.Fatalf("%s sharded %v: %v", state, alg, err)
					}
					assertBitwise(t, fmt.Sprintf("%s %v τ=%g", state, alg, tau), got, want)
				}
			}
			for _, alg := range []Algorithm{Naive, SF} {
				want, _, err := mono.SelectTopK(qm, 10, alg, nil)
				if err != nil {
					t.Fatalf("%s mono topk %v: %v", state, alg, err)
				}
				got, _, err := sh.SelectTopK(qs, 10, alg, nil)
				if err != nil {
					t.Fatalf("%s sharded topk %v: %v", state, alg, err)
				}
				assertBitwise(t, fmt.Sprintf("%s topk %v", state, alg), got, want)
			}
		}
	}
	for _, K := range []int{2, 4, 7} {
		K := K
		t.Run(fmt.Sprintf("K=%d", K), func(t *testing.T) {
			mono := BuildLive(docs, tk, cfg(1))
			defer mono.Close()
			sh := BuildLive(docs, tk, cfg(K))
			defer sh.Close()
			if got := sh.Stats().Segments; got == 0 || got > K {
				t.Fatalf("sharded live has %d segments after build, want 1..%d", got, K)
			}
			compare(t, mono, sh, "built")

			// Identical mutation stream: inserts, deletes, upserts.
			rng := rand.New(rand.NewSource(123))
			extra := randomDocs(120, 555, 7)
			for i, s := range extra {
				idM, errM := mono.Insert(s)
				idS, errS := sh.Insert(s)
				if errM != errS {
					t.Fatalf("insert err mismatch: %v vs %v", errM, errS)
				}
				if errM == nil && idM != idS {
					t.Fatalf("insert id mismatch: %d vs %d", idM, idS)
				}
				if i%3 == 0 {
					victim := collection.SetID(rng.Intn(mono.NumDocs()))
					if mono.Delete(victim) != sh.Delete(victim) {
						t.Fatalf("delete(%d) outcome mismatch", victim)
					}
				}
				if i%5 == 0 {
					target := collection.SetID(rng.Intn(mono.NumDocs()))
					repl := mutate(rng, s, 2)
					nm, errM := mono.Upsert(target, repl)
					ns, errS := sh.Upsert(target, repl)
					if errM != errS {
						t.Fatalf("upsert err mismatch: %v vs %v", errM, errS)
					}
					if errM == nil && nm != ns {
						t.Fatalf("upsert id mismatch: %d vs %d", nm, ns)
					}
				}
			}
			if mono.NumLive() != sh.NumLive() {
				t.Fatalf("NumLive: %d vs %d", mono.NumLive(), sh.NumLive())
			}
			if sh.Stats().Memtable == 0 {
				t.Fatal("sharded live has an empty memtable; the mixed state is not being exercised")
			}
			compare(t, mono, sh, "mixed")

			if !mono.Compact() || !sh.Compact() {
				t.Fatal("compaction reported no work despite pending mutations")
			}
			if got := sh.Stats().Memtable; got != 0 {
				t.Fatalf("%d memtable docs survived a full compaction", got)
			}
			compare(t, mono, sh, "compacted")
		})
	}
}

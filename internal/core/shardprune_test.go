package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/tokenize"
)

// clusteredDocs generates nPerTopic documents per topic over disjoint
// per-topic word vocabularies — the corpus shape similarity-aware
// partitioning is built for: each topic clusters into (mostly) one
// shard, so queries drawn from one topic can prune the rest.
func clusteredDocs(topics, nPerTopic int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var docs []string
	for tp := 0; tp < topics; tp++ {
		for i := 0; i < nPerTopic; i++ {
			doc := ""
			for w := 0; w < 5+rng.Intn(6); w++ {
				doc += fmt.Sprintf("t%dw%d ", tp, rng.Intn(50))
			}
			docs = append(docs, doc)
		}
	}
	// Shuffle so routing cannot lean on insertion order.
	rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	return docs
}

// skewedDocs is clusteredDocs with one adversarially hot word appended
// to ~90% of the documents: a hashed-sketch-only summary would see that
// token everywhere and never prune, while the exact hot-token bitmaps
// keep per-shard caps tight for the remaining (discriminative) tokens.
func skewedDocs(topics, nPerTopic int, seed int64) []string {
	docs := clusteredDocs(topics, nPerTopic, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	for i := range docs {
		if rng.Intn(10) != 0 {
			docs[i] += " everywhere"
		}
	}
	return docs
}

func wordEngineFromDocs(docs []string, cfg Config) *Engine {
	b := collection.NewBuilder(tokenize.WordTokenizer{}, true)
	for _, d := range docs {
		b.Add(d)
	}
	return NewEngine(b.Build(), cfg)
}

var pruneKs = []int{1, 2, 4, 8, 16}

// TestPrunedShardedMatchesMonolithic is the soundness contract of shard
// pruning: for every shard count in {1,2,4,8,16}, every algorithm, a τ
// grid, top-k at several k, and batch execution, the routed+pruned
// engine and the hash-routed build (Config.NoRoute, which visits every
// shard) both answer bitwise-identically to the monolithic engine.
func TestPrunedShardedMatchesMonolithic(t *testing.T) {
	docs := clusteredDocs(8, 90, 101)
	mono := wordEngineFromDocs(docs, Config{})
	tk := tokenize.WordTokenizer{}
	algs := append([]Algorithm{Naive}, Algorithms()...)
	taus := []float64{0.3, 0.5, 0.7, 0.85, 0.95, 1.0}
	for _, K := range pruneKs {
		K := K
		t.Run(fmt.Sprintf("K=%d", K), func(t *testing.T) {
			routed := BuildSharded(tk, docs, true, K, Config{})
			defer routed.Close()
			hashed := BuildSharded(tk, docs, true, K, Config{NoRoute: true})
			defer hashed.Close()
			if K > 1 && !routed.Routed() {
				t.Fatal("default multi-shard build is not routed")
			}
			if hashed.Routed() {
				t.Fatal("NoRoute build reports routed")
			}
			rng := rand.New(rand.NewSource(int64(200 + K)))
			for trial := 0; trial < 10; trial++ {
				src := docs[rng.Intn(len(docs))]
				qm := mono.Prepare(src)
				qs := routed.Prepare(src)
				qh := hashed.Prepare(src)
				tau := taus[trial%len(taus)]
				for _, alg := range algs {
					want, _, err := mono.Select(qm, tau, alg, nil)
					if err != nil {
						t.Fatalf("mono %v: %v", alg, err)
					}
					got, _, err := routed.Select(qs, tau, alg, nil)
					if err != nil {
						t.Fatalf("pruned %v: %v", alg, err)
					}
					assertBitwise(t, fmt.Sprintf("pruned %v τ=%g", alg, tau), got, want)
					got, _, err = hashed.Select(qh, tau, alg, nil)
					if err != nil {
						t.Fatalf("hashed %v: %v", alg, err)
					}
					assertBitwise(t, fmt.Sprintf("hashed %v τ=%g", alg, tau), got, want)
				}
				for _, k := range []int{1, 3, 10, 25} {
					for _, alg := range []Algorithm{Naive, SF} {
						want, _, err := mono.SelectTopK(qm, k, alg, nil)
						if err != nil {
							t.Fatalf("mono topk %v k=%d: %v", alg, k, err)
						}
						got, _, err := routed.SelectTopK(qs, k, alg, nil)
						if err != nil {
							t.Fatalf("pruned topk %v k=%d: %v", alg, k, err)
						}
						assertBitwise(t, fmt.Sprintf("pruned topk %v k=%d", alg, k), got, want)
						got, _, err = hashed.SelectTopK(qh, k, alg, nil)
						if err != nil {
							t.Fatalf("hashed topk %v k=%d: %v", alg, k, err)
						}
						assertBitwise(t, fmt.Sprintf("hashed topk %v k=%d", alg, k), got, want)
					}
				}
			}
			// Batch over the pruned engine: the outer pool composes with
			// per-query pruning.
			var queries []Query
			var wants [][]Result
			for i := 0; i < 16; i++ {
				src := docs[rng.Intn(len(docs))]
				queries = append(queries, routed.Prepare(src))
				want, _, err := mono.Select(mono.Prepare(src), 0.6, SF, nil)
				if err != nil {
					t.Fatal(err)
				}
				wants = append(wants, want)
			}
			batch := routed.SelectBatch(queries, 0.6, SF, nil, 3)
			for i, br := range batch {
				if br.Err != nil {
					t.Fatalf("batch query %d: %v", i, br.Err)
				}
				assertBitwise(t, fmt.Sprintf("batch q=%d", i), br.Results, wants[i])
			}
		})
	}
}

// TestPrunedShardedPrunesClusteredCorpus pins the perf claim the
// partitioning exists for: on a topic-clustered corpus at K=8, selection
// queries drawn from the corpus skip at least half the shards on
// average, and top-k mid-flight pruning fires too.
func TestPrunedShardedPrunesClusteredCorpus(t *testing.T) {
	docs := clusteredDocs(8, 90, 303)
	tk := tokenize.WordTokenizer{}
	se := BuildSharded(tk, docs, true, 8, Config{})
	defer se.Close()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		q := se.Prepare(docs[rng.Intn(len(docs))])
		if _, _, err := se.Select(q, 0.5, SF, nil); err != nil {
			t.Fatal(err)
		}
	}
	g := se.Metrics().Snapshot().Shard
	if g.BoundChecks == 0 {
		t.Fatal("no bound checks recorded")
	}
	if ratio := g.PruneRatio(); ratio < 0.5 {
		t.Fatalf("prune ratio %.2f on clustered corpus, want >= 0.5 (%d/%d skipped)",
			ratio, g.Skipped, g.BoundChecks)
	}
}

// TestPrunedTopKVisitsOneShard pins what whole topics buy a routed
// top-k: a query drawn from the corpus shares tokens with its own
// topic's shard only, so the route stage leaves one shard and the
// executor runs it inline. The corpus is the benchmark's clustered shape
// (64 topics × 60 words, 6 draws per document, topic = i mod 64) at a
// size and seed where the partition splits no topic. A partitioner that
// scatters topics makes these queries visit about three shards each.
func TestPrunedTopKVisitsOneShard(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	docs := make([]string, 12800)
	words := make([]string, 6)
	for i := range docs {
		for j := range words {
			words[j] = fmt.Sprintf("t%02dw%02d", i%64, rng.Intn(60))
		}
		docs[i] = strings.Join(words, " ")
	}
	se := BuildSharded(tokenize.WordTokenizer{}, docs, true, 8, Config{})
	defer se.Close()
	const queries = 200
	for i := 0; i < queries; i++ {
		q := se.Prepare(docs[rng.Intn(len(docs))])
		if _, _, err := se.SelectTopK(q, 10, SF, nil); err != nil {
			t.Fatal(err)
		}
	}
	g := se.Metrics().Snapshot().Shard
	if visited := float64(g.BoundChecks-g.Skipped) / queries; visited > 1.1 {
		t.Fatalf("top-k visits %.2f shards per query on whole topics, want <= 1.1 (%d of %d bound checks skipped)",
			visited, g.Skipped, g.BoundChecks)
	}
}

// TestAdversarialSkewStillPrunes is the skew-paper scenario: one token
// occurs in ~90% of documents. Its df lands it in every shard's exact
// hot-token bitmaps, so the per-shard caps stay honest and queries that
// carry the hot token still prune shards — while answers stay bitwise
// correct against the monolithic oracle.
func TestAdversarialSkewStillPrunes(t *testing.T) {
	docs := skewedDocs(8, 80, 909)
	tk := tokenize.WordTokenizer{}
	mono := wordEngineFromDocs(docs, Config{})
	se := BuildSharded(tk, docs, true, 8, Config{})
	defer se.Close()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		src := docs[rng.Intn(len(docs))]
		qm, qs := mono.Prepare(src), se.Prepare(src)
		for _, tau := range []float64{0.5, 0.7} {
			want, _, err := mono.Select(qm, tau, SF, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := se.Select(qs, tau, SF, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertBitwise(t, fmt.Sprintf("skew τ=%g", tau), got, want)
		}
		want, _, err := mono.SelectTopK(qm, 8, SF, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := se.SelectTopK(qs, 8, SF, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, "skew topk", got, want)
	}
	g := se.Metrics().Snapshot().Shard
	if g.Skipped == 0 || g.PruneRatio() <= 0 {
		t.Fatalf("adversarial skew defeated pruning entirely: %d/%d skipped",
			g.Skipped, g.BoundChecks)
	}
}

// TestPrunedLiveMatchesMonolithicLive drives an identical mutation
// stream through a monolithic, a routed sharded and a hash-partitioned
// (Config.NoRoute: no summaries, every segment visited) LiveEngine and
// demands bitwise-identical answers in the mixed (memtable + segments +
// tombstones) and recompacted states — per-segment pruning and the
// hash-routed memtable fallback composing with re-clustering.
func TestPrunedLiveMatchesMonolithicLive(t *testing.T) {
	docs := clusteredDocs(6, 60, 404)
	tk := tokenize.WordTokenizer{}
	cfg := func(shards int, noRoute bool) LiveConfig {
		return LiveConfig{Config: Config{NoRoute: noRoute}, NoBackground: true, FlushThreshold: 1 << 20, Shards: shards}
	}
	compare := func(t *testing.T, mono, sh, hashed *LiveEngine, state string) {
		t.Helper()
		rng := rand.New(rand.NewSource(55))
		for trial := 0; trial < 6; trial++ {
			src, ok := mono.Source(collection.SetID(rng.Intn(mono.NumDocs())))
			if !ok {
				continue
			}
			qm, qs, qh := mono.Prepare(src), sh.Prepare(src), hashed.Prepare(src)
			for _, tau := range []float64{0.4, 0.7, 0.95} {
				for _, alg := range []Algorithm{SF, INRA, Hybrid} {
					want, _, err := mono.Select(qm, tau, alg, nil)
					if err != nil {
						t.Fatalf("%s mono %v: %v", state, alg, err)
					}
					got, _, err := sh.Select(qs, tau, alg, nil)
					if err != nil {
						t.Fatalf("%s pruned %v: %v", state, alg, err)
					}
					assertBitwise(t, fmt.Sprintf("%s %v τ=%g", state, alg, tau), got, want)
					got, _, err = hashed.Select(qh, tau, alg, nil)
					if err != nil {
						t.Fatalf("%s hashed %v: %v", state, alg, err)
					}
					assertBitwise(t, fmt.Sprintf("%s hashed %v τ=%g", state, alg, tau), got, want)
				}
			}
			for _, k := range []int{1, 4, 16} {
				for _, alg := range []Algorithm{Naive, SF} {
					want, _, err := mono.SelectTopK(qm, k, alg, nil)
					if err != nil {
						t.Fatalf("%s mono topk %v: %v", state, alg, err)
					}
					got, _, err := sh.SelectTopK(qs, k, alg, nil)
					if err != nil {
						t.Fatalf("%s pruned topk %v: %v", state, alg, err)
					}
					assertBitwise(t, fmt.Sprintf("%s topk %v k=%d", state, alg, k), got, want)
				}
			}
		}
	}
	for _, K := range []int{4, 8} {
		K := K
		t.Run(fmt.Sprintf("K=%d", K), func(t *testing.T) {
			mono := BuildLive(docs, tk, cfg(1, false))
			defer mono.Close()
			sh := BuildLive(docs, tk, cfg(K, false))
			defer sh.Close()
			hashed := BuildLive(docs, tk, cfg(K, true))
			defer hashed.Close()
			compare(t, mono, sh, hashed, "built")

			rng := rand.New(rand.NewSource(77))
			extra := clusteredDocs(6, 15, 505)
			for i, s := range extra {
				idM, errM := mono.Insert(s)
				idS, errS := sh.Insert(s)
				idH, errH := hashed.Insert(s)
				if errM != errS || errM != errH || (errM == nil && (idM != idS || idM != idH)) {
					t.Fatalf("insert mismatch: (%d,%v) vs (%d,%v) vs (%d,%v)", idM, errM, idS, errS, idH, errH)
				}
				if i%3 == 0 {
					victim := collection.SetID(rng.Intn(mono.NumDocs()))
					if d := mono.Delete(victim); d != sh.Delete(victim) || d != hashed.Delete(victim) {
						t.Fatalf("delete(%d) outcome mismatch", victim)
					}
				}
			}
			if sh.Stats().Memtable == 0 {
				t.Fatal("mixed state not exercised: empty memtable")
			}
			compare(t, mono, sh, hashed, "mixed")

			if !mono.Compact() || !sh.Compact() || !hashed.Compact() {
				t.Fatal("compaction reported no work despite pending mutations")
			}
			compare(t, mono, sh, hashed, "compacted")

			// A full live compaction must reproduce the static clustering:
			// same docs, same order, same partition.
			static := BuildSharded(tk, currentDocs(mono), true, K, Config{})
			defer static.Close()
			liveRoute := sh.Routing()
			var liveAssign []int32
			for id := 0; id < sh.NumDocs(); id++ {
				if _, ok := sh.Source(collection.SetID(id)); ok {
					liveAssign = append(liveAssign, liveRoute[id])
				}
			}
			staticAssign := static.Routing()
			if len(liveAssign) != len(staticAssign) {
				t.Fatalf("live assignment has %d docs, static %d", len(liveAssign), len(staticAssign))
			}
			for i := range liveAssign {
				if liveAssign[i] != staticAssign[i] {
					t.Fatalf("doc %d: live shard %d, static shard %d", i, liveAssign[i], staticAssign[i])
				}
			}
		})
	}
}

// currentDocs snapshots a live engine's live documents in id order —
// the input an equivalent static build would receive.
func currentDocs(le *LiveEngine) []string {
	var docs []string
	for id := 0; id < le.NumDocs(); id++ {
		if s, ok := le.Source(collection.SetID(id)); ok {
			docs = append(docs, s)
		}
	}
	return docs
}

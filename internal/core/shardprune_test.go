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

// TestPrunedShardedMatchesMonolithic checks the one placement rule on a
// clustered corpus at every shard count: past one shard the build
// re-clusters rather than keeping the hash placement inserts start
// under, and every non-empty shard, K = 1 included, carries the summary
// pruning reads, over exactly its documents. Their answers are the
// monolithic engine's (TestQueryEquivalence).
func TestPrunedShardedMatchesMonolithic(t *testing.T) {
	docs := clusteredDocs(8, 90, 101)
	tk := tokenize.WordTokenizer{}
	for _, K := range []int{1, 2, 4, 8, 16} {
		t.Run(fmt.Sprintf("K=%d", K), func(t *testing.T) {
			se := BuildSharded(tk, docs, K, Config{})
			defer se.Close()
			if K > 1 && isHashPlacement(se.Routing(), K) {
				t.Fatal("multi-shard build kept the hash placement")
			}
			requireShardSummaries(t, se.le)
		})
	}
}

// isHashPlacement reports whether routing puts every id where shardOf
// does.
func isHashPlacement(routing []int32, K int) bool {
	for id, sh := range routing {
		if int(sh) != shardOf(collection.SetID(id), K) {
			return false
		}
	}
	return true
}

// requireShardSummaries fails unless every non-empty segment of le
// carries a summary over exactly its documents.
func requireShardSummaries(t *testing.T, le *LiveEngine) {
	t.Helper()
	for si, sh := range le.snap.Load().shards {
		for _, g := range sh.segs {
			if g.sum == nil || g.sum.Docs() != g.eng.c.NumSets() {
				t.Fatalf("shard %d: segment of %d docs has summary %v", si, g.eng.c.NumSets(), g.sum)
			}
		}
	}
}

// TestPrunedShardedPrunesClusteredCorpus pins the perf claim the
// partitioning exists for: on a topic-clustered corpus at K=8, selection
// queries drawn from the corpus skip at least half the shards on
// average, and top-k mid-flight pruning fires too.
func TestPrunedShardedPrunesClusteredCorpus(t *testing.T) {
	docs := clusteredDocs(8, 90, 303)
	tk := tokenize.WordTokenizer{}
	se := BuildSharded(tk, docs, 8, Config{})
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
	se := BuildSharded(tokenize.WordTokenizer{}, docs, 8, Config{})
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
// carry the hot token still prune shards. Their answers are the oracle's
// (TestQueryEquivalence, whose clustered family is this corpus shape).
func TestAdversarialSkewStillPrunes(t *testing.T) {
	docs := skewedDocs(8, 80, 909)
	se := BuildSharded(tokenize.WordTokenizer{}, docs, 8, Config{})
	defer se.Close()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		q := se.Prepare(docs[rng.Intn(len(docs))])
		for _, tau := range []float64{0.5, 0.7} {
			if _, _, err := se.Select(q, tau, SF, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := se.SelectTopK(q, 8, SF, nil); err != nil {
			t.Fatal(err)
		}
	}
	g := se.Metrics().Snapshot().Shard
	if g.Skipped == 0 || g.PruneRatio() <= 0 {
		t.Fatalf("adversarial skew defeated pruning entirely: %d/%d skipped",
			g.Skipped, g.BoundChecks)
	}
}

// TestPrunedLiveMatchesMonolithicLive drives an identical mutation
// stream through a monolithic and a routed sharded LiveEngine: the bulk
// build leaves at most one summarized segment per shard, every insert
// and delete has the same outcome on both, every segment a round builds
// carries a summary, and a full live compaction of the sharded one
// reproduces the static clustering — same docs, same order, same
// partition. Their answers are the oracle's (TestQueryEquivalence).
func TestPrunedLiveMatchesMonolithicLive(t *testing.T) {
	docs := clusteredDocs(6, 60, 404)
	tk := tokenize.WordTokenizer{}
	cfg := func(shards int) LiveConfig {
		return LiveConfig{NoBackground: true, FlushThreshold: 1 << 20, Shards: shards}
	}
	for _, K := range []int{4, 8} {
		t.Run(fmt.Sprintf("K=%d", K), func(t *testing.T) {
			mono := BuildLive(docs, tk, cfg(1))
			defer mono.Close()
			sh := BuildLive(docs, tk, cfg(K))
			defer sh.Close()
			if got := sh.Stats().Segments; got == 0 || got > K {
				t.Fatalf("sharded live has %d segments after build, want 1..%d", got, K)
			}
			requireShardSummaries(t, mono)
			requireShardSummaries(t, sh)

			rng := rand.New(rand.NewSource(77))
			extra := clusteredDocs(6, 15, 505)
			for i, s := range extra {
				idM, errM := mono.Insert(s)
				idS, errS := sh.Insert(s)
				if errM != errS || (errM == nil && idM != idS) {
					t.Fatalf("insert mismatch: (%d,%v) vs (%d,%v)", idM, errM, idS, errS)
				}
				if i%3 == 0 {
					victim := collection.SetID(rng.Intn(mono.NumDocs()))
					if mono.Delete(victim) != sh.Delete(victim) {
						t.Fatalf("delete(%d) outcome mismatch", victim)
					}
				}
			}
			if sh.Stats().Memtable == 0 {
				t.Fatal("mixed state not exercised: empty memtable")
			}
			if !mono.Compact() || !sh.Compact() {
				t.Fatal("compaction reported no work despite pending mutations")
			}
			requireShardSummaries(t, mono)
			requireShardSummaries(t, sh)
			// A full live compaction must reproduce the static clustering:
			// same docs, same order, same partition.
			static := BuildSharded(tk, currentDocs(mono), K, Config{})
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

package route

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/collection"
	"repro/internal/invlist"
	"repro/internal/sim"
	"repro/internal/tokenize"
)

// buildCorpus tokenizes docs into a plain collection (local stats — the
// summary machinery is agnostic to where df came from).
func buildCorpus(t *testing.T, docs []string) *collection.Collection {
	t.Helper()
	b := collection.NewBuilder(tokenize.WordTokenizer{}, true)
	for _, d := range docs {
		if !b.Add(d) {
			t.Fatalf("doc %q produced no tokens", d)
		}
	}
	return b.Build()
}

// tokenIDs extracts each set's distinct token ids from a collection.
func tokenIDs(c *collection.Collection) [][]tokenize.Token {
	out := make([][]tokenize.Token, c.NumSets())
	for i := range out {
		set := c.Set(collection.SetID(i))
		toks := make([]tokenize.Token, len(set))
		for j, cnt := range set {
			toks[j] = cnt.Token
		}
		out[i] = toks
	}
	return out
}

func idfTable(c *collection.Collection) []float64 {
	idf := make([]float64, c.NumTokens())
	for t := range idf {
		idf[t] = c.IDFWeight(tokenize.Token(t))
	}
	return idf
}

// topicDocs generates nPerTopic documents per topic with fully disjoint
// vocabularies, in topic-major order.
func topicDocs(topics, nPerTopic int) []string {
	rng := rand.New(rand.NewSource(7))
	var docs []string
	for tp := 0; tp < topics; tp++ {
		for i := 0; i < nPerTopic; i++ {
			doc := ""
			for w := 0; w < 5+rng.Intn(5); w++ {
				doc += fmt.Sprintf("t%dw%d ", tp, rng.Intn(40))
			}
			docs = append(docs, doc)
		}
	}
	return docs
}

func TestPartitionDeterministicAndBalanced(t *testing.T) {
	docs := topicDocs(5, 37)
	c := buildCorpus(t, docs)
	toks, idf := tokenIDs(c), idfTable(c)
	for _, k := range []int{1, 2, 4, 8, 16} {
		a := Partition(toks, idf, k)
		b := Partition(toks, idf, k)
		if len(a) != len(toks) {
			t.Fatalf("k=%d: %d assignments for %d docs", k, len(a), len(toks))
		}
		counts := make([]int, k)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("k=%d: assignment not deterministic at doc %d: %d vs %d", k, i, a[i], b[i])
			}
			if a[i] < 0 || int(a[i]) >= k {
				t.Fatalf("k=%d: doc %d assigned out of range: %d", k, i, a[i])
			}
			counts[a[i]]++
		}
		capPer := len(toks)/k + len(toks)/(4*k) + 1
		for j, n := range counts {
			if n > capPer {
				t.Fatalf("k=%d: shard %d holds %d docs, capacity %d", k, j, n, capPer)
			}
		}
	}
}

func TestPartitionClustersDisjointTopics(t *testing.T) {
	const topics, per = 4, 50
	docs := topicDocs(topics, per)
	c := buildCorpus(t, docs)
	assign := Partition(tokenIDs(c), idfTable(c), topics)
	// Disjoint vocabularies with one seed per topic block: every topic
	// must collapse into a single shard, and distinct topics into
	// distinct shards.
	shardOfTopic := make(map[int]int32)
	for i, sh := range assign {
		tp := i / per
		if prev, ok := shardOfTopic[tp]; ok && prev != sh {
			t.Fatalf("topic %d split across shards %d and %d (doc %d)", tp, prev, sh, i)
		}
		shardOfTopic[tp] = sh
	}
	seen := map[int32]bool{}
	for tp, sh := range shardOfTopic {
		if seen[sh] {
			t.Fatalf("two topics share shard %d (topic %d)", sh, tp)
		}
		seen[sh] = true
	}
}

func TestSummaryCapSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var docs []string
	for i := 0; i < 200; i++ {
		doc := ""
		for w := 0; w < 3+rng.Intn(12); w++ {
			doc += fmt.Sprintf("w%d ", rng.Intn(300))
		}
		docs = append(docs, doc)
	}
	// One skew token in ~90% of documents, to drive it into the hot set.
	for i := range docs {
		if i%10 != 0 {
			docs[i] += " everywhere"
		}
	}
	c := buildCorpus(t, docs)
	s := summarize(c)

	if s.Docs() != c.NumSets() {
		t.Fatalf("Docs() = %d, want %d", s.Docs(), c.NumSets())
	}
	lo, hi := s.LenRange()
	for i := 0; i < c.NumSets(); i++ {
		l := c.Length(collection.SetID(i))
		if l < lo || l > hi {
			t.Fatalf("doc %d length %g outside summarized range [%g, %g]", i, l, lo, hi)
		}
	}
	// The cap invariant CapFor depends on: for every document s and
	// every token t ∈ s, CapFor(t) ≥ idf(t)²/len(s), in exact float
	// comparison (the cap is computed from the same values, so no slack
	// is needed here).
	for i := 0; i < c.NumSets(); i++ {
		id := collection.SetID(i)
		l := c.Length(id)
		for _, cnt := range c.Set(id) {
			w := c.IDFWeight(cnt.Token)
			if got, want := s.CapFor(cnt.Token), w*w/l; got < want {
				t.Fatalf("doc %d token %d: CapFor %g < contribution cap %g", i, cnt.Token, got, want)
			}
		}
	}
	if s.HotTokens() == 0 {
		t.Fatalf("no hot tokens summarized despite a 90%%-df token")
	}
}

func TestSummaryHotTokenAbsentIsExactZero(t *testing.T) {
	// Fewer distinct tokens than hotMax: every token is hot, so every
	// absence answers an exact 0 (no sketch false positives possible).
	c := buildCorpus(t, []string{"alpha beta", "beta gamma", "gamma alpha"})
	s := summarize(c)
	if got := s.HotTokens(); got != 3 {
		t.Fatalf("HotTokens() = %d, want 3 (whole tiny vocabulary)", got)
	}
	// A shard-style collection missing a token entirely: rebuild over a
	// subset sharing the dictionary and global df.
	dict := tokenize.NewDict()
	full := collection.NewBuilderWithDict(dict, tokenize.WordTokenizer{}, true)
	full.Add("alpha beta")
	full.Add("beta gamma")
	fullC := full.Build()
	sub := collection.NewBuilderWithDict(dict, tokenize.WordTokenizer{}, true)
	sub.Add("alpha beta")
	subC := sub.BuildWithStats(2, func(tok string) int { return fullC.DF(mustLookup(dict, tok)) })
	ss := summarize(subC)
	gamma, _ := dict.Lookup("gamma")
	if got := ss.CapFor(gamma); got > 0 {
		t.Fatalf("CapFor(absent hot token) = %g, want exact 0", got)
	}
}

// summarize builds c's summary from the in-memory lists of c.
func summarize(c *collection.Collection) *Summary { return Summarize(c, invlist.BuildMem(c, 0)) }

func mustLookup(d *tokenize.Dict, s string) tokenize.Token {
	t, ok := d.Lookup(s)
	if !ok {
		return tokenize.Token(1 << 30)
	}
	return t
}

// partitionRef is Partition as it was while the centroids were
// map[Token]float64: the reference the dense rows must reproduce
// assignment for assignment.
func partitionRef(docs [][]tokenize.Token, idf []float64, k int) []int32 {
	n := len(docs)
	assign := make([]int32, n)
	if k <= 1 || n == 0 {
		return assign
	}
	sigs := make([][]tokenize.Token, n)
	for i, doc := range docs {
		sigs[i] = signature(doc, idf)
	}
	capPer := n/k + n/(4*k) + 1
	cents := make([]map[tokenize.Token]float64, k)
	for j := 0; j < k; j++ {
		c := make(map[tokenize.Token]float64, sigLen)
		for _, t := range sigs[j*n/k] {
			c[t] = idf[t]
		}
		cents[j] = c
	}
	counts := make([]int, k)
	for it := 0; it < iterations; it++ {
		for j := range counts {
			counts[j] = 0
		}
		moved := 0
		for i, sig := range sigs {
			best, bestDot := -1, 0.0
			for j := 0; j < k; j++ {
				if counts[j] >= capPer {
					continue
				}
				var dot float64
				for _, t := range sig {
					dot += idf[t] * cents[j][t]
				}
				if best < 0 || dot > bestDot {
					best, bestDot = j, dot
				}
			}
			if best < 0 || bestDot <= 0 {
				best = leastLoaded(counts, capPer)
			}
			if assign[i] != int32(best) {
				assign[i] = int32(best)
				moved++
			}
			counts[best]++
		}
		if moved == 0 || it == iterations-1 {
			break
		}
		rebuildRef(cents, sigs, assign, counts, idf)
	}
	return assign
}

func rebuildRef(cents []map[tokenize.Token]float64, sigs [][]tokenize.Token, assign []int32, counts []int, idf []float64) {
	for j := range cents {
		cents[j] = make(map[tokenize.Token]float64)
	}
	for i, sig := range sigs {
		c := cents[assign[i]]
		for _, t := range sig {
			c[t] += idf[t]
		}
	}
	for j := range cents {
		if counts[j] == 0 {
			continue
		}
		inv := 1 / float64(counts[j])
		for t := range cents[j] {
			cents[j][t] *= inv
		}
	}
}

// TestPartitionMatchesMapReference runs the dense clusterer against the
// map-backed one over corpora that exercise what could diverge: centroid
// supports from a handful of tokens to thousands, skewed vocabularies
// where many dots tie, documents sharing no token with any centroid, more
// clusters than topics, and k that does not divide n.
func TestPartitionMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, shape := range []struct{ n, vocab, docLen int }{
		{1, 10, 3}, {9, 12, 4}, {300, 40, 6}, {1500, 400, 12}, {2500, 6000, 10}, {4000, 900, 5},
	} {
		zipf := rand.NewZipf(rng, 1.3, 4, uint64(shape.vocab-1))
		df := make([]int, shape.vocab)
		docs := make([][]tokenize.Token, shape.n)
		for i := range docs {
			seen := map[tokenize.Token]bool{}
			for w := 0; w < 1+rng.Intn(shape.docLen); w++ {
				tok := tokenize.Token(zipf.Uint64())
				if rng.Intn(3) == 0 {
					tok = tokenize.Token(rng.Intn(shape.vocab)) // a uniform tail beside the Zipf head
				}
				if !seen[tok] {
					seen[tok] = true
					docs[i] = append(docs[i], tok)
					df[tok]++
				}
			}
			sort.Slice(docs[i], func(a, b int) bool { return docs[i][a] < docs[i][b] })
		}
		idf := make([]float64, shape.vocab)
		for tok, d := range df {
			idf[tok] = math.Log2(1 + float64(shape.n)/math.Max(float64(d), 0.5))
		}
		for _, k := range []int{1, 2, 3, 8, 16} {
			got, want := Partition(docs, idf, k), partitionRef(docs, idf, k)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d vocab=%d k=%d: doc %d assigned to %d, reference %d", shape.n, shape.vocab, k, i, got[i], want[i])
				}
			}
		}
	}
}

// topicCorpus is the benchmark's clustered shape as token ids: 64 topics
// with disjoint 60-word vocabularies (topic tp owns ids 60·tp … 60·tp+59),
// document i drawing 6 words with replacement from topic i mod 64. It
// returns each document's distinct ids, ascending, and the corpus idf.
func topicCorpus(n int, seed int64) ([][]tokenize.Token, []float64) {
	const topics, vocab, draws = 64, 60, 6
	rng := rand.New(rand.NewSource(seed))
	docs := make([][]tokenize.Token, n)
	df := make([]int, topics*vocab)
	flat := make([]tokenize.Token, 0, n*draws)
	for i := range docs {
		start, base := len(flat), (i%topics)*vocab
		for d := 0; d < draws; d++ {
			flat = append(flat, tokenize.Token(base+rng.Intn(vocab)))
		}
		slices.Sort(flat[start:])
		doc := slices.Compact(flat[start:])
		flat = flat[:start+len(doc)]
		docs[i] = doc[:len(doc):len(doc)]
		for _, t := range doc {
			df[t]++
		}
	}
	idf := make([]float64, len(df))
	for t, d := range df {
		idf[t] = sim.IDF(d, n)
	}
	return docs, idf
}

// TestPartitionKeepsTopicsWhole pins the purity the routed top-k relies
// on: a topic whose documents land on two shards makes every query of
// that topic visit both. On the benchmark's clustered shape at k = 8,
// no topic may split at 200 000 documents, and at smaller sizes the
// topics average at most 1.10 shards each. Centroids cut to their 128
// strongest tokens split 21–64 of the 64 topics here.
func TestPartitionKeepsTopicsWhole(t *testing.T) {
	const topics, k = 64, 8
	for _, n := range []int{3200, 12800, 50000, 100000, 200000} {
		for seed := int64(1); seed <= 3; seed++ {
			docs, idf := topicCorpus(n, seed)
			assign := Partition(docs, idf, k)
			var shardsOf [topics]uint64
			for i, sh := range assign {
				shardsOf[i%topics] |= 1 << sh
			}
			split, spread := 0, 0
			for _, m := range shardsOf {
				c := bits.OnesCount64(m)
				spread += c
				if c > 1 {
					split++
				}
			}
			perTopic := float64(spread) / topics
			t.Logf("n=%d seed=%d: %d split topics, %.3f shards per topic", n, seed, split, perTopic)
			if n == 200000 && split > 0 {
				t.Errorf("n=%d seed=%d: %d of %d topics split across shards", n, seed, split, topics)
			}
			if perTopic > 1.10 {
				t.Errorf("n=%d seed=%d: %.3f shards per topic, want <= 1.10", n, seed, perTopic)
			}
		}
	}
}

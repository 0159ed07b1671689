package collection_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/tokenize"
)

// layoutCorpus is a random corpus over a small vocabulary whose fixed
// head forces a term frequency above 1 onto every arena position the
// side table has to get right: a set's first entry, its last, an entry
// in each of two consecutive sets, and the only entry of a one-token
// set. Under the word tokenizer the first document interns the
// vocabulary in order, so a token's id is its rank there; under q-grams
// the repeats come from repeated syllables, and vocab[1] is a run of one
// letter, which is a one-gram set.
func layoutCorpus(rng *rand.Rand, vocab []string, n int) []string {
	v := func(i int) string { return vocab[i] }
	docs := []string{
		strings.Join(vocab, " "),
		v(0) + " " + v(0) + " " + v(4) + " " + v(7), // first entry
		v(2) + " " + v(5) + " " + v(9) + " " + v(9), // last entry
		v(3) + " " + v(6) + " " + v(6) + " " + v(8), // consecutive sets…
		v(1) + " " + v(1) + " " + v(5) + " " + v(5), // …, both entries
		v(4) + " " + v(4) + " " + v(4),              // one token
		v(8),                                        // one token, TF 1
		v(1),                                        // one gram, TF > 1
		v(9) + " " + v(1) + " " + v(9) + " " + v(1) + " " + v(9), // out of id order
	}
	for len(docs) < n {
		k := 1 + rng.Intn(8)
		parts := make([]string, k)
		for i := range parts {
			parts[i] = vocab[rng.Intn(len(vocab))]
			if rng.Intn(4) == 0 && i > 0 {
				parts[i] = parts[rng.Intn(i)] // a repeat
			}
		}
		docs = append(docs, strings.Join(parts, " "))
	}
	return docs
}

// layoutCases are the corpora TestFlatLayoutMatchesVectors runs under:
// whole words, and q-grams whose repeats come from repeated syllables.
func layoutCases(rng *rand.Rand) []struct {
	tk   tokenize.Tokenizer
	docs []string
} {
	words := []string{"ab", "cd", "ef", "gh", "ij", "kl", "mn", "op", "qr", "st"}
	grams := []string{"aa", "aaaaa", "abab", "bcbc", "cab", "abcab", "dd", "dede", "ee", "fefe"}
	return []struct {
		tk   tokenize.Tokenizer
		docs []string
	}{
		{tokenize.WordTokenizer{}, layoutCorpus(rng, words, 400)},
		{tokenize.QGramTokenizer{Q: 2}, layoutCorpus(rng, grams, 400)},
		{tokenize.QGramTokenizer{Q: 3}, layoutCorpus(rng, grams, 400)},
	}
}

// TestFlatLayoutMatchesVectors holds the flat set arena to the vectors
// it replaces: for every set, Set rebuilds exactly what the tokenizer's
// append form produces for its source and hands the caller a copy,
// Tokens is Set's tokens with no spare capacity, and a sharded build
// round's collections agree set by set (and length by length) with one
// monolithic Builder.
func TestFlatLayoutMatchesVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, tc := range layoutCases(rng) {
		t.Run(tc.tk.Name(), func(t *testing.T) {
			b := collection.NewBuilder(tc.tk, true)
			for _, s := range tc.docs {
				if !b.Add(s) {
					t.Fatalf("document %q yields no tokens", s)
				}
			}
			c := b.Build()
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}

			var vec []tokenize.Count
			var sc tokenize.Scratch
			var repeats []int // per set: how many entries have TF > 1
			where := map[string]bool{}
			for id := range c.NumSets() {
				sid := collection.SetID(id)
				vec = tokenize.Counts(vec[:0], c.Dict(), tc.tk, c.Source(sid), &sc)
				set := c.Set(sid)
				if !slices.Equal(set, vec) {
					t.Fatalf("set %d: Set = %v, want %v", id, set, vec)
				}
				toks := c.Tokens(sid)
				if len(toks) != len(set) || cap(toks) != len(toks) {
					t.Fatalf("set %d: Tokens has len %d cap %d for %d entries", id, len(toks), cap(toks), len(set))
				}
				n := 0
				for i, cnt := range set {
					if toks[i] != cnt.Token {
						t.Fatalf("set %d: Tokens = %v, Set = %v", id, toks, set)
					}
					if cnt.TF > 1 {
						n++
						where["first"] = where["first"] || i == 0 && len(set) > 1
						where["last"] = where["last"] || i == len(set)-1 && len(set) > 1
						where["one-token"] = where["one-token"] || len(set) == 1
					}
				}
				if n > 0 && id > 0 && repeats[id-1] > 0 {
					where["consecutive"] = true
				}
				repeats = append(repeats, n)

				set[0].TF += 7
				set[len(set)-1].Token++
				if again := c.Set(sid); !slices.Equal(again, vec) {
					t.Fatalf("set %d: writing into Set's result changed the collection: %v, want %v", id, again, vec)
				}
			}
			for _, w := range []string{"first", "last", "consecutive", "one-token"} {
				if !where[w] {
					t.Errorf("corpus puts no TF > 1 on a %s entry", w)
				}
			}

			for _, shards := range []int{1, 3} {
				se := core.BuildSharded(tc.tk, tc.docs, shards, core.Config{})
				local := make([]collection.SetID, shards)
				for gid, sh := range se.Routing() {
					sub := se.Shard(int(sh)).Collection()
					lid := local[sh]
					local[sh]++
					label := fmt.Sprintf("%d shards: document %d (shard %d set %d)", shards, gid, sh, lid)
					if got, want := sub.Set(lid), c.Set(collection.SetID(gid)); !slices.Equal(got, want) {
						t.Fatalf("%s: Set = %v, monolithic %v", label, got, want)
					}
					if got, want := sub.Length(lid), c.Length(collection.SetID(gid)); got != want {
						t.Fatalf("%s: length %v, monolithic %v", label, got, want)
					}
				}
				for sh := range se.NumShards() {
					sub := se.Shard(sh).Collection()
					if int(local[sh]) != sub.NumSets() {
						t.Fatalf("%d shards: shard %d holds %d sets, routing names %d", shards, sh, sub.NumSets(), local[sh])
					}
					if err := sub.Validate(); err != nil {
						t.Fatalf("%d shards: shard %d: %v", shards, sh, err)
					}
				}
				se.Close()
			}
		})
	}
}

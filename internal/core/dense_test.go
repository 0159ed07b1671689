package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/invlist"
	"repro/internal/tokenize"
)

// denseDocs generates n documents whose letters are skewed toward the
// start of a 12-letter alphabet: the grams of the common letters fill
// lists far past n/64 postings, and the rare letters' grams keep queries
// selective, so SF reaches completion on dense lists.
func denseDocs(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	docs := make([]string, n)
	for i := range docs {
		b := make([]byte, 4+rng.Intn(12))
		for j := range b {
			b[j] = 'a' + byte(min(int(rng.ExpFloat64()*2), 11))
		}
		docs[i] = string(b)
	}
	return docs
}

// byScore orders results as a top-k answer: score descending, then id.
func byScore(rs []Result) []Result {
	out := append([]Result(nil), rs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// denseTarget is one engine shape of the dense-completion sweep, queried
// by document text.
type denseTarget struct {
	name string
	sel  func(s string, tau float64, alg Algorithm, o *Options) ([]Result, Stats, error)
	topk func(s string, k int, alg Algorithm, o *Options) ([]Result, Stats, error)
}

// TestDenseCompletionMatchesNaive is the differential test of dense-list
// completion — SF's past µᵢ, iNRA's and Hybrid's when the admission gate
// shuts: over a seed sweep of corpora with lists past n/64 postings,
// every algorithm at τ ∈ {0.5, 0.8, 0.95}, SF, iNRA and Hybrid again
// without the skip index, and Naive and SF top-k at k ∈ {1, 10} with and
// without it, return Naive's answer bitwise in (score desc, id asc) order
// — SQL, which sums its stored partial weights, within ScoreEpsilon — on
// a monolithic engine, a sharded one and a live engine holding segments,
// a memtable and tombstones. SF, iNRA and Hybrid must each have completed
// by bit tests (RandomProbes > 0) on every shape, and never when
// NoSkipIndex reads their lists instead.
func TestDenseCompletionMatchesNaive(t *testing.T) {
	tk := tokenize.QGramTokenizer{Q: 3}
	nsl := &Options{NoSkipIndex: true}
	for seed := int64(1); seed <= 3; seed++ {
		docs := denseDocs(1500, 8300+seed)

		mono := engineFromDocs(docs, Config{})
		se := BuildSharded(tk, docs, false, 3, Config{})
		defer se.Close()
		// FlushThreshold is the size below which a partial compaction
		// folds a segment again: 16 keeps every flushed segment apart.
		le := NewLive(tk, LiveConfig{NoBackground: true, FlushThreshold: 16, MaxSegments: 1 << 20, DriftBound: 1e9})
		defer le.Close()
		for i, s := range docs {
			id, err := le.Insert(s)
			if err != nil {
				t.Fatal(err)
			}
			if i%7 == 3 {
				le.Delete(id)
			}
			if i == 499 || i == 999 || i == 1299 {
				le.compactOnce(false)
			}
		}
		if st := le.Stats(); st.Segments < 3 || st.Memtable == 0 || st.Tombstones == 0 {
			t.Fatalf("seed %d: live scenario not established: %+v", seed, st)
		}

		targets := []denseTarget{
			{"monolithic",
				func(s string, tau float64, alg Algorithm, o *Options) ([]Result, Stats, error) {
					return mono.Select(mono.Prepare(s), tau, alg, o)
				},
				func(s string, k int, alg Algorithm, o *Options) ([]Result, Stats, error) {
					return mono.SelectTopK(mono.Prepare(s), k, alg, o)
				}},
			{"sharded",
				func(s string, tau float64, alg Algorithm, o *Options) ([]Result, Stats, error) {
					return se.Select(se.Prepare(s), tau, alg, o)
				},
				func(s string, k int, alg Algorithm, o *Options) ([]Result, Stats, error) {
					return se.SelectTopK(se.Prepare(s), k, alg, o)
				}},
			{"live",
				func(s string, tau float64, alg Algorithm, o *Options) ([]Result, Stats, error) {
					return le.Select(le.Prepare(s), tau, alg, o)
				},
				func(s string, k int, alg Algorithm, o *Options) ([]Result, Stats, error) {
					return le.SelectTopK(le.Prepare(s), k, alg, o)
				}},
		}
		rng := rand.New(rand.NewSource(seed))
		queries := make([]string, 12)
		for i := range queries {
			queries[i] = docs[rng.Intn(len(docs))]
		}
		for _, tg := range targets {
			probes := map[Algorithm]int{}
			for _, s := range queries {
				for _, tau := range []float64{0.5, 0.8, 0.95} {
					want, _, err := tg.sel(s, tau, Naive, nil)
					if err != nil {
						t.Fatal(err)
					}
					want = byScore(want)
					for _, alg := range Algorithms() {
						got, st, err := tg.sel(s, tau, alg, nil)
						if err != nil {
							t.Fatalf("%s %v: %v", tg.name, alg, err)
						}
						assertSameResults(t, alg, tau, byScore(got), want)
						probes[alg] += st.RandomProbes
					}
					for _, alg := range []Algorithm{SF, INRA, Hybrid} {
						got, st, err := tg.sel(s, tau, alg, nsl)
						if err != nil {
							t.Fatal(err)
						}
						assertBitwise(t, fmt.Sprintf("%s %v NoSkipIndex τ=%g", tg.name, alg, tau), byScore(got), want)
						if st.RandomProbes != 0 {
							t.Errorf("%s %v NoSkipIndex τ=%g: %d random probes, want 0", tg.name, alg, tau, st.RandomProbes)
						}
					}
				}
				all, _, err := tg.sel(s, 1e-9, Naive, nil)
				if err != nil {
					t.Fatal(err)
				}
				all = byScore(all)
				for _, k := range []int{1, 10} {
					want := all[:min(k, len(all))]
					for _, o := range []*Options{nil, nsl} {
						for _, alg := range []Algorithm{Naive, SF} {
							got, st, err := tg.topk(s, k, alg, o)
							if err != nil {
								t.Fatal(err)
							}
							assertBitwise(t, fmt.Sprintf("%s top-%d %v %+v", tg.name, k, alg, o), got, want)
							switch {
							case alg == SF && o == nil:
								probes[SF] += st.RandomProbes
							case alg == SF && st.RandomProbes != 0:
								t.Errorf("%s top-%d SF NoSkipIndex: %d random probes, want 0", tg.name, k, st.RandomProbes)
							}
						}
					}
				}
			}
			for _, alg := range []Algorithm{SF, INRA, Hybrid} {
				if probes[alg] == 0 {
					t.Errorf("seed %d %s: %v completed no candidate by a bit test", seed, tg.name, alg)
				}
			}
		}
	}
}

// TestDenseListResidency pins what the lists of an engine cost: 12 bytes
// a posting (a 4-byte id beside its 8-byte length) plus 4 bytes a token
// for each of the two offset tables, and ⌈n/64⌉ words for the bitmap of
// each list with at least max(64, n/64) of the n sets — holding exactly
// that list's ids. An engine over a list file builds the same bitmaps.
func TestDenseListResidency(t *testing.T) {
	docs := denseDocs(3000, 8401)
	e := engineFromDocs(docs, Config{})
	n, tokens := e.c.NumSets(), e.c.NumTokens()
	minLen := max(64, n/64)
	var postings, bitmaps int64
	dense := 0
	for tk := range tokens {
		ln := e.store.ListLen(tokenize.Token(tk))
		postings += int64(ln)
		b := e.dense.of(tokenize.Token(tk))
		if ln < minLen {
			if b != nil {
				t.Fatalf("token %d: %d postings, below %d, has a bitmap", tk, ln, minLen)
			}
			continue
		}
		dense++
		bitmaps += int64((n+63)/64) * 8
		ones := 0
		for _, w := range b {
			ones += bits.OnesCount64(w)
		}
		cur := e.store.WeightCursor(tokenize.Token(tk))
		for ; cur.Valid(); cur.Next() {
			if !has(b, cur.Posting().ID) {
				t.Fatalf("token %d: bitmap misses set %d", tk, cur.Posting().ID)
			}
		}
		if ones != ln {
			t.Fatalf("token %d: bitmap holds %d sets, list %d", tk, ones, ln)
		}
	}
	if dense == 0 || dense == tokens {
		t.Fatalf("%d of %d lists dense: the corpus does not exercise the threshold", dense, tokens)
	}
	z := e.Sizes()
	if want := 12*postings + 8*int64(tokens+1); z.WeightLists != want {
		t.Errorf("WeightLists = %d bytes, want 12 × %d postings + 8 × %d offsets = %d", z.WeightLists, postings, tokens+1, want)
	}
	if z.Bitmaps != bitmaps {
		t.Errorf("Bitmaps = %d bytes, want %d for %d dense lists of %d sets", z.Bitmaps, bitmaps, dense, n)
	}
	if z.Total() != z.WeightLists+z.SkipIndexes+z.Bitmaps {
		t.Errorf("Total %d is not the sum of %+v", z.Total(), z)
	}

	path := t.TempDir() + "/lists"
	if err := invlist.WriteFile(path, e.c, 0); err != nil {
		t.Fatal(err)
	}
	fs, err := invlist.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	fe := NewEngine(e.c, Config{Store: fs})
	if got := fe.Sizes(); got != z {
		t.Errorf("file-backed engine sizes %+v, want the in-memory engine's %+v", got, z)
	}
	if !slices.Equal(fe.dense.tokens, e.dense.tokens) || !slices.Equal(fe.dense.bits, e.dense.bits) {
		t.Error("file-backed engine's bitmaps differ from the in-memory engine's")
	}
}

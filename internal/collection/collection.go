// Package collection holds the set database D: every input string
// decomposed into a token-frequency vector, plus the corpus statistics
// (document frequencies, idf weights, normalized lengths) that the
// similarity measures and query algorithms consume.
package collection

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/sim"
	"repro/internal/tokenize"
)

// SetID identifies a set within a Collection. The paper associates each
// word with a unique 8-byte identifier encoding its location in the data
// table; we use a dense 64-bit id and keep the source string retrievable.
type SetID uint64

// Collection is an immutable database of token sets built by a Builder.
type Collection struct {
	dict      *tokenize.Dict
	tk        tokenize.Tokenizer
	sets      [][]tokenize.Count // per set, sorted by token
	source    []string           // original strings (may be empty if not retained)
	df        []int              // per token document frequency
	idf       []float64          // per token idf weight
	lens      []float64          // per set normalized length (IDF semantics)
	avgTokens float64
	// statsN, when nonzero, is the externally supplied database size the
	// idf weights were computed against (BuildWithStats): the collection
	// is one segment of a larger logical corpus, and df holds the global
	// document frequencies rather than local recounts. NumSets always
	// reports the local set count.
	statsN int
}

// Builder accumulates strings and produces a Collection. Builders are not
// safe for concurrent use.
type Builder struct {
	dict       *tokenize.Dict
	tk         tokenize.Tokenizer
	sets       [][]tokenize.Count
	source     []string
	keepSource bool
	scratch    []string
	tokenCount int
}

// NewBuilder returns a Builder that decomposes strings with tk.
// If keepSource is true the original strings are retained and retrievable
// through Collection.Source.
func NewBuilder(tk tokenize.Tokenizer, keepSource bool) *Builder {
	return &Builder{dict: tokenize.NewDict(), tk: tk, keepSource: keepSource}
}

// NewBuilderWithDict returns a Builder interning tokens into a shared,
// pre-populated dictionary instead of a private one. Sharded builds use
// it so every partition assigns the same token ids: a query prepared
// against any shard then carries identical token ids and weights, which
// is what makes per-shard scores bitwise-equal to a monolithic build.
// The dict must not be mutated concurrently with Add.
func NewBuilderWithDict(dict *tokenize.Dict, tk tokenize.Tokenizer, keepSource bool) *Builder {
	return &Builder{dict: dict, tk: tk, keepSource: keepSource}
}

// Add tokenizes s and appends it as the next set. Strings that produce no
// tokens are skipped (the paper's measure is undefined on empty sets) and
// Add reports false for them.
func (b *Builder) Add(s string) bool {
	return b.AddCounts(s, tokenize.Counts(b.dict, b.tk, s, &b.scratch))
}

// AddCounts is Add for a string already decomposed: counts must be what
// tokenize.Counts returns for s under the builder's dictionary and
// tokenizer. A build that tokenized its corpus once — to intern, count
// frequencies and route — hands every shard's builder the same vectors
// instead of tokenizing again. The builder keeps counts; the caller must
// not modify it afterwards.
func (b *Builder) AddCounts(s string, counts []tokenize.Count) bool {
	if len(counts) == 0 {
		return false
	}
	for _, c := range counts {
		b.tokenCount += int(c.TF)
	}
	b.sets = append(b.sets, counts)
	if b.keepSource {
		b.source = append(b.source, s)
	}
	return true
}

// Len reports the number of sets added so far.
func (b *Builder) Len() int { return len(b.sets) }

// Build freezes the builder into a Collection, computing document
// frequencies, idf weights and normalized lengths. The builder must not
// be used afterwards.
func (b *Builder) Build() *Collection {
	return b.build(0, nil)
}

// BuildWithStats freezes the builder like Build, but derives the idf
// weights and normalized lengths from externally supplied corpus
// statistics: statsN is the effective database size and df yields the
// document frequency of a token (by its string form). Segment builds of
// a live engine use it to bake global statistics into a partial
// collection, so every per-segment score is computed against the same N
// and N(t) the whole corpus would use. A token the callback has never
// seen (df ≤ 0) receives the same smoothing as an unseen query token.
func (b *Builder) BuildWithStats(statsN int, df func(token string) int) *Collection {
	if statsN < 1 {
		statsN = 1
	}
	return b.build(statsN, df)
}

func (b *Builder) build(statsN int, dfFn func(token string) int) *Collection {
	c := &Collection{
		dict:   b.dict,
		tk:     b.tk,
		sets:   b.sets,
		source: b.source,
		df:     make([]int, b.dict.Len()),
		statsN: statsN,
	}
	if dfFn != nil {
		for t := range c.df {
			c.df[t] = dfFn(c.dict.String(tokenize.Token(t)))
		}
	} else {
		for _, set := range c.sets {
			for _, cnt := range set {
				c.df[cnt.Token]++ // one per containing set: counts are deduped
			}
		}
	}
	n := c.StatsN()
	c.idf = make([]float64, len(c.df))
	for t, df := range c.df {
		c.idf[t] = sim.IDF(df, n)
	}
	c.lens = make([]float64, len(c.sets))
	for i, set := range c.sets {
		var sum float64
		for _, cnt := range set {
			w := c.idf[cnt.Token]
			sum += w * w
		}
		c.lens[i] = sqrt(sum)
	}
	if len(c.sets) > 0 {
		c.avgTokens = float64(b.tokenCount) / float64(len(c.sets))
	}
	b.sets, b.source, b.dict = nil, nil, nil
	return c
}

// NumSets implements sim.Stats.
func (c *Collection) NumSets() int { return len(c.sets) }

// StatsN is the database size the idf weights were computed against: the
// externally supplied size for BuildWithStats collections, NumSets
// otherwise. Query preparation must use it — not NumSets — so segment
// queries weight unknown and known tokens against the same corpus the
// stored lengths were baked from.
func (c *Collection) StatsN() int {
	if c.statsN > 0 {
		return c.statsN
	}
	return len(c.sets)
}

// DF implements sim.Stats.
func (c *Collection) DF(t tokenize.Token) int {
	if int(t) >= len(c.df) {
		return 0
	}
	return c.df[t]
}

// AvgTokens implements sim.Stats.
func (c *Collection) AvgTokens() float64 { return c.avgTokens }

// IDFWeight returns the idf weight of token t (0 if unknown to the corpus
// — callers that need unseen-token smoothing use sim.IDF directly).
func (c *Collection) IDFWeight(t tokenize.Token) float64 {
	if int(t) >= len(c.idf) {
		return 0
	}
	return c.idf[t]
}

// Length returns the normalized length of set id.
func (c *Collection) Length(id SetID) float64 { return c.lens[id] }

// Set returns the token-frequency vector of set id, sorted by token.
// The returned slice must not be modified.
func (c *Collection) Set(id SetID) []tokenize.Count { return c.sets[id] }

// Source returns the original string of set id. It panics if the
// collection was built without keepSource.
func (c *Collection) Source(id SetID) string {
	if c.source == nil {
		panic("collection: built without keepSource")
	}
	return c.source[id]
}

// HasSource reports whether original strings were retained.
func (c *Collection) HasSource() bool { return c.source != nil }

// Dict exposes the token dictionary (for query-side tokenization).
func (c *Collection) Dict() *tokenize.Dict { return c.dict }

// Tokenizer returns the tokenizer the collection was built with.
func (c *Collection) Tokenizer() tokenize.Tokenizer { return c.tk }

// NumTokens reports the number of distinct tokens in the corpus.
func (c *Collection) NumTokens() int { return len(c.df) }

// TokenOffsets returns the bucket layout every per-token pass shares:
// token t's entries occupy [off[t], off[t+1]) of a flat array holding
// off[NumTokens()] entries, one per (set, token) occurrence. The counts
// are recomputed from the sets rather than taken from df, which holds
// global frequencies in BuildWithStats collections.
func (c *Collection) TokenOffsets() []uint32 {
	off := make([]uint32, len(c.df)+1)
	total := 0
	for _, set := range c.sets {
		total += len(set)
		for _, cnt := range set {
			off[cnt.Token+1]++
		}
	}
	if total > math.MaxUint32 {
		panic("collection: more than 2^32 postings in one collection")
	}
	for t := 1; t < len(off); t++ {
		off[t] += off[t-1]
	}
	return off
}

// FillBuckets runs the bucket fill over the TokenOffsets layout off: it
// visits the sets in the given order (nil: ascending id) and, for every
// token of a set, calls put with the next free slot of that token's
// bucket. Each bucket therefore receives its set ids in visiting order,
// which is how the index builders obtain sorted lists without sorting
// them.
func (c *Collection) FillBuckets(off []uint32, order []SetID, put func(slot uint32, id SetID)) {
	next := make([]uint32, len(c.df))
	copy(next, off)
	visit := func(id SetID) {
		for _, cnt := range c.sets[id] {
			put(next[cnt.Token], id)
			next[cnt.Token]++
		}
	}
	if order == nil {
		for id := range c.sets {
			visit(SetID(id))
		}
		return
	}
	for _, id := range order {
		visit(id)
	}
}

// SetsByLength returns every set id ordered by (Length, id) ascending:
// the visiting order under which FillBuckets yields length-sorted lists.
func (c *Collection) SetsByLength() []SetID {
	order := make([]SetID, len(c.sets))
	for i := range order {
		order[i] = SetID(i)
	}
	slices.SortFunc(order, func(a, b SetID) int {
		if la, lb := c.lens[a], c.lens[b]; la < lb {
			return -1
		} else if la > lb {
			return 1
		}
		return cmp.Compare(a, b)
	})
	return order
}

// TokenSets enumerates, for every token, the ids of the sets containing it
// in ascending id order, invoking fn(token, ids). The ids slices alias one
// flat array that does not outlive the call.
func (c *Collection) TokenSets(fn func(t tokenize.Token, ids []SetID)) {
	off := c.TokenOffsets()
	flat := make([]SetID, off[len(c.df)])
	c.FillBuckets(off, nil, func(slot uint32, id SetID) { flat[slot] = id })
	for t := range c.df {
		fn(tokenize.Token(t), flat[off[t]:off[t+1]])
	}
}

// Validate performs internal consistency checks, returning a descriptive
// error on the first violation. It has no caller outside tests: it is
// the oracle the build, round-trip and fuzz tests hold a collection to.
func (c *Collection) Validate() error {
	for id, set := range c.sets {
		for i := 1; i < len(set); i++ {
			if set[i-1].Token >= set[i].Token {
				return fmt.Errorf("collection: set %d tokens not strictly sorted", id)
			}
		}
		if len(set) == 0 {
			return fmt.Errorf("collection: set %d is empty", id)
		}
		if c.lens[id] <= 0 {
			return fmt.Errorf("collection: set %d has non-positive length %g", id, c.lens[id])
		}
	}
	// BuildWithStats collections store global frequencies, so a local
	// recount cannot be compared against them.
	if c.statsN == 0 {
		df := make([]int, len(c.df))
		for _, set := range c.sets {
			for _, cnt := range set {
				df[cnt.Token]++
			}
		}
		for t := range df {
			if df[t] != c.df[t] {
				return fmt.Errorf("collection: token %d df mismatch: stored %d, actual %d", t, c.df[t], df[t])
			}
		}
	}
	return nil
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

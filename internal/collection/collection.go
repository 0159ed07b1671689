// Package collection holds the set database D: every input string
// decomposed into its distinct tokens, plus the corpus statistics
// (document frequencies, idf weights, normalized lengths) that the
// similarity measures and query algorithms consume.
//
// The sets live in one flat arena, compressed-sparse-row style: every
// set's distinct token ids, ascending and back to back, with an offset
// per set. The paper's measure (Eq. 1) has no tf component, so the
// engine only ever asks which tokens a set holds, and Tokens answers
// with a slice of the arena. Term frequencies — read by the TF/IDF and
// BM25 measures of Table I — are 1 for almost every entry; the few that
// exceed 1 sit in a side table keyed by arena position, and Set rebuilds
// a set's token-frequency vector from both.
package collection

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/sim"
	"repro/internal/tokenize"
)

// ErrBadCollection reports structurally invalid stored corpus data — a
// snapshot, package or stored round no writer could have produced —
// wrapped by every loader that refuses it.
var ErrBadCollection = errors.New("collection: corrupt collection data")

// SetID identifies a set within a Collection. The paper associates each
// word with a unique 8-byte identifier encoding its location in the data
// table; we use a dense 64-bit id and keep the source string retrievable.
type SetID uint64

// tfEntry is one side-table entry: the term frequency of the arena entry
// at pos, which exceeds 1.
type tfEntry struct {
	pos, tf uint32
}

// Collection is an immutable database of token sets built by a Builder.
type Collection struct {
	dict      *tokenize.Dict
	tk        tokenize.Tokenizer
	toks      []tokenize.Token // every set's distinct tokens, ascending within a set, sets back to back
	off       []uint32         // set i is toks[off[i]:off[i+1]]; len(off) = NumSets()+1
	tfs       []tfEntry        // the entries whose TF exceeds 1, ascending by pos
	source    []string         // original strings (may be empty if not retained)
	df        []int            // per token document frequency
	idf       []float64        // per token idf weight
	lens      []float64        // per set normalized length (IDF semantics)
	avgTokens float64
	// statsN, when nonzero, is the externally supplied database size the
	// idf weights were computed against (BuildWithStats): the collection
	// is one segment of a larger logical corpus, and df holds the global
	// document frequencies rather than local recounts. NumSets always
	// reports the local set count.
	statsN int
}

// Builder accumulates strings and produces a Collection. It appends
// each set straight into the arena the Collection keeps, so a warm
// builder adding a string whose tokens are all interned allocates
// nothing but its arrays' amortized growth. Builders are not safe for
// concurrent use.
type Builder struct {
	dict       *tokenize.Dict
	tk         tokenize.Tokenizer
	toks       []tokenize.Token
	off        []uint32
	tfs        []tfEntry
	source     []string
	keepSource bool
	vec        []tokenize.Count // Add's vector, reused
	scratch    tokenize.Scratch
	tokenCount int
}

// NewBuilder returns a Builder that decomposes strings with tk.
// If keepSource is true the original strings are retained and retrievable
// through Collection.Source.
func NewBuilder(tk tokenize.Tokenizer, keepSource bool) *Builder {
	return NewBuilderWithDict(tokenize.NewDict(), tk, keepSource)
}

// NewBuilderWithDict returns a Builder interning tokens into a shared,
// pre-populated dictionary instead of a private one. Sharded builds use
// it so every partition assigns the same token ids: a query prepared
// against any shard then carries identical token ids and weights, which
// is what makes per-shard scores bitwise-equal to a monolithic build.
// The dict must not be mutated concurrently with Add.
func NewBuilderWithDict(dict *tokenize.Dict, tk tokenize.Tokenizer, keepSource bool) *Builder {
	return &Builder{dict: dict, tk: tk, keepSource: keepSource, off: []uint32{0}}
}

// Grow makes room for sets more sets holding entries more distinct
// tokens between them, allocating exactly that much: a caller that
// knows its totals up front then adds them without regrowing the arena,
// and Build keeps the arrays as they are.
func (b *Builder) Grow(sets, entries int) {
	b.toks = grow(b.toks, entries)
	b.off = grow(b.off, sets)
	if b.keepSource {
		b.source = grow(b.source, sets)
	}
}

// Add tokenizes s and appends it as the next set. Strings that produce no
// tokens are skipped (the paper's measure is undefined on empty sets) and
// Add reports false for them.
func (b *Builder) Add(s string) bool {
	b.vec = tokenize.Counts(b.vec[:0], b.dict, b.tk, s, &b.scratch)
	return b.AddCounts(s, b.vec)
}

// AddCounts is Add for a string already decomposed: counts must be what
// tokenize.Counts appends for s under the builder's dictionary and
// tokenizer. A build that tokenized its corpus once — to intern, count
// frequencies and route — hands every shard's builder the same vectors
// instead of tokenizing again. AddCounts copies counts into the arena;
// the caller keeps it. It panics past 2^32 entries, the reach of the
// arena's 4-byte offsets.
func (b *Builder) AddCounts(s string, counts []tokenize.Count) bool {
	if len(counts) == 0 {
		return false
	}
	if uint64(len(b.toks))+uint64(len(counts)) > math.MaxUint32 {
		panic("collection: more than 2^32 entries in one collection")
	}
	for _, c := range counts {
		if c.TF > 1 {
			b.tfs = append(b.tfs, tfEntry{pos: uint32(len(b.toks)), tf: c.TF})
		}
		b.toks = append(b.toks, c.Token)
		b.tokenCount += int(c.TF)
	}
	b.off = append(b.off, uint32(len(b.toks)))
	if b.keepSource {
		b.source = append(b.source, s)
	}
	return true
}

// Len reports the number of sets added so far.
func (b *Builder) Len() int { return len(b.off) - 1 }

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
	// The collection keeps its arrays for life: ones grown by append
	// are copied to their exact length, so no spare capacity is retained.
	c := &Collection{
		dict:   b.dict,
		tk:     b.tk,
		toks:   fit(b.toks),
		off:    fit(b.off),
		tfs:    fit(b.tfs),
		source: fit(b.source),
		df:     make([]int, b.dict.Len()),
		statsN: statsN,
	}
	if dfFn != nil {
		for t := range c.df {
			c.df[t] = dfFn(c.dict.String(tokenize.Token(t)))
		}
	} else {
		for _, t := range c.toks {
			c.df[t]++ // one per containing set: a set's tokens are distinct
		}
	}
	n := c.StatsN()
	c.idf = make([]float64, len(c.df))
	for t, df := range c.df {
		c.idf[t] = sim.IDF(df, n)
	}
	c.lens = make([]float64, c.NumSets())
	for i := range c.lens {
		var sum sim.SumSq
		for _, t := range c.Tokens(SetID(i)) {
			sum.Add(c.idf[t] * c.idf[t])
		}
		c.lens[i] = sum.Len()
	}
	if len(c.lens) > 0 {
		c.avgTokens = float64(b.tokenCount) / float64(len(c.lens))
	}
	b.toks, b.tfs, b.source, b.dict = nil, nil, nil, nil
	return c
}

// grow returns s with room for n more elements, reallocating to exactly
// that capacity when it lacks it.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s)-len(s) >= n {
		return s
	}
	g := make(S, len(s), len(s)+n)
	copy(g, s)
	return g
}

// fit returns s without spare capacity, copying it when it has some.
func fit[S ~[]E, E any](s S) S {
	if cap(s) == len(s) {
		return s
	}
	return append(make(S, 0, len(s)), s...)
}

// NumSets implements sim.Stats.
func (c *Collection) NumSets() int { return len(c.off) - 1 }

// StatsN is the database size the idf weights were computed against: the
// externally supplied size for BuildWithStats collections, NumSets
// otherwise. Query preparation must use it — not NumSets — so segment
// queries weight unknown and known tokens against the same corpus the
// stored lengths were baked from.
func (c *Collection) StatsN() int {
	if c.statsN > 0 {
		return c.statsN
	}
	return c.NumSets()
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

// Tokens returns the distinct tokens of set id, ascending. The slice
// aliases the collection's arena and must not be modified; its capacity
// ends at its length, so an append copies instead of overwriting the
// next set. It does not allocate: query paths read sets through it.
func (c *Collection) Tokens(id SetID) []tokenize.Token {
	hi := c.off[id+1]
	return c.toks[c.off[id]:hi:hi]
}

// Set returns the token-frequency vector of set id, sorted by token:
// its Tokens, each with its term frequency. The vector is rebuilt from
// the arena and the TF side table into a fresh slice the caller owns,
// so Set allocates; it serves the readers of term frequencies (Table
// I's measures, the self-join's queries) and no query path. The side
// entries of the set start where a binary search for its first arena
// position lands, and are met in arena order.
func (c *Collection) Set(id SetID) []tokenize.Count {
	lo := c.off[id]
	dst := make([]tokenize.Count, 0, c.off[id+1]-lo)
	k, _ := slices.BinarySearchFunc(c.tfs, lo, func(e tfEntry, pos uint32) int { return cmp.Compare(e.pos, pos) })
	for i, t := range c.Tokens(id) {
		tf := uint32(1)
		if k < len(c.tfs) && c.tfs[k].pos == lo+uint32(i) {
			tf = c.tfs[k].tf
			k++
		}
		dst = append(dst, tokenize.Count{Token: t, TF: tf})
	}
	return dst
}

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
	for _, t := range c.toks {
		off[t+1]++
	}
	for t := 1; t < len(off); t++ {
		off[t] += off[t-1]
	}
	return off
}

// fillBuckets runs the bucket fill over the TokenOffsets layout off: it
// visits the sets in ascending id order and, for every token of a set,
// calls put with the next free slot of that token's bucket, so each
// bucket receives its set ids ascending. The fill allocates nothing:
// off, shifted up one place, is its cursor table — off[t+1] starts at
// token t's bucket start and each put advances it, so it ends at the
// bucket's end, which is off[t+1] again. off is therefore only valid
// once fillBuckets has returned.
func (c *Collection) fillBuckets(off []uint32, put func(slot uint32, id SetID)) {
	copy(off[1:], off[:len(off)-1])
	next := off[1:]
	for id := range c.NumSets() {
		for _, t := range c.Tokens(SetID(id)) {
			put(next[t], SetID(id))
			next[t]++
		}
	}
}

// SetsByLength returns every set id ordered by (Length, id) ascending:
// the visiting order under which a bucket fill yields length-sorted
// lists. Lengths are positive, and positive floats order as their bit
// patterns do, so this is a stable LSD radix sort of the ids on their
// lengths' bits, started from ascending ids: ties keep id order. The
// digit counts live on the stack and the scatter's scratch is the second
// half of the one array whose first half is returned.
func (c *Collection) SetsByLength() []SetID { return byLength(c.lens) }

// digitBits is the radix of byLength: six passes of 11 bits cover a
// float64. A pass whose digit is one value across the corpus is left out,
// which the top one — the sign and the high exponent bits — usually is.
// The six count tables take 48 KiB of stack.
const digitBits = 11

// byLength is SetsByLength over the lengths lens of sets 0 … len(lens)-1.
func byLength(lens []float64) []SetID {
	const mask = 1<<digitBits - 1
	n := len(lens)
	buf := make([]SetID, 2*n)
	src, dst := buf[:n:n], buf[n:]
	var counts [(64 + digitBits - 1) / digitBits][1 << digitBits]uint32
	for i, l := range lens {
		src[i] = SetID(i)
		k := math.Float64bits(l)
		for d := range counts {
			counts[d][k>>(digitBits*d)&mask]++
		}
	}
	for d := range counts {
		cnt, shift := &counts[d], digitBits*d
		if n == 0 || cnt[math.Float64bits(lens[0])>>shift&mask] == uint32(n) {
			continue // every key shares this digit: the pass would copy
		}
		var sum uint32
		for b, k := range cnt {
			cnt[b], sum = sum, sum+k
		}
		for _, id := range src {
			b := math.Float64bits(lens[id]) >> shift & mask
			dst[cnt[b]] = id
			cnt[b]++
		}
		src, dst = dst, src
	}
	if n > 0 && &src[0] != &buf[0] {
		copy(buf, src)
	}
	return buf[:n:n]
}

// TokenSets enumerates, for every token, the ids of the sets containing it
// in ascending id order, invoking fn(token, ids). The ids slices alias one
// flat array that does not outlive the call.
func (c *Collection) TokenSets(fn func(t tokenize.Token, ids []SetID)) {
	off := c.TokenOffsets()
	flat := make([]SetID, off[len(c.df)])
	c.fillBuckets(off, func(slot uint32, id SetID) { flat[slot] = id })
	for t := range c.df {
		fn(tokenize.Token(t), flat[off[t]:off[t+1]])
	}
}

// Validate performs internal consistency checks, returning a descriptive
// error on the first violation. It has no caller outside tests: it is
// the oracle the build, round-trip and fuzz tests hold a collection to.
func (c *Collection) Validate() error {
	n := c.NumSets()
	if n < 0 || c.off[0] != 0 || int(c.off[n]) != len(c.toks) {
		return fmt.Errorf("collection: set offsets do not span the arena of %d entries", len(c.toks))
	}
	if len(c.lens) != n || (c.source != nil && len(c.source) != n) {
		return fmt.Errorf("collection: %d lengths and %d sources for %d sets", len(c.lens), len(c.source), n)
	}
	for id := range n {
		if c.off[id] >= c.off[id+1] || int(c.off[id+1]) > len(c.toks) {
			return fmt.Errorf("collection: set %d is empty or overruns the arena", id)
		}
		set := c.Tokens(SetID(id))
		for i := 1; i < len(set); i++ {
			if set[i-1] >= set[i] {
				return fmt.Errorf("collection: set %d tokens not strictly sorted", id)
			}
		}
		if int(set[len(set)-1]) >= len(c.df) {
			return fmt.Errorf("collection: set %d holds token %d past the dictionary", id, set[len(set)-1])
		}
		if c.lens[id] <= 0 {
			return fmt.Errorf("collection: set %d has non-positive length %g", id, c.lens[id])
		}
	}
	for k, e := range c.tfs {
		if int(e.pos) >= len(c.toks) || (k > 0 && c.tfs[k-1].pos >= e.pos) || e.tf < 2 {
			return fmt.Errorf("collection: TF side entry %d {pos %d, tf %d} out of order or range", k, e.pos, e.tf)
		}
	}
	// BuildWithStats collections store global frequencies, so a local
	// recount cannot be compared against them.
	if c.statsN == 0 {
		df := make([]int, len(c.df))
		for _, t := range c.toks {
			df[t]++
		}
		for t := range df {
			if df[t] != c.df[t] {
				return fmt.Errorf("collection: token %d df mismatch: stored %d, actual %d", t, c.df[t], df[t])
			}
		}
	}
	return nil
}

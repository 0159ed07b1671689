// A segment round is the one place documents become index input. Every
// build path — BuildSharded, a compaction round, and the bulk load
// behind BuildLive and recovery — feeds its documents through add, which
// holds the only tokenizer call on those paths: each document is
// decomposed exactly once into its token-frequency vector, interning into
// the round's shared dictionary in global id order. Everything
// downstream reads those vectors: the document frequencies by token id,
// the clusterer's distinct-token signatures, and the per-shard
// collection builders, which copy the vectors into their arenas.
package core

import (
	"repro/internal/collection"
	"repro/internal/route"
	"repro/internal/tokenize"
)

// docRef is one document headed into a round: its global id, its source,
// and — for a compaction round — the shard currently holding it.
type docRef struct {
	id     collection.SetID
	source string
	shard  int32
}

// segmentRound accumulates the tokenized documents of one build round.
// docs ascend by id when the caller adds them in id order, which every
// caller does: per-shard id lists cut from it are then ascending too.
// The documents' vectors sit back to back in one arena, so adding a
// document allocates nothing but the arrays' amortized growth.
type segmentRound struct {
	tk      tokenize.Tokenizer
	dict    *tokenize.Dict
	docs    []docRef
	vecs    []tokenize.Count // every document's vector, back to back, each ascending by token
	off     []int            // docs[i]'s vector is vecs[off[i]:off[i+1]]
	df      []int            // df[t]: round documents containing token t
	scratch tokenize.Scratch
}

func newSegmentRound(tk tokenize.Tokenizer) *segmentRound {
	return &segmentRound{tk: tk, dict: tokenize.NewDict(), off: []int{0}}
}

// add tokenizes ref's source and appends it to the round. A string that
// yields no tokens is left out and add reports false.
func (r *segmentRound) add(ref docRef) bool {
	n := len(r.vecs)
	r.vecs = tokenize.Counts(r.vecs, r.dict, r.tk, ref.source, &r.scratch)
	if len(r.vecs) == n {
		return false
	}
	for len(r.df) < r.dict.Len() {
		r.df = append(r.df, 0)
	}
	for _, c := range r.vecs[n:] {
		r.df[c.Token]++
	}
	r.docs = append(r.docs, ref)
	r.off = append(r.off, len(r.vecs))
	return true
}

// dfOf is the round's document frequency of a token string: the df
// callback of a build whose corpus is exactly the round.
func (r *segmentRound) dfOf(token string) int {
	t, ok := r.dict.Lookup(token)
	if !ok {
		return 0
	}
	return r.df[t]
}

// partition clusters the round's documents into k shards by their
// distinct tokens, read off the vectors add already produced.
func (r *segmentRound) partition(idf []float64, k int) []int32 {
	flat := make([]tokenize.Token, len(r.vecs))
	for i, c := range r.vecs {
		flat[i] = c.Token
	}
	docToks := make([][]tokenize.Token, len(r.docs))
	for i := range docToks {
		hi := r.off[i+1]
		docToks[i] = flat[r.off[i]:hi:hi]
	}
	return route.Partition(docToks, idf, k)
}

// builders distributes the round over one collection builder per shard —
// assign[i] is the shard of docs[i] — handing each its documents'
// vectors pre-counted, and returns with them each shard's local → global
// id list. Each builder is sized exactly for its shard's sets and
// entries, so the collections keep their arenas as built. A shard that
// received nothing has an empty builder.
func (r *segmentRound) builders(assign []int32, shards int, keepSource bool) ([]*collection.Builder, [][]collection.SetID) {
	sets := make([]int, shards)
	entries := make([]int, shards)
	for i, sh := range assign {
		sets[sh]++
		entries[sh] += r.off[i+1] - r.off[i]
	}
	builders := make([]*collection.Builder, shards)
	// Exact capacities: a segment keeps its id list for life.
	ids := make([][]collection.SetID, shards)
	for si := range builders {
		builders[si] = collection.NewBuilderWithDict(r.dict, r.tk, keepSource)
		builders[si].Grow(sets[si], entries[si])
		if sets[si] > 0 {
			ids[si] = make([]collection.SetID, 0, sets[si])
		}
	}
	for i, ref := range r.docs {
		sh := assign[i]
		builders[sh].AddCounts(ref.source, r.vecs[r.off[i]:r.off[i+1]])
		ids[sh] = append(ids[sh], ref.id)
	}
	return builders, ids
}

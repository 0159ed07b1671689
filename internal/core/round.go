// A segment round is the one place documents become index input. Every
// build path — BuildSharded, a compaction round, and the bulk load
// behind BuildLive and recovery — feeds its documents through add, which
// holds the only tokenizer call on those paths: each document is
// decomposed exactly once into its token-frequency vector, interning into
// the round's shared dictionary in global id order. Everything
// downstream reads those vectors: the document frequencies by token id,
// the clusterer's distinct-token signatures, and the per-shard
// collection builders, which receive the vectors pre-counted.
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
type segmentRound struct {
	tk      tokenize.Tokenizer
	dict    *tokenize.Dict
	docs    []docRef
	counts  [][]tokenize.Count // counts[i] is docs[i]'s vector, ascending by token
	df      []int              // df[t]: round documents containing token t
	scratch []string
}

func newSegmentRound(tk tokenize.Tokenizer) *segmentRound {
	return &segmentRound{tk: tk, dict: tokenize.NewDict()}
}

// add tokenizes ref's source and appends it to the round. A string that
// yields no tokens is left out and add reports false.
func (r *segmentRound) add(ref docRef) bool {
	counts := tokenize.Counts(r.dict, r.tk, ref.source, &r.scratch)
	if len(counts) == 0 {
		return false
	}
	for len(r.df) < r.dict.Len() {
		r.df = append(r.df, 0)
	}
	for _, c := range counts {
		r.df[c.Token]++
	}
	r.docs = append(r.docs, ref)
	r.counts = append(r.counts, counts)
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
	total := 0
	for _, counts := range r.counts {
		total += len(counts)
	}
	flat := make([]tokenize.Token, 0, total)
	docToks := make([][]tokenize.Token, len(r.counts))
	for i, counts := range r.counts {
		start := len(flat)
		for _, c := range counts {
			flat = append(flat, c.Token)
		}
		docToks[i] = flat[start:len(flat):len(flat)]
	}
	return route.Partition(docToks, idf, k)
}

// builders distributes the round over one collection builder per shard —
// assign[i] is the shard of docs[i] — handing each its documents'
// vectors pre-counted, and returns with them each shard's local → global
// id list. A shard that received nothing has an empty builder.
func (r *segmentRound) builders(assign []int32, shards int, keepSource bool) ([]*collection.Builder, [][]collection.SetID) {
	builders := make([]*collection.Builder, shards)
	for si := range builders {
		builders[si] = collection.NewBuilderWithDict(r.dict, r.tk, keepSource)
	}
	// Exact capacities: a segment keeps its id list for life.
	sizes := make([]int, shards)
	for _, sh := range assign {
		sizes[sh]++
	}
	ids := make([][]collection.SetID, shards)
	for si, n := range sizes {
		if n > 0 {
			ids[si] = make([]collection.SetID, 0, n)
		}
	}
	for i, ref := range r.docs {
		sh := assign[i]
		builders[sh].AddCounts(ref.source, r.counts[i])
		ids[sh] = append(ids[sh], ref.id)
	}
	return builders, ids
}

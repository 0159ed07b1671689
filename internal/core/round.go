// A segment round is the one place documents become index input. Every
// build path — BuildSharded, the monolithic BuildCollection, a
// compaction round, and the bulk load behind BuildLive and recovery —
// feeds its documents through addAll, which holds the only tokenizer
// call on those paths: each document is decomposed exactly once into
// its token-frequency vector, interning into the round's shared
// dictionary in global id order. Everything downstream reads those
// vectors: the document frequencies by token id, the clusterer's
// distinct-token signatures, and the per-shard collection builders,
// which copy the vectors into their arenas. A checkpoint stores its
// round's input — dictionary strings and vectors (StoredRound) — and
// recovery from it rebuilds the same round with storedRound instead of
// addAll, tokenizing nothing.
//
// A round runs each stage on its workers. addAll tokenizes contiguous
// chunks of documents side by side against chunk-local token numbers
// (tokenize.Chunk), interns the chunks' vocabularies into the round's
// dictionary one chunk after another in document order — which assigns
// exactly the ids one serial pass would — has each chunk sort its
// vectors into its own stretch of the presized arena, and counts df in
// one serial pass; the clusterer scores documents side by side
// (route.PartitionWorkers); and the shards fill and build side by side.
// Every stage's output is the serial build's, bit for bit.
package core

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/collection"
	"repro/internal/par"
	"repro/internal/route"
	"repro/internal/tokenize"
)

// parallelFloor is the smallest round that fans out. Below it a round
// runs on one goroutine: on two cores, tokenizing 500–1000 short
// documents in two chunks costs a quarter more than in one, and up to
// ~10 000 it saves under a sixth of a stage that is itself a fraction
// of a small store's set-up.
var parallelFloor = 10000

// roundWorkers is the worker count of a round of n documents that a
// caller waits on — a build, a bulk load or recovery, an explicit
// Compact: every core, once the round reaches parallelFloor. The
// background compactor runs beside queries and takes one.
func roundWorkers(n int) int {
	if n < parallelFloor {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// engineWorkers is the worker count of each of the engines a round of
// workers builds side by side: the round's workers shared between them,
// so a one-shard round fills its lists and bitmaps on every core.
func engineWorkers(workers, engines int) int {
	return max(1, workers/max(1, engines))
}

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
// The documents' vectors sit back to back in one arena, so adding
// documents allocates nothing per document but the arrays' amortized
// growth.
type segmentRound struct {
	tk      tokenize.Tokenizer
	workers int
	dict    *tokenize.Dict
	docs    []docRef
	vecs    []tokenize.Count // every document's vector, back to back, each ascending by token
	off     []int            // docs[i]'s vector is vecs[off[i]:off[i+1]]
	df      []int            // df[t]: round documents containing token t
	chunks  []tokenize.Chunk // one per worker, kept warm for the next addAll
}

func newSegmentRound(tk tokenize.Tokenizer, workers int) *segmentRound {
	return &segmentRound{tk: tk, workers: max(1, workers), dict: tokenize.NewDict(), off: []int{0}}
}

// addAll tokenizes refs and appends, in order, every one that yields
// tokens; it reports how many yielded none and were left out. Each
// caller keeps its own id and rejection rule.
func (r *segmentRound) addAll(refs []docRef) (dropped int) {
	k := par.NumChunks(r.workers, len(refs))
	for len(r.chunks) < k {
		r.chunks = append(r.chunks, tokenize.Chunk{})
	}
	chunks := r.chunks[:k]
	par.Chunks(k, len(refs), "tokenize", func(c, lo, hi int) {
		ch := &chunks[c]
		ch.Reset()
		for _, ref := range refs[lo:hi] {
			ch.Add(r.tk, ref.source)
		}
	})
	// Chunk order, then first appearance within a chunk: the order of
	// first appearance over the whole round, which serial interning
	// would have followed.
	for c := range chunks {
		chunks[c].Intern(r.dict)
	}
	par.Chunks(k, len(refs), "tokenize", func(c, _, _ int) { chunks[c].Count() })
	// Each chunk fills its own stretch of the arena.
	base := make([]int, k+1)
	base[0] = len(r.vecs)
	for c := range chunks {
		base[c+1] = base[c] + chunks[c].Total()
	}
	r.vecs = slices.Grow(r.vecs, base[k]-base[0])[:base[k]]
	par.Chunks(k, len(refs), "tokenize", func(c, _, _ int) { chunks[c].Fill(r.vecs[base[c]:base[c+1]]) })

	r.docs = slices.Grow(r.docs, len(refs))
	r.off = slices.Grow(r.off, len(refs))
	for len(r.df) < r.dict.Len() {
		r.df = append(r.df, 0)
	}
	i, at := 0, base[0]
	for c := range chunks {
		ch := &chunks[c]
		for d := 0; d < ch.Len(); d, i = d+1, i+1 {
			n := ch.Entries(d)
			if n == 0 {
				dropped++
				continue
			}
			for _, e := range r.vecs[at : at+n] {
				r.df[e.Token]++
			}
			at += n
			r.docs = append(r.docs, refs[i])
			r.off = append(r.off, at)
		}
	}
	return dropped
}

// addCorpus adds docs with the builds' numbering: the documents that
// yield tokens take dense ids in input order.
func (r *segmentRound) addCorpus(docs []string) {
	refs := make([]docRef, len(docs))
	for i, s := range docs {
		refs[i].source = s
	}
	r.addAll(refs)
	for i := range r.docs {
		r.docs[i].id = collection.SetID(i)
	}
}

// vec is docs[i]'s token vector.
func (r *segmentRound) vec(i int) []tokenize.Count {
	return r.vecs[r.off[i]:r.off[i+1]]
}

// dictStrings lists the round dictionary's token strings in id order.
func (r *segmentRound) dictStrings() []string {
	out := make([]string, r.dict.Len())
	for t := range out {
		out[t] = r.dict.String(tokenize.Token(t))
	}
	return out
}

// StoredRound is a round's tokenized input as a checkpoint stores it:
// the round dictionary's token strings in id order and the round
// documents' vectors, in id order and back to back.
type StoredRound struct {
	Dict []string
	Vecs []tokenize.Count
	// Off has one entry per document and one more: the i-th document's
	// vector is Vecs[Off[i]:Off[i+1]].
	Off []int
}

// TokenizeRound tokenizes sources — the live documents of a log in id
// order — through one round and returns its input as a checkpoint
// stores it. A source that yields no tokens fails it with an error
// wrapping ErrNoTokens.
func TokenizeRound(tk tokenize.Tokenizer, sources []string) (*StoredRound, error) {
	refs := make([]docRef, len(sources))
	for i, s := range sources {
		refs[i] = docRef{id: collection.SetID(i), source: s}
	}
	r := newSegmentRound(tk, roundWorkers(len(refs)))
	if err := r.addLive(refs); err != nil {
		return nil, err
	}
	return &StoredRound{Dict: r.dictStrings(), Vecs: r.vecs, Off: r.off}, nil
}

// addLive is addAll over live documents, every one of which must yield
// tokens: the first that yields none fails it with an error wrapping
// ErrNoTokens.
func (r *segmentRound) addLive(refs []docRef) error {
	if r.addAll(refs) == 0 {
		return nil
	}
	// The first live document missing from the round is the culprit.
	i := 0
	for i < len(r.docs) && r.docs[i].id == refs[i].id {
		i++
	}
	return fmt.Errorf("document %d: %w", refs[i].id, ErrNoTokens)
}

// storedRound rebuilds the round addAll would build over refs — live
// documents in id order — from its stored input, tokenizing nothing: the
// dictionary from its strings, the vectors and offsets as stored, and df
// recounted in one pass. Input no such round can have is refused with an
// error wrapping collection.ErrBadCollection: offsets that do not frame
// exactly len(refs) non-empty vectors, a vector that is not strictly
// ascending, names a token past the dictionary or has a zero frequency,
// a repeated dictionary string, and a numbering other than first
// appearance — each document's tokens new to the round must be the next
// ids in turn, and every id must be met.
func storedRound(tk tokenize.Tokenizer, workers int, refs []docRef, sr *StoredRound) (*segmentRound, error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: stored round: %s", collection.ErrBadCollection, fmt.Sprintf(format, args...))
	}
	off, vecs := sr.Off, sr.Vecs
	if len(off) != len(refs)+1 || off[0] != 0 || off[len(refs)] != len(vecs) {
		return nil, bad("%d offsets framing %d entries for %d documents", len(off), len(vecs), len(refs))
	}
	dict := tokenize.NewDict()
	for t, s := range sr.Dict {
		if dict.Intern(s) != tokenize.Token(t) {
			return nil, bad("token %d repeats %q", t, s)
		}
	}
	df := make([]int, len(sr.Dict))
	seen := tokenize.Token(0) // the ids first appearance has handed out
	for i, ref := range refs {
		if off[i+1] <= off[i] || off[i+1] > len(vecs) {
			return nil, bad("document %d: vector [%d, %d) empty or out of range", ref.id, off[i], off[i+1])
		}
		for j, c := range vecs[off[i]:off[i+1]] {
			if c.TF == 0 || int(c.Token) >= len(df) || (j > 0 && c.Token <= vecs[off[i]+j-1].Token) {
				return nil, bad("document %d: entry %d {%d %d} out of order or range", ref.id, j, c.Token, c.TF)
			}
			if c.Token >= seen {
				if c.Token != seen {
					return nil, bad("document %d introduces token %d before %d", ref.id, c.Token, seen)
				}
				seen++
			}
			df[c.Token]++
		}
	}
	if int(seen) != len(df) {
		return nil, bad("%d dictionary tokens no document holds", len(df)-int(seen))
	}
	return &segmentRound{tk: tk, workers: max(1, workers), dict: dict, docs: refs, vecs: vecs, off: off, df: df}, nil
}

// partition clusters the round's documents into k shards by their
// distinct tokens, read off the vectors addAll already produced.
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
	return route.PartitionWorkers(docToks, idf, k, r.workers)
}

// builders distributes the round over one collection builder per shard —
// assign[i] is the shard of docs[i] — handing each its documents'
// vectors pre-counted, and returns with them each shard's local → global
// id list. Each builder is sized exactly for its shard's sets and
// entries, so the collections keep their arenas as built. A shard that
// received nothing has an empty builder. The shards fill side by side,
// each walking the round in document order.
func (r *segmentRound) builders(assign []int32, shards int, keepSource bool) ([]*collection.Builder, [][]collection.SetID) {
	builders := make([]*collection.Builder, shards)
	ids := make([][]collection.SetID, shards)
	par.Each(r.workers, shards, "shard", func(si int) {
		sh := int32(si)
		sets, entries := 0, 0
		for i, a := range assign {
			if a == sh {
				sets++
				entries += r.off[i+1] - r.off[i]
			}
		}
		b := collection.NewBuilderWithDict(r.dict, r.tk, keepSource)
		b.Grow(sets, entries)
		if sets > 0 {
			// Exact capacity: a segment keeps its id list for life.
			ids[si] = make([]collection.SetID, 0, sets)
		}
		for i, ref := range r.docs {
			if assign[i] == sh {
				b.AddCounts(ref.source, r.vecs[r.off[i]:r.off[i+1]])
				ids[si] = append(ids[si], ref.id)
			}
		}
		builders[si] = b
	})
	return builders, ids
}

// BuildCollection tokenizes docs through one segment round and freezes
// them into a monolithic collection: the documents that yield tokens
// take dense ids in input order. The collection is the one
// collection.Builder's Add over docs builds, byte for byte.
func BuildCollection(tk tokenize.Tokenizer, docs []string, keepSource bool) *collection.Collection {
	r := newSegmentRound(tk, roundWorkers(len(docs)))
	r.addCorpus(docs)
	builders, _ := r.builders(make([]int32, len(r.docs)), 1, keepSource)
	return builders[0].Build()
}

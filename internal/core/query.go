package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/sim"
	"repro/internal/tokenize"
)

// QueryToken is one distinct query token with its precomputed weights.
type QueryToken struct {
	Token tokenize.Token
	IDF   float64
	IDFSq float64
}

// Query is a preprocessed query set. Tokens are distinct (IDF has set
// semantics) and sorted by decreasing idf — the processing order SF and
// Hybrid require; Len is the normalized length of Eq. 1, one sim.SumSq
// over every distinct token's idf², so it does not depend on how the
// tokens are numbered. It includes tokens unknown to the corpus (they
// are smoothed by sim.IDF, keeping Theorem 1 valid for queries with
// out-of-vocabulary grams).
type Query struct {
	Tokens []QueryToken
	Len    float64
	// Raw retains the token-frequency vector for measure-based scoring
	// (Naive oracle, Table I quality experiments).
	Raw []tokenize.Count
}

// Prepare tokenizes s against the engine's collection and returns the
// preprocessed query. Unknown tokens are interned transiently: they
// receive ids beyond the corpus range, empty lists and smoothed idf.
func (e *Engine) Prepare(s string) Query {
	// The raw token buffer comes from the query scratch pool:
	// prepareTokens only reads it, so it goes back before Prepare returns.
	sc := e.getScratch()
	sc.strs = e.c.Tokenizer().Tokens(sc.strs[:0], s)
	sort.Strings(sc.strs)
	q := e.prepareTokens(sc.strs)
	e.putScratch(sc)
	return q
}

// prepareTokens is Prepare for an already tokenized string: toks is its
// raw token sequence (duplicates kept — Raw carries term frequencies),
// sorted so that equal tokens are adjacent. toks is only read, so a
// LiveEngine tokenizes once and hands every segment the same slice. Each
// distinct token is looked up once: known ones become Raw, ascending by
// Token, and unknown ones are counted, so that len(q) stays faithful to
// Eq. 1.
func (e *Engine) prepareTokens(toks []string) Query {
	d := e.c.Dict()
	var counts []tokenize.Count
	unknown := 0
	for i := 0; i < len(toks); {
		j := i + 1
		for j < len(toks) && toks[j] == toks[i] {
			j++
		}
		if id, ok := d.Lookup(toks[i]); !ok {
			unknown++
		} else {
			if counts == nil {
				counts = make([]tokenize.Count, 0, len(toks)-i)
			}
			counts = append(counts, tokenize.Count{Token: id, TF: uint32(j - i)})
		}
		i = j
	}
	slices.SortFunc(counts, byToken)
	return e.prepare(counts, unknown)
}

func byToken(a, b tokenize.Count) int { return cmp.Compare(a.Token, b.Token) }

// PrepareCounts builds a Query from an already tokenized vector whose
// tokens are all known to the corpus dictionary.
func (e *Engine) PrepareCounts(counts []tokenize.Count) Query {
	return e.prepare(counts, 0)
}

func (e *Engine) prepare(counts []tokenize.Count, unknownDistinct int) Query {
	var toks []QueryToken
	if len(counts) > 0 {
		toks = make([]QueryToken, 0, len(counts))
	}
	return e.prepareInto(counts, unknownDistinct, toks)
}

// prepareInto is prepare writing the query tokens into toks, which has
// room for len(counts) of them: a LiveEngine carves every segment's
// tokens from one array. Each weight is read off the collection's idf
// table, which the build filled with sim.IDF of the token's df against
// StatsN — not NumSets: a segment collection bakes the global corpus
// size into its weights, and the query must agree with it.
func (e *Engine) prepareInto(counts []tokenize.Count, unknownDistinct int, toks []QueryToken) Query {
	q := Query{Tokens: toks, Raw: counts}
	var sum sim.SumSq
	for _, c := range counts {
		w := e.c.IDFWeight(c.Token)
		q.Tokens = append(q.Tokens, QueryToken{Token: c.Token, IDF: w, IDFSq: w * w})
		sum.Add(w * w)
	}
	// Unknown tokens have empty lists — they cannot contribute matches,
	// but they lengthen the query exactly as Eq. 1 prescribes.
	w := sim.IDF(0, e.c.StatsN())
	for range unknownDistinct {
		sum.Add(w * w)
	}
	q.Len = sum.Len()
	slices.SortFunc(q.Tokens, byIDFDesc)
	return q
}

// byIDFDesc orders query tokens by decreasing idf, ties by ascending
// token. The tokens of a query are distinct, so the order is strict and
// needs no stable sort.
func byIDFDesc(a, b QueryToken) int {
	if a.IDF != b.IDF {
		if a.IDF > b.IDF {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Token, b.Token)
}

// lengthWindow returns the Theorem 1 pruning interval for this query,
// padded by the score epsilon so no boundary answer is lost. With
// Options.NoLengthBound the window is the whole positive axis.
func lengthWindow(q Query, tau float64, o *Options) (lo, hi float64) {
	if o != nil && o.NoLengthBound {
		return 0, math.MaxFloat64
	}
	lo, hi = sim.LengthBounds(q.Len, tau-sim.ScoreEpsilon)
	lo -= lo * 1e-12
	hi += hi * 1e-12
	return lo, hi
}

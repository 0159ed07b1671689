package core

import (
	"math/bits"

	"repro/internal/collection"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// One score.
//
// Eq. 1 is a sum, and float addition is not associative, so the engine
// fixes one summation order for every algorithm: Shortest-First's. SF
// reads the lists in query order (decreasing idf) and adds list i's
// weight idf(i)²/(len(q)·len(s)) — listState.w — as it meets the set.
// Every score the engine emits is that sum over the query tokens the set
// holds, added in query order, so the answer is bitwise the same
// whatever the algorithm or the partition of the corpus. The order of
// the summands does not depend on how tokens are numbered (equal-idf
// tokens add equal summands), and neither do the two lengths in the
// denominator: each is one sim.SumSq, exact in any order and rounded
// once, so renumbering tokens moves no score bit.
//
// SF and top-k SF emit the sum they accumulated. TA and iTA probe every
// other list for the id they surface and add their hits in list order,
// the surfacing list included, so they emit theirs directly too. The
// algorithms whose accumulation order follows list state — SortByID
// (heap pop order), NRA, iNRA and Hybrid (round-robin encounter
// order), and SQL (the group-by's) — emit rescore's value instead, and
// Naive scores every set with it.
//
// The rescore is exact, not an approximation: at every emission site the
// algorithm has proven the accumulated value to be the complete score
// (all lists resolved), and the rescore ranges over exactly the same
// terms.

// sortQueryTokens loads the query's tokens in ascending token order, with
// each one's query position, into the scratch arrays the match kernel
// merges against document token order, and sizes the overflow words of
// the match mask. Queries are a handful of tokens, and the insertion
// sort runs on scratch-backed slices without allocating.
func sortQueryTokens(s *queryScratch, q Query) {
	s.qtok = s.qtok[:0]
	s.qpos = s.qpos[:0]
	for i, qt := range q.Tokens {
		s.qtok = append(s.qtok, qt.Token)
		s.qpos = append(s.qpos, i)
	}
	for i := 1; i < len(s.qtok); i++ {
		for j := i; j > 0 && s.qtok[j-1] > s.qtok[j]; j-- {
			s.qtok[j-1], s.qtok[j] = s.qtok[j], s.qtok[j-1]
			s.qpos[j-1], s.qpos[j] = s.qpos[j], s.qpos[j-1]
		}
	}
	s.qhi = resliceWords(s.qhi, kernel.HiWords(len(q.Tokens)))
}

// rescore computes the exact Eq. 1 score of set id in the canonical
// order: one merge of the document against the token-sorted query marks
// the query positions it holds, and their weights are added in ascending
// position — exactly listState.w's expression, in SF's order. It is 0
// for a set that shares no token with the query. sortQueryTokens must
// have loaded the scratch for the current query.
func (e *Engine) rescore(s *queryScratch, q Query, id collection.SetID) float64 {
	m := kernel.Mask{Hi: s.qhi}
	clear(m.Hi)
	kernel.MatchTokens(e.c.Tokens(id), s.qtok, s.qpos, &m)
	den := q.Len * e.c.Length(id)
	var score float64
	for w := m.Lo; w != 0; w &= w - 1 {
		score += q.Tokens[bits.TrailingZeros64(w)].IDFSq / den
	}
	for wi, w := range m.Hi {
		for ; w != 0; w &= w - 1 {
			score += q.Tokens[64+wi<<6+bits.TrailingZeros64(w)].IDFSq / den
		}
	}
	return score
}

// rescoreSlack widens the accumulated-score pre-filter that guards a
// canonical rescore: the accumulated value may sit a reordering error
// away from the canonical one, so the pre-filter admits anything within
// this extra slack and lets the canonical gate make the emission
// decision. The slack is enormously larger than any reordering error
// (ulps on scores in [0,1]) and merely admits a few extra rescores.
const rescoreSlack = 1e-9

// emitRescored appends id to out when its canonical score meets tau.
// The caller pre-filters with meetsPre on the accumulated value, so the
// emission decision itself never depends on accumulation order.
func (e *Engine) emitRescored(s *queryScratch, q Query, id collection.SetID, tau float64, out []Result) []Result {
	if sc := e.rescore(s, q, id); sim.Meets(sc, tau) {
		out = append(out, Result{ID: id, Score: sc})
	}
	return out
}

// meetsPre is threshold selection's loosened test for every value that
// is not a canonical score — an accumulation-order-dependent sum before
// its rescore, an upper bound before a prune — so that only a canonical
// score meets sim.Meets, and a threshold on the edge of one answer's
// score prunes nothing the naive scan keeps. Top-k needs none: its τ is
// a score already found, and ScoreEpsilon covers the ulps by which a
// bound on an answer tied with it can fall short.
func meetsPre(score, tau float64) bool {
	return score >= tau-sim.ScoreEpsilon-rescoreSlack
}

// Per-segment summary pruning: the query-side half of internal/route.
// Before a scatter-gather query fans out, each segment's route.Summary is
// folded into an upper bound on any score the segment can produce;
// segments whose bound cannot reach the threshold (or, for top-k, that
// share no token with the query — no algorithm emits zero-score
// documents) are skipped without being visited, their postings accounted
// as skipped.
package core

import (
	"math"

	"repro/internal/route"
	"repro/internal/sim"
)

// shardBound returns an upper bound on I(q, s) over every set s in the
// summarized shard, 0 when no query token occurs there at all. Two
// bounds are intersected:
//
//   - Cap bound: I(q, s) = Σ_{t∈q∩s} idf(t)²/(len(q)·len(s)) and the
//     summary guarantees CapFor(t) ≥ idf(t)²/len(s) for every s here
//     containing t, so Σ CapFor(t)/len(q) dominates every score.
//   - Magnitude bound: with X ≥ Σ_{t∈q∩s} idf(t)² for every s here, any
//     s has len(s) ≥ max(lenMin, √(Σ_{t∈q∩s} idf²)) and Y/max(L, √Y) is
//     non-decreasing in Y, so X/(len(q)·max(lenMin, √X)) dominates every
//     score — Magnitude Boundedness at shard granularity.
//
// The overlap estimate is X = Σ_{t∈q, CapFor>0} idf(t)². Sketch
// collisions only ever raise CapFor, and X only grows with false
// positives, so both bounds stay upper bounds in exact arithmetic.
func shardBound(sum *route.Summary, q Query) float64 {
	if sum.Docs() == 0 || q.Len <= 0 {
		return 0
	}
	var capSum, x float64
	for i := range q.Tokens {
		qt := &q.Tokens[i]
		if c := sum.CapFor(qt.Token); c > 0 {
			capSum += c
			x += qt.IDFSq
		}
	}
	if capSum <= 0 {
		return 0
	}
	bound := capSum / q.Len
	lenMin, _ := sum.LenRange()
	den := lenMin
	if r := math.Sqrt(x); r > den {
		den = r
	}
	if den > 0 {
		if mb := x / (q.Len * den); mb < bound {
			bound = mb
		}
	}
	return bound
}

// boundMeets compares a summary upper bound against a threshold with
// slack covering the bound's own floating-point evaluation on top of the
// engines' sim.Meets score slack: the bound is inflated by a relative
// 1e-9 and an absolute 1e-12 first, so a shard is skipped only when no
// rounding of its scores can reach τ.
func boundMeets(bound, tau float64) bool {
	return bound*(1+1e-9)+1e-12 >= tau-sim.ScoreEpsilon
}

// skipStats accounts a pruned shard's work: the summary bound proved
// every posting of the query's lists unreachable, which is the
// Stats-equivalent of skipping over all of them.
func skipStats(e *Engine, q Query) Stats {
	t := e.queryListTotal(q)
	return Stats{ListTotal: t, ElementsSkipped: t}
}

// queryListTotal sums this engine's posting-list lengths over the query
// tokens — the denominator a shard would have reported had it run.
func (e *Engine) queryListTotal(q Query) int {
	total := 0
	for i := range q.Tokens {
		total += e.store.ListLen(q.Tokens[i].Token)
	}
	return total
}

package kernel

import "repro/internal/tokenize"

// The match kernel intersects a document's sorted distinct tokens with a
// query's token-ascending tokens and marks which query tokens the
// document holds. It intersects by sorted merge, switching to galloping
// seek on the longer side when the length ratio crosses gallopRatio: a
// long document against a short query does O(q·log d) comparisons
// instead of O(d). The caller adds the marked weights in whatever order
// it defines (core sums them in query order, see core/rescore.go), so
// the merge order never reaches a score.

// MatchTokens sets bit at[j] of m for every query token qt[j] present
// in doc. doc must be ascending and distinct (a collection's Tokens run
// is); qt is sorted by ascending token and at is parallel to it. m must
// hold every bit at names (HiWords overflow words past 64).
func MatchTokens(doc, qt []tokenize.Token, at []int, m *Mask) {
	if len(doc) >= gallopRatio*len(qt) {
		i := 0
		for j, t := range qt {
			i = gallopTokens(doc, i, t)
			if i == len(doc) {
				return
			}
			if doc[i] == t {
				m.Set(at[j])
				i++
			}
		}
		return
	}
	i, j := 0, 0
	for i < len(doc) && j < len(qt) {
		switch d := doc[i]; {
		case d == qt[j]:
			m.Set(at[j])
			i++
			j++
		case d < qt[j]:
			i++
		default:
			j++
		}
	}
}

// DotCounts sums qw[j] over the query tokens qt present in doc, added in
// ascending token order; doc is a token-frequency vector sorted by
// ascending Token, qt is sorted by ascending token and qw is parallel
// to it. It is one sorted merge and never allocates.
func DotCounts(doc []tokenize.Count, qt []tokenize.Token, qw []float64) float64 {
	var dot float64
	i, j := 0, 0
	for i < len(doc) && j < len(qt) {
		switch d := doc[i].Token; {
		case d == qt[j]:
			dot += qw[j]
			i++
			j++
		case d < qt[j]:
			i++
		default:
			j++
		}
	}
	return dot
}

// gallopTokens returns the smallest index i ≥ from with doc[i] ≥ t, or
// len(doc): the doubling seek of gallopKeys over a token run.
func gallopTokens(doc []tokenize.Token, from int, t tokenize.Token) int {
	if from >= len(doc) || doc[from] >= t {
		return from
	}
	lo, hi, step := from, from+1, 1
	for hi < len(doc) && doc[hi] < t {
		lo = hi
		step <<= 1
		hi += step
	}
	if hi > len(doc) {
		hi = len(doc)
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if doc[mid] < t {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

package kernel

import (
	"math/bits"

	"repro/internal/tokenize"
)

// The match kernel intersects a document's sorted distinct tokens with a
// query's token-ascending tokens and marks which query tokens the
// document holds. It intersects by sorted merge, switching to galloping
// seek on the longer side when the length ratio crosses gallopRatio: a
// long document against a short query does O(q·log d) comparisons
// instead of O(d). The caller adds the marked weights in whatever order
// it defines (core sums them in query order, see core/rescore.go), so
// the merge order never reaches a score.

// MatchCounts sets bit at[j] of m for every query token qt[j] present in
// doc. doc must be sorted by ascending Token (collection guarantees
// document token order); qt is sorted by ascending token and at is
// parallel to it. m must hold every bit at names (HiWords overflow words
// past 64).
//
//ssvet:hot
func MatchCounts(doc []tokenize.Count, qt []tokenize.Token, at []int, m *Mask) {
	if len(doc) >= gallopRatio*len(qt) {
		i := 0
		for j, t := range qt {
			i = gallopCounts(doc, i, t)
			if i == len(doc) {
				return
			}
			if doc[i].Token == t {
				m.Set(at[j])
				i++
			}
		}
		return
	}
	i, j := 0, 0
	for i < len(doc) && j < len(qt) {
		switch d := doc[i].Token; {
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

// identity maps a 64-token window of qt onto itself for DotCounts.
var identity = func() (a [64]int) {
	for i := range a {
		a[i] = i
	}
	return a
}()

// DotCounts sums qw[j] over the query tokens qt present in doc, added in
// ascending token order; doc and qt are as for MatchCounts and qw is
// parallel to qt. It matches the query 64 tokens at a time, so it never
// allocates.
func DotCounts(doc []tokenize.Count, qt []tokenize.Token, qw []float64) float64 {
	var dot float64
	for lo := 0; lo < len(qt); lo += 64 {
		hi := min(lo+64, len(qt))
		var m Mask
		MatchCounts(doc, qt[lo:hi], identity[:hi-lo], &m)
		for w := m.Lo; w != 0; w &= w - 1 {
			dot += qw[lo+bits.TrailingZeros64(w)]
		}
	}
	return dot
}

// gallopCounts returns the smallest index i ≥ from with doc[i].Token ≥
// t, or len(doc): the doubling seek of gallopKeys over a posting-count
// slice.
func gallopCounts(doc []tokenize.Count, from int, t tokenize.Token) int {
	if from >= len(doc) || doc[from].Token >= t {
		return from
	}
	lo, hi, step := from, from+1, 1
	for hi < len(doc) && doc[hi].Token < t {
		lo = hi
		step <<= 1
		hi += step
	}
	if hi > len(doc) {
		hi = len(doc)
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if doc[mid].Token < t {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

package kernel

import "repro/internal/tokenize"

// The dot kernel computes the canonical rescoring sum: for a document's
// sorted distinct tokens and a query's token-ascending (token, weight)
// pairs, the sum of weights over the intersection, added in ascending
// token order. That order depends only on the document and the query —
// never on list state — which is what makes rescored emissions bitwise
// partition-independent (see core/rescore.go). It intersects by sorted
// merge, switching to galloping seek on the longer side when the length
// ratio crosses gallopRatio: a long document against a short query does
// O(q·log d) comparisons instead of O(d).

// DotCounts sums qw[j] over the query tokens qt present in doc. doc
// must be sorted by ascending Token (collection guarantees document
// token order); qt and qw are parallel and sorted by ascending token.
//
//ssvet:hot
func DotCounts(doc []tokenize.Count, qt []tokenize.Token, qw []float64) float64 {
	var dot float64
	if len(doc) >= gallopRatio*len(qt) {
		i := 0
		for j, t := range qt {
			i = gallopCounts(doc, i, t)
			if i == len(doc) {
				break
			}
			if doc[i].Token == t {
				dot += qw[j]
				i++
			}
		}
		return dot
	}
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

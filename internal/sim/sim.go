// Package sim implements the similarity measures of the paper — IDF
// (Eq. 1), TF/IDF cosine, BM25 and BM25' — together with the semantic
// properties of IDF that the query algorithms exploit: Length Boundedness
// (Theorem 1), the per-list cutoffs λ_i (Eq. 2), and per-token score
// contributions.
package sim

import (
	"errors"
	"math"
	"math/bits"
)

// IDF computes the inverse-document-frequency weight of a token that
// appears in df of the n sets in the database:
//
//	idf(t) = log2(1 + N/N(t)).
//
// Tokens never seen in the database (df == 0) are smoothed to df = 1/2,
// giving them a weight slightly above any database token. They still
// contribute to query lengths, which keeps Theorem 1 correct for queries
// containing unknown tokens.
func IDF(df, n int) float64 {
	if n <= 0 {
		return 0
	}
	d := float64(df)
	if df <= 0 {
		d = 0.5
	}
	return math.Log2(1 + float64(n)/d)
}

// SumSq accumulates the squared idf weights of one set or query into
// its normalized length sqrt(Σ idf²), the denominator factor of Eq. 1.
// The sum depends only on the multiset of summands, never on the order
// they are added in: each Add is exact, into a 128-bit fixed-point
// integer counting units of 2⁻⁵², and Len rounds once. An idf² of at
// least 1 — every idf is, while N(t) ≤ N — is a whole number of units,
// so the sum is exact; a smaller summand loses its fraction of a unit
// on its own, which keeps the result order-free. Token numbering, a
// memtable's string order and a segment's id order therefore all yield
// the same length bits. The zero value is an empty sum.
type SumSq struct{ hi, lo uint64 }

// Add adds one summand, an idf². x must be finite, non-negative and
// below 2⁷⁶, the accumulator's range; the largest idf²,
// IDF(0, math.MaxInt)², is 2¹², one unit past a plain uint64's reach.
func (s *SumSq) Add(x float64) {
	if x < 0x1p11 { // idf < 45, as while N/N(t) < 2⁴⁵: x·2⁵² fits a signed word
		var carry uint64
		s.lo, carry = bits.Add64(s.lo, uint64(int64(x*0x1p52)), 0)
		s.hi += carry
		return
	}
	s.addLarge(x)
}

// addLarge is Add for x ≥ 2¹¹. x = top·2¹² + r with 0 ≤ r < 2¹², both
// parts exact: top counts 2⁶⁴ units, one high word, and r is below 2⁶⁴
// units, one low word.
func (s *SumSq) addLarge(x float64) {
	top := uint64(x * 0x1p-12)
	var carry uint64
	s.lo, carry = bits.Add64(s.lo, uint64((x-float64(top)*0x1p12)*0x1p52), 0)
	s.hi += top + carry
}

// Len returns the square root of the sum.
func (s SumSq) Len() float64 { return math.Sqrt(s.sum()) }

// sum returns the sum rounded once, to the nearest float64.
func (s SumSq) sum() float64 {
	// Keep the top 64 bits of the 128; a dropped one becomes a sticky
	// low bit, below the rounding position of the 53 that survive the
	// conversion.
	n := bits.Len64(s.hi)
	top := s.hi<<(64-n) | s.lo>>n
	if s.lo<<(64-n) != 0 {
		top |= 1
	}
	return math.Ldexp(float64(top), n-52)
}

// ErrZeroLength reports a similarity evaluation against a zero-length
// operand (an empty set, or a set whose tokens all have zero idf).
var ErrZeroLength = errors.New("sim: zero-length set")

// Contribution returns w_i(s), the amount token i adds to I(q, s) when s
// contains the token: idf² / (len(q)·len(s)).
func Contribution(idf, lenQ, lenS float64) float64 {
	return idf * idf / (lenQ * lenS)
}

// LengthBounds returns the closed interval [lo, hi] of set lengths that can
// satisfy I(q, s) ≥ tau for a query of length lenQ (Theorem 1):
//
//	tau·len(q) ≤ len(s) ≤ len(q)/tau.
//
// tau is clamped below at a small positive value so that hi stays finite.
func LengthBounds(lenQ, tau float64) (lo, hi float64) {
	const minTau = 1e-9
	if tau < minTau {
		tau = minTau
	}
	return tau * lenQ, lenQ / tau
}

// Lambda returns the cutoff lengths λ_i of Eq. 2 for a query whose token
// idf² values are given in the processing order (for SF: decreasing idf).
// λ_i = Σ_{j ≥ i} idf(q_j)² / (τ·len(q)) is the largest length an element
// first encountered in list i can have and still reach the threshold.
// The returned slice is non-increasing.
func Lambda(idfSq []float64, lenQ, tau float64) []float64 {
	out := make([]float64, len(idfSq))
	var suffix float64
	for i := len(idfSq) - 1; i >= 0; i-- {
		suffix += idfSq[i]
		out[i] = suffix / (tau * lenQ)
	}
	return out
}

// ScoreEpsilon is the slack used when comparing an accumulated score
// against a threshold. Different algorithms sum the same contributions in
// different orders, so an exact match can evaluate to 1 - 2⁻⁵² under one
// order and exactly 1 under another; every threshold comparison in the
// repository goes through Meets so all algorithms agree on boundaries.
const ScoreEpsilon = 1e-9

// Meets reports whether an accumulated score satisfies threshold tau,
// allowing ScoreEpsilon of floating-point slack.
func Meets(score, tau float64) bool { return score >= tau-ScoreEpsilon }

// BM25Params carries the free parameters of the BM25 ranking function.
type BM25Params struct {
	K1 float64 // term-frequency saturation, typically 1.2
	B  float64 // length normalization, typically 0.75
	K3 float64 // query term-frequency saturation, typically 8
}

// DefaultBM25 is the standard parameterization used in the experiments.
var DefaultBM25 = BM25Params{K1: 1.2, B: 0.75, K3: 8}

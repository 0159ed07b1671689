package kernel

import "math/bits"

// Mask is a small bitset over query-list indexes 0..n-1, replacing the
// arena-slice listMask of the candidate slabs. The first 64 bits live
// inline (Lo) — queries with ≤ 64 tokens, i.e. essentially all of them,
// pay no arena carve and no pointer chase per candidate — and the rare
// overflow words (Hi) are carved from the query scratch arena by the
// caller. A zero Mask is an empty mask over ≤ 64 bits.
//
// The word-iterating helpers (UpperAbsent, NextClear) require that when
// one operand of a pair has overflow words, both do, with equal length:
// core allocates every mask of a query for the same n.
type Mask struct {
	Lo uint64
	Hi []uint64
}

// HiWords returns the number of overflow words a Mask over n bits
// needs: 0 for n ≤ 64.
func HiWords(n int) int {
	if n <= 64 {
		return 0
	}
	return (n - 64 + 63) / 64
}

// Has reports whether bit i is set.
func (m *Mask) Has(i int) bool {
	if i < 64 {
		return m.Lo&(1<<uint(i)) != 0
	}
	i -= 64
	return m.Hi[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i. Bits ≥ 64 require Hi to have been allocated.
func (m *Mask) Set(i int) {
	if i < 64 {
		m.Lo |= 1 << uint(i)
		return
	}
	i -= 64
	m.Hi[i>>6] |= 1 << (uint(i) & 63)
}

// UpperAbsent returns base plus the sum of w[i] over every index set in
// active but clear in seen, and reports whether no such index exists
// (the candidate is complete: seen on every still-active list). The
// summands are added in ascending index order — exactly the order of
// the scalar loop this kernel replaces — so the returned bound is
// bitwise identical to the scalar one and every downstream pruning
// decision is unchanged.
func UpperAbsent(base float64, seen, active *Mask, w []float64) (upper float64, complete bool) {
	upper = base
	complete = true
	p := active.Lo &^ seen.Lo
	for p != 0 {
		upper += w[bits.TrailingZeros64(p)]
		complete = false
		p &= p - 1
	}
	for wi, aw := range active.Hi {
		p := aw &^ seen.Hi[wi]
		base := 64 + wi<<6
		for p != 0 {
			upper += w[base+bits.TrailingZeros64(p)]
			complete = false
			p &= p - 1
		}
	}
	return upper, complete
}

// NextClear returns the smallest index in [from, n) whose bit is clear,
// or -1 when every index in the range is set. It is the iteration
// primitive of the resolve loops: candidates track resolved lists in a
// Mask, and the scan visits only the unresolved ones, a word at a time.
func (m *Mask) NextClear(from, n int) int {
	if from < 0 {
		from = 0
	}
	if from >= n {
		return -1
	}
	if from < 64 {
		// Bits ≥ n of Lo are never set, so ^Lo has them on: the i < n
		// guard below rejects them.
		w := ^m.Lo & (^uint64(0) << uint(from))
		if w != 0 {
			if i := bits.TrailingZeros64(w); i < n {
				return i
			}
			return -1
		}
		from = 64
	}
	for from < n {
		wi := (from - 64) >> 6
		w := ^m.Hi[wi] & (^uint64(0) << (uint(from-64) & 63))
		if w != 0 {
			i := 64 + wi<<6 + bits.TrailingZeros64(w)
			if i < n {
				return i
			}
			return -1
		}
		from = 64 + (wi+1)<<6
	}
	return -1
}

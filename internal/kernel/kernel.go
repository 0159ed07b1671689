// Package kernel provides the word-packed intersection primitives of
// Ding & König, "Fast Set Intersection in Memory" (PVLDB 2011), adapted
// to the selection engine's hot loops: set ids are packed into uint64
// bitmap blocks grouped by id range, so membership is a shift-and-mask,
// intersection is word-AND + popcount (math/bits), and skewed pairs are
// walked with galloping (doubling) seek instead of a linear merge.
//
// The package is deliberately primitive: it knows nothing about
// postings, scores or scratch pools. Core builds one Set per token on
// the first TA/iTA query (replacing extendible-hash probes on the TA
// random-access path), uses Mask for per-candidate list bitsets, and uses
// MatchTokens for the canonical rescore's document merge. Every kernel
// preserves the visit order of the scalar loop it replaces, so floating
// point sums come out bitwise identical — the property the sharded and
// live engines' equivalence suites pin down.
package kernel

import "math/bits"

// blockShift positions a uint64 id inside its 64-bit block: the block
// key is id >> blockShift, the bit index id & blockMask.
const (
	blockShift = 6
	blockMask  = 63
)

// denseMaxWaste selects the dense layout: when the spanned block range
// is at most this multiple of the populated block count (≥ 25%
// occupancy), a contiguous word directory is cheaper than binary search
// and wastes at most 3 empty words per populated one.
const denseMaxWaste = 4

// gallopRatio is the skew threshold beyond which block-key merges
// switch from a linear two-pointer walk to galloping seek: with the
// larger side at least this many times the smaller, doubling search
// does O(small·log(large/small)) comparisons instead of O(large).
const gallopRatio = 8

// Set is an immutable word-packed membership index over uint64 ids.
// Two layouts share the type:
//
//   - sparse: keys[i] is the block key of words[i], keys sorted
//     ascending and distinct; Contains binary-searches the keys.
//   - dense (keys == nil): words is a contiguous block directory
//     starting at block key base; Contains indexes it directly.
//
// The zero Set is empty and valid.
type Set struct {
	keys  []uint64
	words []uint64
	base  uint64
	n     int
}

// Len reports the number of member ids.
func (s *Set) Len() int { return s.n }

// Dense reports whether the set chose the contiguous-directory layout.
func (s *Set) Dense() bool { return s.keys == nil && len(s.words) > 0 }

// Contains reports whether id is a member.
func (s *Set) Contains(id uint64) bool {
	key := id >> blockShift
	bit := uint64(1) << (id & blockMask)
	if s.keys == nil {
		// Dense directory (or empty set): key-base wraps below zero to
		// a huge value, so one unsigned bound check covers both ends.
		i := key - s.base
		if i >= uint64(len(s.words)) {
			return false
		}
		return s.words[i]&bit != 0
	}
	lo, hi := 0, len(s.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(s.keys) || s.keys[lo] != key {
		return false
	}
	return s.words[lo]&bit != 0
}

// SetBuilder accumulates ids for a Set. Ids must be added in ascending
// order (inverted lists already yield them that way); Build chooses the
// layout and consumes the builder.
type SetBuilder struct {
	keys  []uint64
	words []uint64
	last  uint64
	n     int
}

// Add appends id. It panics when ids regress: packed blocks are built
// by run-length grouping, which only works on sorted input.
func (b *SetBuilder) Add(id uint64) {
	if b.n > 0 && id <= b.last {
		panic("kernel: SetBuilder.Add ids must be strictly ascending")
	}
	b.last = id
	key := id >> blockShift
	bit := uint64(1) << (id & blockMask)
	if m := len(b.keys); m > 0 && b.keys[m-1] == key {
		b.words[m-1] |= bit
		b.n++
		return
	}
	b.keys = append(b.keys, key)
	b.words = append(b.words, bit)
	b.n++
}

// Build freezes the accumulated ids into a Set, picking the dense
// directory when the id range is populated enough (denseMaxWaste). The
// builder is reset and may be reused for the next set.
func (b *SetBuilder) Build() Set {
	defer func() { b.keys, b.words, b.last, b.n = nil, nil, 0, 0 }()
	if len(b.keys) == 0 {
		return Set{}
	}
	base := b.keys[0]
	span := b.keys[len(b.keys)-1] - base + 1
	if span <= uint64(denseMaxWaste)*uint64(len(b.keys)) {
		words := make([]uint64, span)
		for i, k := range b.keys {
			words[k-base] = b.words[i]
		}
		return Set{words: words, base: base, n: b.n}
	}
	return Set{keys: b.keys, words: b.words, base: base, n: b.n}
}

// gallopKeys returns the smallest index i ≥ from with keys[i] ≥ key,
// or len(keys) when no such index exists: exponential probing from the
// current position followed by binary search over the final gallop
// step, the doubling seek of Ding & König §4.2.
func gallopKeys(keys []uint64, from int, key uint64) int {
	if from >= len(keys) || keys[from] >= key {
		return from
	}
	lo, hi, step := from, from+1, 1
	for hi < len(keys) && keys[hi] < key {
		lo = hi
		step <<= 1
		hi += step
	}
	if hi > len(keys) {
		hi = len(keys)
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < key {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// visitCommon calls f once per block populated in both sets, with the
// block's first id and the AND of the two words, in ascending id order.
func visitCommon(a, b *Set, f func(blockBase uint64, word uint64)) {
	if len(a.words) == 0 || len(b.words) == 0 {
		return
	}
	switch {
	case a.keys == nil && b.keys == nil:
		lo := max(a.base, b.base)
		hi := min(a.base+uint64(len(a.words)), b.base+uint64(len(b.words)))
		for k := lo; k < hi; k++ {
			if w := a.words[k-a.base] & b.words[k-b.base]; w != 0 {
				f(k<<blockShift, w)
			}
		}
	case a.keys == nil:
		// Dense a, sparse b: probe the directory per populated b block.
		for i, k := range b.keys {
			j := k - a.base
			if j >= uint64(len(a.words)) {
				if k >= a.base {
					return // past the directory; keys only grow
				}
				continue // before the directory
			}
			if w := a.words[j] & b.words[i]; w != 0 {
				f(k<<blockShift, w)
			}
		}
	case b.keys == nil:
		visitCommon(b, a, f)
	default:
		// Sparse pair: iterate the smaller key list, advancing through
		// the larger by linear merge or galloping seek on skew.
		small, large := a, b
		if len(small.keys) > len(large.keys) {
			small, large = large, small
		}
		gallop := len(large.keys) >= gallopRatio*len(small.keys)
		j := 0
		for i, k := range small.keys {
			if gallop {
				j = gallopKeys(large.keys, j, k)
			} else {
				for j < len(large.keys) && large.keys[j] < k {
					j++
				}
			}
			if j == len(large.keys) {
				return
			}
			if large.keys[j] == k {
				if w := small.words[i] & large.words[j]; w != 0 {
					f(k<<blockShift, w)
				}
				j++
			}
		}
	}
}

// Intersect appends the ids present in both sets onto dst in ascending
// order and returns the extended slice.
func Intersect(dst []uint64, a, b *Set) []uint64 {
	visitCommon(a, b, func(base uint64, w uint64) {
		for w != 0 {
			dst = append(dst, base+uint64(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	})
	return dst
}

package route

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/collection"
	"repro/internal/invlist"
	"repro/internal/kernel"
	"repro/internal/tokenize"
)

const (
	// hotMax is how many of the corpus's highest-df tokens are held out
	// of the hashed sketch in exact dedicated bitmaps. Hot tokens occur
	// in most shards anyway, so sketch slots spent on them would both
	// always test positive and pollute every tail token sharing the
	// slot — the skew failure mode McCauley–Mikkelsen identify. With
	// fewer than hotMax distinct tokens the whole universe is "hot" and
	// the summary is exact.
	hotMax = 64
	// slotScale sizes the sketch at ~slotScale slots per distinct corpus
	// token, keeping the collision rate (and so the cap overstatement)
	// low; minSlots/maxSlots clamp the power-of-two width.
	slotScale = 4
	minSlots  = 64
	maxSlots  = 1 << 18
)

// Summary is one shard's (or one live segment's) pruning summary: what
// the executor consults to decide whether any document in the shard
// could possibly reach the query's threshold. It holds the shard's
// set-length range, exact per-token caps for the corpus's hottest
// tokens (dedicated kernel bitmaps), and a hashed token-universe sketch
// with per-slot maximum caps for the tail. Every cap is an upper bound
// in exact arithmetic, so a shard skipped on a Summary bound provably
// contributes no answer.
type Summary struct {
	docs           int
	lenMin, lenMax float64

	// hot lists the corpus-wide hottest tokens (ascending token id) —
	// identical across every shard of one build, because all shards
	// share the same global df. hotCaps holds this shard's exact cap
	// per hot token (0 when absent) and hotSet is the exact presence
	// bitmap over token ids.
	hot     []tokenize.Token
	hotCaps []float64
	hotSet  kernel.Set

	// occupied marks the sketch slots at least one tail token of this
	// shard hashes to; slotCaps holds the per-slot maximum cap. A hash
	// collision can only raise a slot's cap above a token's true cap —
	// never lower it — so collisions cost pruning power, not soundness.
	slotBits uint
	occupied kernel.Set
	slotCaps []float64
}

// slotOf hashes a token id into the sketch's slot space (Fibonacci
// multiplicative hashing, high bits).
func slotOf(t tokenize.Token, bits uint) uint64 {
	return uint64(t) * 0x9E3779B97F4A7C15 >> (64 - bits)
}

// Summarize builds the pruning summary of one shard collection from the
// lists its engine built over it. The collection's df is the
// corpus-global table (BuildWithStats), so every shard of one build
// selects the same hot-token list and the same sketch width — which is
// what makes a token's CapFor answers comparable across the fleet. A
// token's cap divides by the least length of its sets here, which Order
// Preservation puts at the head of its (Len, ID)-sorted list.
func Summarize(c *collection.Collection, lists invlist.Store) *Summary {
	s := &Summary{docs: c.NumSets()}
	for i := 0; i < c.NumSets(); i++ {
		l := c.Length(collection.SetID(i))
		if i == 0 || l < s.lenMin {
			s.lenMin = l
		}
		if l > s.lenMax {
			s.lenMax = l
		}
	}

	nt := c.NumTokens()
	s.hot = hottest(c, nt)
	s.hotCaps = make([]float64, len(s.hot))

	slots := minSlots
	for slots < slotScale*nt && slots < maxSlots {
		slots <<= 1
	}
	s.slotBits = uint(bits.Len64(uint64(slots)) - 1)
	s.slotCaps = make([]float64, slots)

	var hotB, occB kernel.SetBuilder
	for t := range tokenize.Token(nt) {
		minLen, ok := invlist.HeadLen(lists, t)
		if !ok {
			continue // no set here holds t
		}
		w := c.IDFWeight(t)
		tokCap := math.MaxFloat64 // a degenerate length never prunes
		if minLen > 0 {
			tokCap = w * w / minLen
		}
		if hi := s.hotIndex(t); hi >= 0 {
			s.hotCaps[hi] = tokCap
			hotB.Add(uint64(t)) // t ascends, so Add stays ordered
			continue
		}
		slot := slotOf(t, s.slotBits)
		if tokCap > s.slotCaps[slot] {
			s.slotCaps[slot] = tokCap
		}
	}
	s.hotSet = hotB.Build()
	for i, cv := range s.slotCaps {
		if cv > 0 {
			occB.Add(uint64(i))
		}
	}
	s.occupied = occB.Build()
	return s
}

// hottest selects the hotMax highest-df tokens (ties to the lower token
// id) and returns them in ascending token order for binary search.
func hottest(c *collection.Collection, nt int) []tokenize.Token {
	type tdf struct {
		t  tokenize.Token
		df int
	}
	cand := make([]tdf, 0, nt)
	for t := 0; t < nt; t++ {
		if df := c.DF(tokenize.Token(t)); df > 0 {
			cand = append(cand, tdf{tokenize.Token(t), df})
		}
	}
	if len(cand) > hotMax {
		// df descending, token ascending on ties: deterministic, and
		// identical across shards because df is the shared global table.
		sort.Slice(cand, func(a, b int) bool {
			if cand[a].df != cand[b].df {
				return cand[a].df > cand[b].df
			}
			return cand[a].t < cand[b].t
		})
		cand = cand[:hotMax]
	}
	hot := make([]tokenize.Token, len(cand))
	for i, e := range cand {
		hot[i] = e.t
	}
	sort.Slice(hot, func(a, b int) bool { return hot[a] < hot[b] })
	return hot
}

// hotIndex binary-searches the hot list for t; -1 when t is not hot.
// Hand-rolled (no sort.Search closure) because CapFor sits on the
// per-query executor path.
func (s *Summary) hotIndex(t tokenize.Token) int {
	lo, hi := 0, len(s.hot)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.hot[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.hot) && s.hot[lo] == t {
		return lo
	}
	return -1
}

// CapFor returns an upper bound on idf(t)²/len(s) over every set s in
// the summarized shard containing token t — the largest contribution
// numerator t can add for any document here — and 0 when no such set
// exists. Hot tokens answer from their exact bitmap and cap; tail
// tokens from the hashed sketch, whose collisions only ever overstate.
// Allocation-free: it runs once per query token per shard.
func (s *Summary) CapFor(t tokenize.Token) float64 {
	if hi := s.hotIndex(t); hi >= 0 {
		if !s.hotSet.Contains(uint64(t)) {
			return 0
		}
		return s.hotCaps[hi]
	}
	slot := slotOf(t, s.slotBits)
	if !s.occupied.Contains(slot) {
		return 0
	}
	return s.slotCaps[slot]
}

// Docs reports the number of documents summarized.
func (s *Summary) Docs() int { return s.docs }

// LenRange reports the shard's normalized set-length range (both 0 for
// an empty shard).
func (s *Summary) LenRange() (lo, hi float64) { return s.lenMin, s.lenMax }

// HotTokens reports how many of the corpus's hot tokens are present in
// this shard (the population of the exact bitmaps).
func (s *Summary) HotTokens() int { return s.hotSet.Len() }

// SketchSlots reports the hashed sketch width and how many slots are
// occupied.
func (s *Summary) SketchSlots() (total, occupied int) {
	return len(s.slotCaps), s.occupied.Len()
}

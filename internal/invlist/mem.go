package invlist

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/collection"
	"repro/internal/par"
	"repro/internal/tokenize"
)

// SkipInterval is the default spacing of skip-index entries: one skip
// entry per this many postings. The paper caps skip lists at 10MB per
// inverted list; with 64-posting spacing our skip indexes stay below 1%
// of list volume.
const SkipInterval = 64

// skipSampleBytes is the storage cost of one skip entry: the sampled
// length. Its position is implicit in the sample's index.
const skipSampleBytes = 8

// idBytes and lenBytes are the in-memory cost of one MemStore posting:
// a 4-byte set id beside its 8-byte length.
const (
	idBytes  = 4
	lenBytes = 8
)

// PostingIDs is the set-id column of a posting arena: posting i of a list
// is the set PostingIDs[i] of length PostingLens[i]. Set ids fit 4 bytes
// because a collection's offset tables are 32-bit.
type PostingIDs []uint32

// PostingLens is the length column of a posting arena, beside its
// PostingIDs.
type PostingLens []float64

// MemStore keeps all inverted lists in memory as a static flat index:
// one posting arena, held as an id column and a length column, with its
// offset table, and one arena of sampled lengths serving as every list's
// skip index. It is immutable once built and safe for concurrent readers.
type MemStore struct {
	// Token t's (Len, ID)-sorted list is ids[off[t]:off[t+1]] with the
	// lengths lens[off[t]:off[t+1]].
	ids  PostingIDs
	lens PostingLens
	off  []uint32 // NumTokens+1 arena offsets
	// skips[skipOff[t]:skipOff[t+1]] are token t's skip samples: sample j
	// is the length of the weight-list posting at position (j+1)·interval.
	// Position 0 is never sampled: a skip entry there can never shorten a
	// seek, and for the many short lists it would dominate the index size.
	skips    []float64
	skipOff  []uint32
	interval int
	sizes    Sizes
}

// BuildMem constructs a MemStore over every token of c. skipInterval ≤ 0
// selects SkipInterval. The build makes a constant number of allocations
// and sorts nothing but the set ids: filling the buckets in (Len, ID)
// order of the sets leaves every list (Len, ID)-sorted.
func BuildMem(c *collection.Collection, skipInterval int) *MemStore {
	return BuildMemWorkers(c, skipInterval, 1)
}

// BuildMemWorkers is BuildMem on up to workers goroutines, labelled
// stage=index: the tokens are cut into contiguous ranges holding
// near-equal numbers of postings, and each range's lists are filled and
// sampled by one worker, which walks every set in (Len, ID) order and
// writes only its own tokens' cursors, postings and samples. The store
// is BuildMem's, bit for bit and slice for slice.
func BuildMemWorkers(c *collection.Collection, skipInterval, workers int) *MemStore {
	if skipInterval <= 0 {
		skipInterval = SkipInterval
	}
	off := c.TokenOffsets()
	n := c.NumTokens()
	st := &MemStore{
		ids:      make(PostingIDs, off[n]),
		lens:     make(PostingLens, off[n]),
		off:      off,
		skipOff:  make([]uint32, n+1),
		interval: skipInterval,
	}
	for t := 0; t < n; t++ {
		count := int(off[t+1] - off[t])
		st.skipOff[t+1] = st.skipOff[t] + uint32(max(count-1, 0)/skipInterval)
	}
	st.skips = make([]float64, st.skipOff[n])
	order := c.SetsByLength()

	k := par.NumChunks(workers, n)
	var bounds []tokenize.Token
	if k > 1 {
		// Range w is [bounds[w], bounds[w+1]): it starts at the first
		// token whose bucket starts at or past w/k of the arena.
		bounds = make([]tokenize.Token, k+1)
		for w := 1; w < k; w++ {
			i, _ := slices.BinarySearch(off, uint32(uint64(off[n])*uint64(w)/uint64(k)))
			bounds[w] = tokenize.Token(i)
		}
		bounds[k] = tokenize.Token(n)
	}
	// off, shifted up one place, is the fill's cursor table: off[t+1]
	// starts at token t's bucket start and each posting advances it, so
	// it ends at the bucket's end, which is off[t+1] again.
	copy(off[1:], off[:n])
	if k == 1 {
		st.fill(c, order, off[1:], 0, tokenize.Token(n))
	} else {
		par.Chunks(k, k, "index", func(w, _, _ int) {
			st.fill(c, order, off[1:], bounds[w], bounds[w+1])
		})
	}
	st.account(len(st.ids))
	return st
}

// fill lays the postings of the tokens [lo, hi) into the arena, visiting
// the sets in order, then takes their skip samples. next is the cursor
// table: next[t] starts at token t's bucket start and ends at its end.
// fill reads and writes no entry of next, the arena or the samples that
// belongs to a token outside [lo, hi).
func (s *MemStore) fill(c *collection.Collection, order []collection.SetID, next []uint32, lo, hi tokenize.Token) {
	if lo == hi {
		return
	}
	start := next[lo]
	for _, id := range order {
		l := c.Length(id)
		for _, t := range c.Tokens(id) {
			if t < lo {
				continue
			}
			if t >= hi {
				break // a set's tokens ascend
			}
			slot := next[t]
			s.ids[slot], s.lens[slot] = uint32(id), l
			next[t] = slot + 1
		}
	}
	for t := lo; t < hi; t++ {
		lens := s.lens[start:next[t]]
		start = next[t]
		samples := s.skips[s.skipOff[t]:s.skipOff[t+1]]
		for j := range samples {
			samples[j] = lens[(j+1)*s.interval]
		}
	}
}

// account sets the store's Sizes for an arena of the given number of
// postings, 12 bytes each, which the two per-token offset tables locate
// (with the skip samples), and for the skip samples.
func (s *MemStore) account(postings int) {
	s.sizes = Sizes{
		WeightLists: int64(postings)*(idBytes+lenBytes) + 4*int64(len(s.off)+len(s.skipOff)),
		SkipIndexes: int64(len(s.skips)) * skipSampleBytes,
	}
}

// span returns token t's range in the posting arena, empty for a token
// the store does not know.
func (s *MemStore) span(t tokenize.Token) (lo, hi uint32) {
	if int(t) >= len(s.off)-1 {
		return 0, 0
	}
	return s.off[t], s.off[t+1]
}

// WeightCursor implements Store.
func (s *MemStore) WeightCursor(t tokenize.Token) Cursor { return s.WeightCursorReuse(t, nil) }

// WeightCursorReuse implements CursorReuser: prev, when it is a cursor
// this store handed out earlier, is rebound in place — to an exhausted
// cursor for an unknown or empty token, so the caller's cursor slot stays
// reusable either way; otherwise a new cursor is returned.
func (s *MemStore) WeightCursorReuse(t tokenize.Token, prev Cursor) Cursor {
	lo, hi := s.span(t)
	mc, reuse := prev.(*memCursor)
	if !reuse {
		if lo == hi {
			return Empty()
		}
		mc = new(memCursor)
	}
	*mc = memCursor{byLen: true}
	if lo < hi {
		mc.ids, mc.lens = s.ids[lo:hi], s.lens[lo:hi]
		mc.skip = s.skips[s.skipOff[t]:s.skipOff[t+1]]
		mc.interval = s.interval
	}
	return mc
}

// IDCursor opens token t's list in ascending id order: a sorted copy of
// its weight list, made per call. No query path reads it — the merge
// baseline merges the weight lists — and SeekLen does not move it.
func (s *MemStore) IDCursor(t tokenize.Token) Cursor {
	lo, hi := s.span(t)
	order := make([]uint32, hi-lo)
	for i := range order {
		order[i] = lo + uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return cmp.Compare(s.ids[a], s.ids[b]) })
	mc := &memCursor{ids: make(PostingIDs, len(order)), lens: make(PostingLens, len(order))}
	for i, j := range order {
		mc.ids[i], mc.lens[i] = s.ids[j], s.lens[j]
	}
	return mc
}

// ListIDs returns the set ids of token t's list in (Len, ID) order, a
// view of the arena that must not be modified: empty for a token the
// store does not know.
func (s *MemStore) ListIDs(t tokenize.Token) PostingIDs {
	lo, hi := s.span(t)
	return s.ids[lo:hi:hi]
}

// HeadLen returns the length at the head of token t's list in s — by
// Order Preservation the least length of the sets holding t — and false
// when the list is empty. A disk-backed head that fails to read reports
// length 0, which bounds nothing.
func HeadLen(s Store, t tokenize.Token) (float64, bool) {
	if ms, ok := s.(*MemStore); ok {
		lo, hi := ms.span(t)
		if lo == hi {
			return 0, false
		}
		return ms.lens[lo], true
	}
	cur := s.WeightCursor(t)
	if !cur.Valid() {
		return 0, false
	}
	return cur.Posting().Len, true
}

// ListLen implements Store.
func (s *MemStore) ListLen(t tokenize.Token) int {
	lo, hi := s.span(t)
	return int(hi - lo)
}

// Sizes implements Store.
func (s *MemStore) Sizes() Sizes { return s.sizes }

// Close implements Store.
func (s *MemStore) Close() error { return nil }

type memCursor struct {
	ids      PostingIDs
	lens     PostingLens
	skip     []float64 // skip[j] == lens[(j+1)*interval]
	interval int
	// byLen marks a cursor over a length-sorted list, the only kind
	// SeekLen moves (IDCursor's copies are not). It is independent of
	// skip, which is empty for any weight list no longer than one interval.
	byLen bool
	pos   int
}

func (c *memCursor) Valid() bool { return c.pos < len(c.ids) }
func (c *memCursor) Posting() Posting {
	return Posting{ID: collection.SetID(c.ids[c.pos]), Len: c.lens[c.pos]}
}
func (c *memCursor) Next()      { c.pos++ }
func (c *memCursor) Count() int { return len(c.ids) }

// SeekLen jumps via the skip index to the first posting with Len ≥ min.
// Entries before the skip landing point are skipped without being touched
// — those are the savings Fig. 9 measures — and the target is then
// searched for inside the landing block (searchBlock): the postings the
// search compares below it are walked, the rest of the block is skipped.
func (c *memCursor) SeekLen(min float64) (skipped, walked int) {
	if !c.byLen || !c.Valid() || c.lens[c.pos] >= min {
		return 0, 0
	}
	start := c.pos
	lo, end := landing(c.skip, c.interval, min, c.pos, len(c.lens))
	c.pos, walked = searchBlock(c.lens, lo, end, min)
	return c.pos - start - walked, walked
}

// landing returns the block [lo, end) of an n-posting length-sorted list
// that holds the first posting with Len ≥ target, for a cursor at pos
// whose posting is below target. The block starts at the largest sampled
// position whose length is below target — k of the ascending samples are
// below it, and sample j sits at position (j+1)·interval, so that is
// position k·interval (0: none) — or at pos if that is further on; the
// list is length-sorted, so no posting with Len ≥ target can precede it
// and the jump skips only prunable entries. It ends at the next sampled
// position, whose length is target or more, or at the end of the list.
// Both stores land through it, so they skip and walk alike.
func landing(skip []float64, interval int, target float64, pos, n int) (lo, end int) {
	k := sort.SearchFloat64s(skip, target)
	return max(pos, k*interval), min((k+1)*interval, n)
}

// searchBlock returns the first position in [lo, end) of a length-sorted
// list whose length is not below target, or end when there is none, and
// the number of positions it compared below target. It gallops from lo
// (doubling steps, then a binary search of the last step), so a target
// near the landing point costs a comparison or two and one at the far end
// of a block a dozen, where a walk paid one per posting. fileCursor.SeekLen
// runs the same search through its block cache; one copy driven by a
// comparison closure measured slower than the walk it replaces here.
func searchBlock(lens PostingLens, lo, end int, target float64) (pos, walked int) {
	hi, step := lo, 1
	for hi < end && lens[hi] < target {
		walked++
		lo, hi, step = hi+1, hi+step, 2*step
	}
	for hi = min(hi, end); lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if lens[mid] < target {
			walked++
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, walked
}

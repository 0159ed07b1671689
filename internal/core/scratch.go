package core

import (
	"repro/internal/collection"
	"repro/internal/invlist"
	"repro/internal/kernel"
	"repro/internal/relational"
	"repro/internal/tokenize"
)

// queryScratch is the reusable per-query working state of every selection
// algorithm: list states and cursors, candidate slabs with their
// open-addressing index, float and mask arenas, the result buffer, and
// the small buffers of the rescore and the baselines. One scratch serves
// one query at a time; the Engine keeps a sync.Pool of them so a warm
// query allocates nothing on the steady-state path (DESIGN.md,
// "Performance model and allocation discipline").
//
// Invariants every algorithm must respect:
//   - everything reachable from the scratch may be overwritten by the
//     next query: results are copied out before the scratch is pooled,
//     and no pointer into a slab, arena or slice may escape the query;
//   - slabs grow by append, so pointers into them (e.g. &s.imp[i]) are
//     invalidated by insertions — re-take pointers after any append;
//   - each algorithm resets exactly the fields it uses at entry, not at
//     exit, so a panic or early error return cannot poison the pool.
type queryScratch struct {
	lists []listState      // per query-token scan state
	wcurs []invlist.Cursor // reusable weight cursors, slot i ↔ list i

	f0 []float64 // suffix idf² sums (SF/Hybrid), len n+1
	f1 []float64 // λ/µ cutoffs (SF/Hybrid), frontier weights (NRA)

	arena []uint64 // backing storage for candidate mask overflow words
	kw    []uint64 // active-mask overflow words (NRA candidate scans)

	qtok []tokenize.Token // query tokens sorted ascending (rescore's match)
	qpos []int            // query position of each qtok
	qhi  []uint64         // rescore's match-mask overflow words

	tbl idTable // SetID → slab-slot index (also TA's seen-set)

	nra []nraCand // candidate slabs of NRA and iNRA/Hybrid
	imp []impCand

	sfc, sfn []sfCand  // SF's C and the next list's C, both in (len, id) order
	ord      []int32   // iNRA/Hybrid candidate slots in (len, id) order
	ptr      []int32   // per list: ord[:ptr[j]] lies before list j's frontier
	chg      []int     // per list: postings charged to ElementsRead end here (seekTo)
	hord     []int32   // iNRA/Hybrid lists in head (len, id) order while the gate is open
	hat      []int32   // per list: its position in hord
	hsum     []float64 // hsum[k]: idf² sum of hord[:k], len n+1

	results []Result // result accumulator; copied out before pooling

	merge   []mergeEntry            // sort-by-id merge heap
	msrc    []mergeSrc              // its lists' read state
	relToks []relational.QueryToken // SQL baseline's converted tokens
	kth     kthBound                // top-k rising bound
	strs    []string                // Prepare's raw token buffer
}

// newCandMask returns a zeroed candidate mask over n lists. The common
// case (n ≤ 64) is a pure value — one inline word, no arena traffic on
// the admission path. Overflow words are carved out of the scratch
// arena; growing the arena abandons the old backing array rather than
// copying, so masks handed out earlier keep pointing into it and stay
// valid for the rest of the query.
func (s *queryScratch) newCandMask(n int) kernel.Mask {
	words := kernel.HiWords(n)
	if words == 0 {
		return kernel.Mask{}
	}
	if cap(s.arena)-len(s.arena) < words {
		grow := 2*cap(s.arena) + 64*words
		s.arena = make([]uint64, 0, grow)
	}
	m := s.arena[len(s.arena) : len(s.arena)+words]
	s.arena = s.arena[:len(s.arena)+words]
	clear(m)
	return kernel.Mask{Hi: m}
}

// activeMask packs the still-active list indexes — fw[i] > 0, which is
// exact because idf weights are strictly positive, so a live frontier
// always contributes a positive weight — into a scratch-backed mask.
// Built once per candidate scan; the per-candidate sweep then runs on
// words instead of re-testing fw per list per candidate.
func (s *queryScratch) activeMask(fw []float64) kernel.Mask {
	var m kernel.Mask
	if words := kernel.HiWords(len(fw)); words > 0 {
		s.kw = resliceWords(s.kw, words)
		m.Hi = s.kw
	}
	for i, w := range fw {
		if w > 0 {
			m.Set(i)
		}
	}
	return m
}

// getScratch takes a scratch from the engine pool (or builds one).
func (e *Engine) getScratch() *queryScratch {
	if v := e.scratch.Get(); v != nil {
		return v.(*queryScratch)
	}
	return &queryScratch{}
}

// putScratch returns a scratch to the pool. The caller must have copied
// out every result that outlives the query.
func (e *Engine) putScratch(s *queryScratch) { e.scratch.Put(s) }

// idTable is an open-addressing hash index from SetID to a slab slot.
// It replaces the per-query make(map[SetID]*cand) of the candidate sets:
// keys and values live in two flat arrays that are cleared (not freed)
// between queries, and lookups are a multiplicative hash plus a linear
// probe — no per-entry allocation, no map iteration order.
//
// The table supports insert and overwrite but not delete: algorithms
// mark a candidate dead in its slab entry instead of removing the key,
// which keeps probing tombstone-free. A dead slot's key may be re-put to
// point at a fresh slab entry when the id is readmitted.
//
// The table grows at half load. It is pooled with the scratch and keeps
// its high-water capacity, so the load a query probes at is its own
// candidate count against the largest one the scratch has served; short
// linear probes at any load up to one half keep iNRA's and Hybrid's
// per-posting lookup cheap on candidate-dense queries.
type idTable struct {
	keys []collection.SetID
	vals []int32 // slab slot + 1; 0 marks an empty cell
	mask uint32
	used int
}

const idTableMinSize = 64

// reset clears the table for a new query, keeping its capacity.
func (t *idTable) reset() {
	if len(t.vals) == 0 {
		t.keys = make([]collection.SetID, idTableMinSize)
		t.vals = make([]int32, idTableMinSize)
		t.mask = idTableMinSize - 1
	} else {
		clear(t.vals)
	}
	t.used = 0
}

func idHash(id collection.SetID) uint32 {
	return uint32((uint64(id) * 0x9E3779B97F4A7C15) >> 32)
}

// get returns the slab slot for id, or -1 when absent.
func (t *idTable) get(id collection.SetID) int32 {
	i := idHash(id) & t.mask
	for {
		v := t.vals[i]
		if v == 0 {
			return -1
		}
		if t.keys[i] == id {
			return v - 1
		}
		i = (i + 1) & t.mask
	}
}

// put maps id to slot, overwriting any previous mapping.
func (t *idTable) put(id collection.SetID, slot int32) {
	i := idHash(id) & t.mask
	for {
		v := t.vals[i]
		if v == 0 {
			t.keys[i] = id
			t.vals[i] = slot + 1
			t.used++
			if t.used*2 >= len(t.vals) {
				t.grow()
			}
			return
		}
		if t.keys[i] == id {
			t.vals[i] = slot + 1
			return
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the table and rehashes every occupied cell. Amortized
// over a query it is O(1) per insert; across queries the table keeps its
// high-water capacity, so warm queries never grow again.
func (t *idTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	n := len(oldVals) * 2
	t.keys = make([]collection.SetID, n)
	t.vals = make([]int32, n)
	t.mask = uint32(n - 1)
	t.used = 0
	for i, v := range oldVals {
		if v == 0 {
			continue
		}
		id := oldKeys[i]
		j := idHash(id) & t.mask
		for t.vals[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.keys[j] = id
		t.vals[j] = v
		t.used++
	}
}

// resliceFloats returns a zeroed float slice of length n backed by buf,
// growing buf only when its capacity is exceeded.
func resliceFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// resliceWords is resliceFloats for mask overflow words.
func resliceWords(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

package core

import (
	"repro/internal/collection"
	"repro/internal/invlist"
)

// selectSortByID is the multiway-merge baseline of §III-B: the list of
// every query token is scanned in full; a heap over the list heads
// aggregates each id's complete score as it surfaces. It performs no
// pruning — its cost is the total volume of the query lists — but touches
// only sets that share at least one token with the query.
//
// The paper merges id-sorted lists. These are the weight lists, in (len,
// id) order: that order is global (Order Preservation, Property 1), so a
// heap ordered by (len, id) brings every posting of one set to the top
// together exactly as an id heap over id-sorted lists does, and no second
// copy of the lists is kept for this one algorithm.
//
// The heap is hand-rolled over the scratch's mergeEntry slab (container/
// heap boxes every Push/Pop through interface{}). Each entry caches its
// head posting and points at its list's read state in the scratch's
// mergeSrc slab, so a sift moves 32 bytes per entry; MemStore lists are
// iterated as raw columns.
func (e *Engine) selectSortByID(s *queryScratch, cc *canceller, q Query, tau float64, stats *Stats) ([]Result, error) {
	sortQueryTokens(s, q)
	reuser, _ := e.store.(invlist.CursorReuser)
	for len(s.wcurs) < len(q.Tokens) {
		s.wcurs = append(s.wcurs, nil)
	}
	srcs := s.msrc[:0]
	for i, qt := range q.Tokens {
		var cur invlist.Cursor
		if reuser != nil {
			cur = reuser.WeightCursorReuse(qt.Token, s.wcurs[i])
		} else {
			cur = e.store.WeightCursor(qt.Token)
		}
		s.wcurs[i] = cur
		src := mergeSrc{cur: cur}
		if ids, lens, pos, ok := invlist.RawPostings(cur); ok {
			src.ids, src.lens, src.pos = ids, lens, pos
		}
		srcs = append(srcs, src)
	}
	s.msrc = srcs
	h := s.merge[:0]
	defer func() { s.merge = h[:0] }()
	for i := range srcs {
		if src := &srcs[i]; src.valid() {
			stats.ElementsRead++
			h = append(h, mergeEntry{head: src.posting(), idfSq: q.Tokens[i].IDFSq, src: src})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		mergeSiftDown(h, i)
	}

	out := s.results[:0]
	defer func() { s.results = out }()
	for len(h) > 0 {
		if cc.stop() {
			return nil, cc.err
		}
		p := h[0].head
		score := h[0].idfSq / (q.Len * p.Len)
		h = mergeAdvance(h, stats)
		// Aggregate every list positioned at the same id; each pop has
		// a complete score once no head carries that id anymore. A set
		// has one length, so its postings are adjacent in heap order.
		for len(h) > 0 && h[0].head.ID == p.ID {
			score += h[0].idfSq / (q.Len * p.Len)
			h = mergeAdvance(h, stats)
		}
		// The aggregation order above follows heap history, so the
		// accumulated score is only a pre-filter; the canonical rescore
		// decides and supplies the emitted value.
		if meetsPre(score, tau) {
			out = e.emitRescored(s, q, p.ID, tau, out)
		}
	}
	for _, cur := range s.wcurs[:len(q.Tokens)] {
		if err := invlist.Err(cur); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mergeEntry is one list head in the multiway merge: the head posting,
// cached so heap comparisons never touch the list, the list's idf², and
// its read state.
type mergeEntry struct {
	head  invlist.Posting
	idfSq float64
	src   *mergeSrc
}

// mergeSrc is the read state of one merged list. For MemStore lists
// ids/lens/pos iterate the raw arena columns; other lists go through the
// cursor.
type mergeSrc struct {
	cur  invlist.Cursor
	ids  invlist.PostingIDs
	lens invlist.PostingLens
	pos  int
}

func (m *mergeSrc) valid() bool {
	if m.ids != nil {
		return m.pos < len(m.ids)
	}
	return m.cur.Valid()
}

func (m *mergeSrc) posting() invlist.Posting {
	if m.ids != nil {
		return invlist.Posting{ID: collection.SetID(m.ids[m.pos]), Len: m.lens[m.pos]}
	}
	return m.cur.Posting()
}

func (m *mergeSrc) next() {
	if m.ids != nil {
		m.pos++
		return
	}
	m.cur.Next()
}

// mergeAdvance advances the root list, pops it if exhausted, and restores
// the heap order. It returns the (possibly shortened) heap slice.
func mergeAdvance(h []mergeEntry, stats *Stats) []mergeEntry {
	ent := &h[0]
	ent.src.next()
	if ent.src.valid() {
		ent.head = ent.src.posting()
		stats.ElementsRead++
	} else {
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
	}
	mergeSiftDown(h, 0)
	return h
}

// mergeSiftDown restores (len, id) heap order below slot i.
func mergeSiftDown(h []mergeEntry, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && headBefore(h[r].head, h[l].head) {
			m = r
		}
		if !headBefore(h[m].head, h[i].head) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// headBefore reports whether list head a comes strictly before b in
// (len, id) order; the heads of one set are equal, so neither comes
// first. One comparator serves both places of the sift-down: an id-only
// comparison in either one pops a set's postings apart.
func headBefore(a, b invlist.Posting) bool {
	return a.Len < b.Len || (a.Len == b.Len && a.ID < b.ID)
}

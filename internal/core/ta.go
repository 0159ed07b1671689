package core

import (
	"math"

	"repro/internal/collection"
	"repro/internal/invlist"
	"repro/internal/sim"
)

// listState is the per-list scan state shared by the sorted-access
// algorithms: a weight-sorted cursor plus its frontier. For MemStore
// cursors the arena's two columns are captured once at open time
// (ids/lens/pos), so the per-posting hot loop is an indexed slice read
// with no interface dispatch; disk-backed cursors fall back to the Cursor
// interface.
//
// head is the frontier itself, kept as a field the way mergeEntry.head is
// the merge's: the next unread posting, or endOfList once the list has
// ended — run out, or finished by its algorithm. Every move reloads it,
// so the Order Preservation tests that read it on every admission are
// plain loads. A finished list is never moved again: a move would reload
// head and bring the list back.
type listState struct {
	// The fields every admission reads of every list come first, on one
	// cache line.
	head  invlist.Posting
	idfSq float64
	pos   int                 // current index into ids and lens
	ids   invlist.PostingIDs  // raw in-memory list's ids; nil → interface path
	lens  invlist.PostingLens // and their lengths
	cur   invlist.Cursor
}

// endOfList is the head of an ended list. Its infinite length lies past
// every position, so Order Preservation rules every candidate out of the
// list, and it fails every frontier bound's p.Len ≤ hi.
var endOfList = invlist.Posting{Len: math.Inf(1)}

// attach takes up the cursor at its current position: its raw columns,
// when it has them, and its head.
func (l *listState) attach() {
	ids, lens, pos, ok := invlist.RawPostings(l.cur)
	if !ok {
		l.load()
		return
	}
	l.ids, l.lens = ids, lens
	l.setPos(pos)
}

// setPos moves a raw list to position pos and loads its head.
func (l *listState) setPos(pos int) {
	l.pos = pos
	if pos < len(l.ids) {
		l.head = invlist.Posting{ID: collection.SetID(l.ids[pos]), Len: l.lens[pos]}
	} else {
		l.head = endOfList
	}
}

// load sets head from the cursor interface. The raw-slice paths set it
// inline: a call per posting there costs SF measurably.
func (l *listState) load() {
	if l.cur.Valid() {
		l.head = l.cur.Posting()
	} else {
		l.head = endOfList
	}
}

// next advances to the following entry.
func (l *listState) next() {
	if l.ids != nil {
		l.setPos(l.pos + 1)
		return
	}
	l.cur.Next()
	l.load()
}

// finish ends the list: no further posting of it will be read.
func (l *listState) finish() { l.head = endOfList }

// frontier returns the next unread posting. ok is false once the list has
// ended.
func (l *listState) frontier() (invlist.Posting, bool) {
	return l.head, l.head.Len <= math.MaxFloat64
}

// ended reports whether the list has ended.
func (l *listState) ended() bool { return l.head.Len > math.MaxFloat64 }

// seekTo advances the list to the first posting at or after position
// (setLen, id) in weight order and reports false when cancelled. It only
// moves forward, so a caller's targets must not decrease. A raw slice is
// galloped from pos — doubling steps, then a binary search of the last
// step (Ding & König's skip through the long side of an intersection) —
// and a disk-backed cursor takes the skip index to setLen and walks the
// run of equal lengths.
//
// A posting is charged to ElementsRead the first time a search compares
// it, and one passed uncompared to ElementsSkipped. A gallop overshoots
// its landing point, so the postings already charged run ahead of pos:
// *charged counts them (the caller starts it at pos), and a later search
// that compares one of them again does not charge it again.
func (l *listState) seekTo(cc *canceller, setLen float64, id collection.SetID, charged *int, stats *Stats) bool {
	if l.ids == nil {
		// Forward-only seek: the caller visits C in (len, id) order, so the targets never decrease.
		skipped, walked := l.cur.SeekLen(setLen)
		stats.ElementsSkipped += skipped
		stats.ElementsRead += walked
		for l.cur.Valid() && precedes(l.cur.Posting(), setLen, id) {
			if cc.stop() {
				l.load()
				return false
			}
			stats.ElementsRead++
			l.cur.Next()
		}
		l.load()
		return true
	}
	// Everything below lo precedes the target; the answer is in [lo, hi].
	ids, lens, lo, hi := l.ids, l.lens, l.pos, l.pos
	old, top, read := *charged, *charged, stats.ElementsRead
	for step := 1; ; step *= 2 {
		if hi >= len(ids) {
			hi = len(ids)
			break
		}
		if cc.stop() {
			return false
		}
		if hi >= old {
			stats.ElementsRead++
			top = hi + 1
		}
		if !precedesAt(lens[hi], ids[hi], setLen, id) {
			break
		}
		lo = hi + 1
		hi += step
	}
	for lo < hi {
		if cc.stop() {
			return false
		}
		mid := int(uint(lo+hi) >> 1)
		if mid >= old {
			stats.ElementsRead++
			top = max(top, mid+1)
		}
		if precedesAt(lens[mid], ids[mid], setLen, id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	l.setPos(lo)
	top = max(top, lo)
	stats.ElementsSkipped += top - old - (stats.ElementsRead - read)
	*charged = top
	return true
}

// w returns the contribution a set of length len would receive from this
// list: idf²/(len(q)·len(s)).
func (l *listState) w(lenQ, setLen float64) float64 {
	return l.idfSq / (lenQ * setLen)
}

// listsErr surfaces any deferred I/O error from the lists' cursors (disk
// stores report read failures through invlist.Err rather than panicking;
// without this check a failed read would masquerade as list exhaustion).
func listsErr(lists []listState) error {
	for i := range lists {
		if err := invlist.Err(lists[i].cur); err != nil {
			return err
		}
	}
	return nil
}

// openLists opens the weight-sorted cursors into the scratch's list slab
// and, unless length bounding is disabled, positions each at the first
// entry with length ≥ lo — via the skip index, or by counted sequential
// reads when NoSkipIndex is set (the paper's "no index on lengths" mode,
// which reads and discards). Cursors are reused from the scratch's
// cursor slots when the store supports it, so warm queries open lists
// without allocating. The NoSkipIndex walk polls the canceller: it is an
// unbounded sequential scan, so it must be interruptible like every
// other read loop. Callers must check cc.err after openLists returns.
func (e *Engine) openLists(s *queryScratch, cc *canceller, q Query, lo float64, o *Options, stats *Stats) []listState {
	reuser, _ := e.store.(invlist.CursorReuser)
	for len(s.wcurs) < len(q.Tokens) {
		// Cursor-reuse cache: stale cursors are kept on purpose and rebound via WeightCursorReuse below.
		s.wcurs = append(s.wcurs, nil)
	}
	s.lists = s.lists[:0]
	for i, qt := range q.Tokens {
		var cur invlist.Cursor
		if reuser != nil {
			cur = reuser.WeightCursorReuse(qt.Token, s.wcurs[i])
		} else {
			cur = e.store.WeightCursor(qt.Token)
		}
		s.wcurs[i] = cur
		if lo > 0 {
			if o.NoSkipIndex {
				for cur.Valid() && cur.Posting().Len < lo {
					if cc.stop() {
						break
					}
					stats.ElementsRead++
					cur.Next()
				}
			} else {
				skipped, walked := cur.SeekLen(lo)
				stats.ElementsSkipped += skipped
				stats.ElementsRead += walked
			}
		}
		// Attach after seeking so ids/lens/pos and the head reflect the
		// cursor's final position.
		s.lists = append(s.lists, listState{cur: cur, idfSq: qt.IDFSq})
		s.lists[len(s.lists)-1].attach()
	}
	return s.lists
}

// beforeOrAt reports whether posting a precedes or equals position
// (len, id) in weight-list order.
func beforeOrAt(a invlist.Posting, len float64, id collection.SetID) bool {
	if a.Len != len {
		return a.Len < len
	}
	return a.ID <= id
}

// precedes reports whether posting a comes strictly before position
// (len, id) in weight-list order. A set has one length, so a posting with
// the position's id is the position itself.
func precedes(a invlist.Posting, len float64, id collection.SetID) bool {
	return a.ID != id && beforeOrAt(a, len, id)
}

// precedesAt is precedes for the raw-list posting of length pl and id pid.
func precedesAt(pl float64, pid uint32, len float64, id collection.SetID) bool {
	if pl != len {
		return pl < len
	}
	return collection.SetID(pid) < id
}

// selectTA implements the Threshold Algorithm with random accesses: on
// every new id surfaced by sorted access, every other list is probed
// (its membership bitmap) to complete the score immediately. The scan
// stops when the frontier bound F = Σ wᵢ(fᵢ) falls below τ. With
// improved=true this is iTA (§V): Theorem 1 bounds the scanned length
// range and Magnitude Boundedness skips the probes for sets whose
// best-case score cannot reach τ.
func (e *Engine) selectTA(s *queryScratch, cc *canceller, q Query, tau float64, improved bool, o *Options, stats *Stats) ([]Result, error) {
	lo, hi := 0.0, math.MaxFloat64
	if improved {
		lo, hi = lengthWindow(q, tau, o)
	}
	opts := *o
	if !improved {
		opts = Options{NoLengthBound: true}
	}
	lists := e.openLists(s, cc, q, lo, &opts, stats)
	if cc.stop() {
		return nil, cc.err
	}
	var allIdfSq float64
	for _, qt := range q.Tokens {
		allIdfSq += qt.IDFSq
	}

	// The scratch id-table doubles as TA's seen-set (slot value unused).
	seen := &s.tbl
	seen.reset()
	out := s.results[:0]
	for {
		alive := false
		for i := range lists {
			l := &lists[i]
			p, ok := l.frontier()
			if !ok {
				continue
			}
			if cc.stop() {
				s.results = out
				return nil, cc.err
			}
			stats.ElementsRead++
			l.next()
			if p.Len > hi {
				// Theorem 1: nothing below this point can qualify.
				l.finish()
				continue
			}
			alive = true
			if seen.get(p.ID) >= 0 {
				continue
			}
			seen.put(p.ID, 0)
			if improved {
				// Magnitude Boundedness: the best case assumes p
				// appears in every list; if even that misses τ, skip
				// the random accesses entirely.
				if !meetsPre(allIdfSq/(q.Len*p.Len), tau) {
					continue
				}
			}
			// Every other list is probed, so the hits are added in list
			// order, the surfacing list's own weight at its place: SF's
			// order, which makes the sum the canonical score.
			var score float64
			for j := range lists {
				if j != i {
					stats.RandomProbes++
					if !e.member[q.Tokens[j].Token].Contains(uint64(p.ID)) {
						continue
					}
				}
				score += lists[j].w(q.Len, p.Len)
			}
			if sim.Meets(score, tau) {
				out = append(out, Result{ID: p.ID, Score: score})
			}
		}
		stats.Rounds++
		if !alive {
			s.results = out
			return out, listsErr(lists)
		}
		// Unseen-element bound: an id surfacing after every frontier has
		// score at most F.
		if !meetsPre(frontierBound(lists, q.Len, hi), tau) {
			s.results = out
			return out, listsErr(lists)
		}
	}
}

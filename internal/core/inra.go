package core

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/collection"
	"repro/internal/invlist"
	"repro/internal/kernel"
)

// impCand is a candidate of the improved algorithms (iNRA, Hybrid). In
// addition to the NRA state it tracks which lists have been *resolved* —
// seen, or ruled out by Order Preservation / list completion — and the
// idf² mass of the still-unresolved lists, so the Magnitude Boundedness
// upper bound lower + remIdfSq/(len(q)·len(s)) is available at any time.
// Candidates live in the scratch slab; dead marks entries that were
// emitted or pruned (the slab version of map deletion).
type impCand struct {
	id        collection.SetID
	len       float64
	lower     float64
	resolved  kernel.Mask
	nResolved int
	remIdfSq  float64
	dead      bool
}

func (c *impCand) upper(lenQ float64) float64 {
	return c.lower + c.remIdfSq/(lenQ*c.len)
}

// resolveAbsent marks list i as resolved-absent, removing its mass from
// the candidate's upper bound.
func (c *impCand) resolveAbsent(i int, idfSq float64) {
	if c.resolved.Has(i) {
		return
	}
	c.resolved.Set(i)
	c.nResolved++
	c.remIdfSq -= idfSq
	if c.remIdfSq < 0 {
		c.remIdfSq = 0
	}
}

// resolveSeen records that the candidate surfaced in list i.
func (c *impCand) resolveSeen(i int, idfSq, w float64) {
	if c.resolved.Has(i) {
		return
	}
	c.resolved.Set(i)
	c.nResolved++
	c.remIdfSq -= idfSq
	if c.remIdfSq < 0 {
		c.remIdfSq = 0
	}
	c.lower += w
}

// ruledOut applies Order Preservation (Property 1): candidate (len, id)
// is definitively absent from list l if l's frontier has advanced past
// the position (len, id) in weight-list order — which an ended list's
// endOfList head always has.
func ruledOut(l *listState, len float64, id collection.SetID) bool {
	return !beforeOrAt(l.head, len, id)
}

// admit evaluates a newly surfaced posting p, just popped from list j,
// for candidacy: it combines Order Preservation (exclude lists whose
// frontier already passed the posting) with Magnitude Boundedness
// (best-case score from the remaining lists). When the best case reaches
// τ the candidate is appended to the scratch's impCand slab, indexed in
// the scratch id-table, and its slab slot returned; a hopeless posting
// returns -1 with nothing retained.
//
// It reads Order Preservation off the head order, so it must be called
// after j has popped p and before rerank moves j: p is j's old head, and
// j's position k in the order still holds it. The lists that have not
// passed p are then the prefix before k and the lists after it whose head
// is p itself, found by a short scan up to the first head past p at
// position e; every list from e on has passed it (openRank). Most
// postings are hopeless, and that prefix sum plus the scan rejects them
// by a relative margin (rankSlack) without touching the other lists. A
// posting that passes takes its ruled-out lists 0–63 as one word, the OR
// over the order's suffix from e, and gets the exact verdict, upper()'s
// expression computed on locals, with the open lists' idf² summed in
// ascending list order: the decision and the admitted candidate's state
// are bitwise what testing every list's frontier gives. Lists ≥ 64 read
// their place in the order one by one. Only an admitted posting has its
// mask carved, so over more than 64 lists the arena holds overflow words
// for admitted candidates alone.
func admit(s *queryScratch, lists []listState, j int, p invlist.Posting, q Query, tau float64) int32 {
	lower := lists[j].w(q.Len, p.Len)
	possible, e := s.openRank(lists, j, p)
	if !meetsPre(lower+possible*rankSlack/(q.Len*p.Len), tau) {
		return -1
	}
	n := len(lists)
	var passed uint64 // lists 0–63 ruled out; a shift by 64 or more is 0
	for _, r := range s.hord[e:] {
		passed |= 1 << r
	}
	open := ^(passed | 1<<j)
	if n < 64 {
		open &= 1<<n - 1
	}
	possible = 0
	for w := open; w != 0; w &= w - 1 {
		possible += lists[bits.TrailingZeros64(w)].idfSq
	}
	for r := 64; r < n; r++ {
		if r != j && int(s.hat[r]) < e {
			possible += lists[r].idfSq
		}
	}
	if !meetsPre(lower+possible/(q.Len*p.Len), tau) {
		return -1
	}
	resolved := s.newCandMask(n)
	resolved.Lo = passed
	resolved.Set(j)
	if n > 64 {
		for _, r := range s.hord[e:] {
			if r >= 64 {
				resolved.Set(int(r))
			}
		}
	}
	s.imp = append(s.imp, impCand{
		id:        p.ID,
		len:       p.Len,
		lower:     lower,
		resolved:  resolved,
		nResolved: 1 + n - e,
		remIdfSq:  possible,
	})
	slot := int32(len(s.imp) - 1)
	s.tbl.put(p.ID, slot)
	return slot
}

// The head order. While the admission gate is open the scratch keeps the
// lists sorted by head, (len, id): hord holds list indexes in that order,
// hat[j] is list j's position in it, and hsum[k] the idf² sum of
// hord[:k]. A list's head only moves forward, so after each pop the
// popped list moves forward by insertion (rerank), and only the prefix
// sums over the positions it passed are recomputed. By Order
// Preservation the lists that have passed any position (len, id) are
// then a suffix of the order: those from the first head past it on. So
// admission reads a posting's open lists as a prefix sum and a short scan
// and its ruled-out lists as that suffix (admit), and the sweep that
// shuts the gate reads each candidate's as one precomputed suffix word
// (resolvePassed). Each stored sum is a chain of at most n additions of
// positive terms, so it is within n ulps' relative error of the exact sum
// in any order; rankSlack covers that with room to spare for any query of
// fewer than 2²³ lists.
const rankSlack = 1 + 0x1p-30

// rankLists sets up the head order of lists.
func (s *queryScratch) rankLists(lists []listState) {
	n := len(lists)
	s.hord = s.hord[:0]
	for j := range n {
		s.hord = append(s.hord, int32(j))
	}
	slices.SortFunc(s.hord, func(a, b int32) int {
		ha, hb := lists[a].head, lists[b].head
		return cmp.Or(cmp.Compare(ha.Len, hb.Len), cmp.Compare(ha.ID, hb.ID))
	})
	s.hat = slices.Grow(s.hat[:0], n)[:n]
	s.hsum = resliceFloats(s.hsum, n+1)
	for k, j := range s.hord {
		s.hat[j] = int32(k)
		s.hsum[k+1] = s.hsum[k] + lists[j].idfSq
	}
}

// rerank moves list j, whose head has just moved forward (or ended, which
// moves it behind every live list), to its place in the head order, and
// recomputes the prefix sums of the positions it passed.
func (s *queryScratch) rerank(lists []listState, j int) {
	from := int(s.hat[j])
	h := lists[j].head
	k := from
	for ; k+1 < len(s.hord) && headBefore(lists[s.hord[k+1]].head, h); k++ {
		s.hord[k] = s.hord[k+1]
		s.hat[s.hord[k]] = int32(k)
	}
	s.hord[k] = int32(j)
	s.hat[j] = int32(k)
	for r := from; r < k; r++ {
		s.hsum[r+1] = s.hsum[r] + lists[s.hord[r]].idfSq
	}
}

// openRank reads the head order for posting p, which list j has just
// popped and has not yet been reranked past: e is the position of the
// first head past p, so hord[e:] are the lists that have passed it, and
// possible is the prefix sum of the lists before e other than j, within
// rankSlack of their exact idf² sum.
func (s *queryScratch) openRank(lists []listState, j int, p invlist.Posting) (possible float64, e int) {
	k := int(s.hat[j])
	possible = s.hsum[k]
	for e = k + 1; e < len(s.hord); e++ {
		l := &lists[s.hord[e]]
		if ruledOut(l, p.Len, p.ID) {
			break
		}
		possible += l.idfSq // an equal head: the posting is l's frontier too
	}
	return possible, e
}

// suffixMasks sets suf[k] to the lists 0–63 among hord[k:], one bit
// each, for every k from 0 to n: the ruled-out word of every position
// whose heads at or before it number k. The head order must be current.
func (s *queryScratch) suffixMasks() {
	n := len(s.hord)
	s.suf = resliceWords(s.suf, n+1)
	for k := n - 1; k >= 0; k-- {
		s.suf[k] = s.suf[k+1] | 1<<s.hord[k] // a shift by 64 or more is 0
	}
}

// resolvePassed applies Order Preservation to every still-unresolved list
// of c at once: each list whose frontier has passed (c.len, c.id) is
// marked resolved-absent, in ascending list order. The head order,
// current and with suffixMasks built over it, gives lists 0–63 in one
// word: a binary search counts the heads at or before the candidate, and
// the suffix word past them, less the lists already resolved, is the set
// to mark. Lists ≥ 64 test their frontier one by one.
func (s *queryScratch) resolvePassed(c *impCand, lists []listState) {
	k, hi := 0, len(s.hord)
	for k < hi {
		m := int(uint(k+hi) >> 1)
		if ruledOut(&lists[s.hord[m]], c.len, c.id) {
			hi = m
		} else {
			k = m + 1
		}
	}
	// resolveAbsent bit by bit, its mass kept in a register.
	w := s.suf[k] &^ c.resolved.Lo
	c.resolved.Lo |= w
	c.nResolved += bits.OnesCount64(w)
	rem := c.remIdfSq
	for ; w != 0; w &= w - 1 {
		if rem -= lists[bits.TrailingZeros64(w)].idfSq; rem < 0 {
			rem = 0
		}
	}
	c.remIdfSq = rem
	for r := 64; r < len(lists); r++ {
		if ruledOut(&lists[r], c.len, c.id) {
			c.resolveAbsent(r, lists[r].idfSq)
		}
	}
}

// Event-driven Order Preservation. From the sweep that shuts the
// admission gate on, iNRA and Hybrid keep their candidates in one
// sequence s.ord of slab slots in (len, id) order — the order every
// weight list is stored in — and each list j owns a merge pointer s.ptr[j]
// into it: ord[:ptr[j]] are candidates j's frontier has passed and that
// are settled with respect to j, ord[ptr[j]:] everything it has yet to
// pass (nothing once j has ended). Property 1 then decides a candidate's
// absence from j once, at the moment the frontier moves past it, instead
// of a sweep re-deriving every absence every round. It is SF's merge
// pointer, one per list because round-robin advances all lists at once.
// Dead entries stay in the sequence until maxLiveLen pops them off its end.

// resetOrder empties the candidate order and rewinds n list pointers and
// charge marks.
func (s *queryScratch) resetOrder(n int) {
	s.ord = s.ord[:0]
	s.ptr = s.ptr[:0]
	s.chg = s.chg[:0]
	for len(s.ptr) < n {
		s.ptr = append(s.ptr, 0)
		s.chg = append(s.chg, 0)
	}
}

// pop reads list j's frontier posting and moves past it. A posting a
// seek already compared was charged to ElementsRead then (s.chg[j]) and
// is not charged again; before any seek, and always on a disk-backed
// cursor, whose pos stays 0, every pop is charged.
func (s *queryScratch) pop(l *listState, j int, stats *Stats) {
	if l.pos >= s.chg[j] {
		stats.ElementsRead++
	}
	l.next()
}

// seekCandidate is the read step of round-robin list j once F < τ has
// shut the admission gate. From then on the list can only settle the
// candidates it has yet to pass, a short (len, id)-ordered sequence
// against a long list, so instead of reading up to the next of them
// posting by posting it seeks there (listState.seekTo, as SF does past
// µᵢ): the target is the first live entry of ord from ptr[j] on that the
// frontier has not passed — never one behind it, which a cursor's SeekLen
// could not rewind to. With none left the list is finished. The caller's
// pop then reads the posting the seek lands on, an exact hit resolving
// the candidate as seen, and passCandidates settles everything the seek
// jumped over. Reports false when cancelled.
func (s *queryScratch) seekCandidate(cc *canceller, l *listState, j int, stats *Stats) bool {
	p, ok := l.frontier()
	if !ok {
		return true
	}
	for _, slot := range s.ord[s.ptr[j]:] {
		if c := &s.imp[slot]; !c.dead && beforeOrAt(p, c.len, c.id) {
			if p.ID == c.id {
				return true // dense candidates: the frontier is already there
			}
			s.chg[j] = max(s.chg[j], l.pos)
			return l.seekTo(cc, c.len, c.id, &s.chg[j], stats)
		}
	}
	l.finish()
	return true
}

// sortOrder puts the order into (len, id) sequence. SortFunc only calls
// the comparator, so the closure stays on the stack: the warm path's
// allocation budget is unchanged (TestWarmQueryAllocations pins it).
func (s *queryScratch) sortOrder() {
	imp := s.imp
	slices.SortFunc(s.ord, func(a, b int32) int {
		if c := cmp.Compare(imp[a].len, imp[b].len); c != 0 {
			return c
		}
		return cmp.Compare(imp[a].id, imp[b].id)
	})
}

// maxLiveLen pops dead entries off the end of the order and returns the
// length of the last live candidate — Hybrid's maxLen(C) — or -1 when no
// candidate is left alive.
func (s *queryScratch) maxLiveLen() float64 {
	for n := len(s.ord); n > 0; n-- {
		if c := &s.imp[s.ord[n-1]]; !c.dead {
			return c.len
		}
		s.ord = s.ord[:n-1]
		for j, p := range s.ptr {
			if int(p) >= n {
				s.ptr[j] = int32(n - 1)
			}
		}
	}
	return -1
}

// settle retires c once its fate is known: complete (every list resolved)
// it is emitted if it qualifies, and incomplete it is dropped as soon as
// its Magnitude Boundedness upper bound falls below τ. Round-robin
// accumulation order is list-state dependent, so the canonical rescore
// decides and scores the emission.
func (e *Engine) settle(s *queryScratch, q Query, tau float64, c *impCand, n int, out []Result) []Result {
	if c.nResolved == n {
		if meetsPre(c.lower, tau) {
			out = e.emitRescored(s, q, c.id, tau, out)
		}
		c.dead = true
	} else if !meetsPre(c.upper(q.Len), tau) {
		c.dead = true
	}
	return out
}

// passCandidates advances list j's pointer over the candidates its
// frontier has passed — all of them once j has ended; call it after every
// move and every finish of j. Each live one is marked absent from j unless
// it was seen there, and settled. It returns false when the query was
// cancelled.
func (e *Engine) passCandidates(s *queryScratch, cc *canceller, lists []listState, j int, q Query, tau float64, out []Result) ([]Result, bool) {
	l := &lists[j]
	p := l.head
	k := int(s.ptr[j])
	for ; k < len(s.ord); k++ {
		c := &s.imp[s.ord[k]]
		if beforeOrAt(p, c.len, c.id) {
			break
		}
		if c.dead {
			continue
		}
		if cc.stop() {
			return out, false
		}
		c.resolveAbsent(j, l.idfSq)
		out = e.settle(s, q, tau, c, len(lists), out)
	}
	s.ptr[j] = int32(k)
	return out, true
}

// sweep shuts the admission gate: with the head order still current, it
// resolves every candidate's absences by Order Preservation
// (resolvePassed) and settles it, then sorts the survivors into the
// candidate order. Every pointer stays at 0: a list's first pass walks
// over the entries the sweep already resolved in it, changing nothing.
// Reports false when cancelled.
func (e *Engine) sweep(s *queryScratch, cc *canceller, lists []listState, q Query, tau float64, out []Result) ([]Result, bool) {
	s.suffixMasks()
	for ci := range s.imp {
		if cc.stop() {
			return out, false
		}
		c := &s.imp[ci]
		s.resolvePassed(c, lists)
		if out = e.settle(s, q, tau, c, len(lists), out); !c.dead {
			s.ord = append(s.ord, int32(ci))
		}
	}
	s.sortOrder()
	return out, true
}

// completeDense finishes, the moment the sweep has frozen and ordered
// the candidate set, every list that still has postings to read and a
// membership bitmap (Engine.dense). Each live candidate not yet resolved
// in such a list lies at or past its frontier — the sweep has just ruled
// out of it every candidate the frontier passed — so the bitmap holds the
// candidate exactly when the rest of the list does: one bit test, counted
// as a random probe, resolves it as seen (with the summand the
// sequential read would add) or absent, and the candidate is settled. The
// list then has nothing left to settle and is finished, its pointer past
// the whole order. It is completeSF's argument for round-robin; the
// canonical rescore decides every emission, so scores are bitwise the
// same. Reports false when cancelled.
func (e *Engine) completeDense(s *queryScratch, cc *canceller, lists []listState, q Query, tau float64, out []Result, stats *Stats) ([]Result, bool) {
	for j := range lists {
		l := &lists[j]
		bits := e.dense.of(q.Tokens[j].Token)
		if l.ended() || bits == nil {
			continue
		}
		for _, slot := range s.ord {
			c := &s.imp[slot]
			if c.dead || c.resolved.Has(j) {
				continue
			}
			if cc.stop() {
				return out, false
			}
			stats.RandomProbes++
			if has(bits, c.id) {
				c.resolveSeen(j, l.idfSq, l.w(q.Len, c.len))
			} else {
				c.resolveAbsent(j, l.idfSq)
			}
			out = e.settle(s, q, tau, c, len(lists), out)
		}
		l.finish()
		s.ptr[j] = int32(len(s.ord))
	}
	return out, true
}

// frontierBound is F, the best score a set not yet seen in any list could
// still reach: the frontier weights of the lists inside the length window.
// An ended list's endOfList head lies outside every window.
func frontierBound(lists []listState, lenQ, hi float64) float64 {
	var f float64
	for i := range lists {
		if p := lists[i].head; p.Len <= hi {
			f += lists[i].w(lenQ, p.Len)
		}
	}
	return f
}

// selectINRA is Algorithm 2: NRA's round-robin sorted access augmented
// with the three semantic properties of §IV — Length Boundedness to skip
// to τ·len(q) and stop past len(q)/τ, Order Preservation to resolve
// absences from frontiers, and Magnitude Boundedness for tight upper
// bounds — plus the F < τ gate before admitting new candidates and
// before scanning the candidate set.
func (e *Engine) selectINRA(s *queryScratch, cc *canceller, q Query, tau float64, o *Options, stats *Stats) ([]Result, error) {
	lo, hi := lengthWindow(q, tau, o)
	lists := e.openLists(s, cc, q, lo, o, stats)
	sortQueryTokens(s, q)
	return e.roundRobin(s, cc, lists, q, tau, hi, nil, o, stats)
}

// roundRobin is the round-robin loop of iNRA and Hybrid. While F ≥ τ
// nothing is scanned, so no candidate order is kept either: admission
// stays a slab append, and only the lists are kept in head order, so
// that a posting's open and ruled-out lists are read off it instead of a
// pass over them (admit). When F first drops below τ (or no list reads in
// a round) the candidate set is frozen; one sweep settles it off the same
// order (sweep), after which the head order is abandoned, only the
// survivors are ordered, the lists with a membership bitmap are finished
// by bit tests (completeDense), and from then on absences are resolved
// event-driven (passCandidates) and each other list seeks to its next
// live candidate instead of reading up to it (seekCandidate).
//
// mu is nil for iNRA. Hybrid passes its per-list cutoffs µᵢ, and list i
// then sits out a round while its frontier is longer than max(µᵢ, m).
// Until the sweep m is the longest candidate admitted so far: no
// candidate dies while admission is open, so it covers every live one,
// and a list paused on it still resumes when an admission raises it past
// the frontier. From the sweep on m is maxLen(C) itself, read off the
// order right after the list's pass. Both bounds lie inside the length
// window, so a Hybrid list whose frontier has left it pauses for good
// instead of reading one posting past it as iNRA's does.
func (e *Engine) roundRobin(s *queryScratch, cc *canceller, lists []listState, q Query, tau, hi float64, mu []float64, o *Options, stats *Stats) ([]Result, error) {
	n := len(lists)
	s.tbl.reset()
	s.imp = s.imp[:0]
	s.arena = s.arena[:0]
	s.resetOrder(n)
	out := s.results[:0]
	defer func() { s.results = out }()

	s.rankLists(lists)

	admitNew := true // true while F ≥ τ
	seek := false    // the gate has shut and the skip index is on
	m := -1.0        // Hybrid's maxLen(C) bound
	for {
		alive := false
		for i := range lists {
			l := &lists[i]
			if l.ended() {
				continue
			}
			if cc.stop() {
				return nil, cc.err
			}
			if seek && !s.seekCandidate(cc, l, i, stats) {
				return nil, cc.err
			}
			p, ok := l.frontier()
			if mu != nil && ok {
				if !admitNew {
					// Settle what a seek jumped over now: a list it leaves
					// paused does not pop, and maxLen(C) must not count
					// candidates the pass kills.
					if out, ok = e.passCandidates(s, cc, lists, i, q, tau, out); !ok {
						return nil, cc.err
					}
					m = s.maxLiveLen()
				}
				if p.Len > max(mu[i], m) {
					continue // paused; may resume when m grows
				}
			}
			if ok {
				s.pop(l, i, stats)
			}
			if !ok || p.Len > hi {
				l.finish()
			} else {
				alive = true
				if slot := s.tbl.get(p.ID); slot >= 0 && !s.imp[slot].dead {
					s.imp[slot].resolveSeen(i, l.idfSq, l.w(q.Len, p.Len))
				} else if admitNew && admit(s, lists, i, p, q, tau) >= 0 {
					stats.CandidatesInserted++
					m = max(m, p.Len)
				}
			}
			if admitNew {
				s.rerank(lists, i)
			} else if out, ok = e.passCandidates(s, cc, lists, i, q, tau, out); !ok {
				return nil, cc.err
			}
		}
		stats.Rounds++

		if admitNew {
			if alive && meetsPre(frontierBound(lists, q.Len, hi), tau) {
				continue // scanning is pointless while F ≥ τ (§V)
			}
			// F < τ, or every list has ended or paused: no new candidate
			// can qualify. NoSkipIndex, "read and discard instead of
			// seek", keeps the paper's sequential round-robin to the end.
			admitNew = false
			seek = !o.NoSkipIndex
			stats.CandidateScans++
			var ok bool
			if out, ok = e.sweep(s, cc, lists, q, tau, out); !ok {
				return nil, cc.err
			}
			if seek {
				if out, ok = e.completeDense(s, cc, lists, q, tau, out, stats); !ok {
					return nil, cc.err
				}
			}
		}
		// With the gate shut the query is done once no candidate is live.
		// A round with no read gets here with none: every list has ended
		// or paused beyond maxLen(C), so each has passed every candidate
		// and the sweep or its pass settled it (Order Preservation), and
		// no unseen element can qualify (the λ argument).
		if s.maxLiveLen() < 0 {
			return out, listsErr(lists)
		}
	}
}

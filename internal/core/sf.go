package core

import (
	"repro/internal/collection"
	"repro/internal/invlist"
	"repro/internal/sim"
)

// sfCand is a Shortest-First candidate. Because SF consumes lists one at
// a time in decreasing idf order, every candidate has the same set of
// unresolved lists — the unprocessed suffix — so its upper bound is the
// uniform lower + suffixIdfSq/(len(q)·len) and no per-list bit vector is
// needed. That uniformity is what makes SF's bookkeeping so cheap (§VI).
// The paper's candidate list C is a (len, id)-ordered array of these
// values, and each list's scan builds the next list's C beside it.
type sfCand struct {
	id    collection.SetID
	len   float64
	lower float64
}

// selectSF is Algorithm 3. Lists are processed in decreasing idf order
// (Prepare already sorts the query tokens that way). For list i the
// cutoff λᵢ = Σ_{j≥i} idf² / (τ·len(q)) (Eq. 2) bounds the length of any
// *new* viable candidate, and the scan extends past min(λᵢ, len(q)/τ)
// only as far as the longest still-viable candidate, whose score must be
// completed.
//
// C and every list share the (len, id) order (Order Preservation), so one
// merge pass per list does all the candidate work: a merge pointer walks C
// beside the scan, the frontier posting is an old candidate exactly when
// it is the entry under the pointer, and the next list's C is built as the
// scan moves — every old candidate the frontier passes that is still
// viable, and every admitted posting, appended where it stands. A
// candidate dropped from C never needs remembering: its upper bound missed
// τ, and the admission test of every later list is no easier (§9).
func (e *Engine) selectSF(s *queryScratch, cc *canceller, q Query, tau float64, o *Options, stats *Stats) ([]Result, error) {
	lo, hi := lengthWindow(q, tau, o)
	lists := e.openLists(s, cc, q, lo, o, stats)
	n := len(lists)

	// suffix[i] = Σ_{j ≥ i} idf²; suffix[n] = 0.
	suffix := resliceFloats(s.f0, n+1)
	s.f0 = suffix
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + q.Tokens[i].IDFSq
	}
	tauP := tau - sim.ScoreEpsilon - rescoreSlack
	lambda := resliceFloats(s.f1, n)
	s.f1 = lambda
	for i := range lambda {
		lambda[i] = suffix[i] / (tauP * q.Len)
	}

	// C, and the next list's C while a scan builds it; both in (len, id)
	// order.
	c, next := s.sfc[:0], s.sfn[:0]
	for i := range lists {
		l := &lists[i]
		if len(c) == 0 && lambda[i] < lo {
			// No candidates to complete and the admission window
			// [lo, λᵢ] is empty for this and — λ being non-increasing —
			// every remaining list.
			break
		}
		mu := lambda[i]
		if hi < mu {
			mu = hi
		}

		m := 0         // merge pointer: c[:m] is passed, its survivors are in next
		lastOld := 0.0 // length of the last old candidate kept in next
		for p, ok := l.frontier(); ok; p, ok = l.frontier() {
			if cc.stop() {
				s.sfc, s.sfn = c, next
				return nil, cc.err
			}

			// Settle the old candidates the scan has passed: one not seen
			// here is absent from this list (Order Preservation), and a
			// candidate stays viable while lower + the remaining suffix
			// mass meets τ.
			for m < len(c) && sfBefore(&c[m], p) {
				if meetsPre(c[m].lower+suffix[i+1]/(q.Len*c[m].len), tau) {
					next = append(next, c[m])
					lastOld = c[m].len
				}
				m++
			}

			// Stop rule: nothing new past µᵢ can qualify, and nothing
			// old past maxLen(C) needs completing. maxLen(C) is C's last
			// entry until the pointer passes it, then the last old
			// survivor; a newcomer never extends it.
			bound, maxLen := mu, lastOld
			if m < len(c) {
				maxLen = c[len(c)-1].len
			}
			if maxLen > bound {
				bound = maxLen
			}
			if p.Len > bound {
				break
			}
			// Past µᵢ nothing more is admitted: seek to what is left of C
			// instead of reading up to it. NoSkipIndex, "read and discard
			// instead of seek", keeps the paper's sequential completion.
			if p.Len > mu && !o.NoSkipIndex && !meetsPre(suffix[i]/(q.Len*p.Len), tau) {
				var ok bool
				if next, ok = completeSF(cc, l, e.dense.of(q.Tokens[i].Token), c[m:], next, q.Len, suffix[i], suffix[i+1], tau, nil, nil, stats); !ok {
					s.sfc, s.sfn = c, next
					return nil, cc.err
				}
				m = len(c)
				break
			}

			stats.ElementsRead++
			l.next()

			if m < len(c) && c[m].id == p.ID {
				c[m].lower += l.w(q.Len, p.Len)
				continue
			}
			// New candidate: best case is appearing in every remaining
			// list, Σ_{j≥i} idf²/(len(q)·len) — the λᵢ test of line 9.
			if meetsPre(suffix[i]/(q.Len*p.Len), tau) {
				next = append(next, sfCand{id: p.ID, len: p.Len, lower: l.w(q.Len, p.Len)})
				stats.CandidatesInserted++
			}
		}

		// The paper's single candidate scan per list: the entries of C
		// the scan never reached are tested here and carried into next.
		stats.CandidateScans++
		var ok bool
		if next, ok = keepViable(cc, c[m:], next, q.Len, suffix[i+1], tau); !ok {
			s.sfc, s.sfn = c, next
			return nil, cc.err
		}
		c, next = next, c[:0]
	}

	out := s.results[:0]
	for _, cand := range c {
		if sim.Meets(cand.lower, tau) {
			out = append(out, Result{ID: cand.id, Score: cand.lower})
		}
	}
	s.sfc, s.sfn = c, next
	s.results = out
	return out, listsErr(lists)
}

// completeSF finishes a list whose frontier has passed µᵢ. From there on
// the list can admit nothing — the caller has seen the admission test
// itself fail on the frontier posting, which µᵢ restates up to rounding —
// and the paper's SF reads on only to complete the candidates it already
// holds, a few of which lie among very many postings of no interest. A
// candidate that misses τ even with this list's full weight, mass, is
// dropped untested. bits is the list's membership bitmap when the list
// is dense (Engine.dense), nil otherwise. On a dense list each other
// candidate is settled by one bit test, counted as a random probe: the
// unpassed tail of C, rest, lies at or past the frontier, so the bitmap
// holds a candidate exactly when the rest of the list does. On any other
// list rest and the list are both in (len, id) order, so completeSF
// intersects them by seeking the list to each candidate in turn — unless
// the frontier is already there, which the head test settles for one
// comparison and seekTo's charge; the candidates the list ends before are
// absent from it. A candidate found receives the summand the sequential
// scan would have added, so scores are bitwise the same. Each settled
// candidate is appended to next when it stays viable against the
// remaining lists' mass, after. tau is the fixed threshold of a
// selection; with bound set it is the rising top-k threshold instead,
// re-read for every candidate and offered each completed lower bound.
// Reports false when cancelled.
func completeSF(cc *canceller, l *listState, bits []uint64, rest, next []sfCand, lenQ, mass, after, tau float64, bound *kthBound, shared *sharedTau, stats *Stats) ([]sfCand, bool) {
	charged := l.pos
	for j, cand := range rest {
		if cc.stop() {
			return next, false
		}
		if bound != nil {
			tau = liveTau(bound, shared)
		}
		if !meetsPre(cand.lower+mass/(lenQ*cand.len), tau) {
			continue
		}
		found := false
		if bits != nil {
			stats.RandomProbes++
			found = has(bits, cand.id)
		} else {
			if precedes(l.head, cand.len, cand.id) {
				if !l.seekTo(cc, cand.len, cand.id, &charged, stats) {
					return next, false
				}
			} else if l.ids != nil && !l.ended() && l.pos >= charged {
				// What seekTo charges for a search its first comparison ends.
				stats.ElementsRead++
				charged = l.pos + 1
			}
			p, ok := l.frontier()
			if !ok {
				return keepViable(cc, rest[j:], next, lenQ, after, tau)
			}
			found = p.ID == cand.id
		}
		if found {
			cand.lower += l.w(lenQ, cand.len)
			if bound != nil {
				offerShared(bound, shared, cand.id, cand.lower)
			}
		}
		if meetsPre(cand.lower+after/(lenQ*cand.len), tau) {
			next = append(next, cand)
		}
	}
	return next, true
}

// keepViable ends a list for the candidates of C its scan never reached.
// They are absent from the list (Order Preservation), so each is appended
// to next exactly when lower plus the remaining lists' mass, after, still
// meets τ. Reports false when cancelled.
func keepViable(cc *canceller, rest, next []sfCand, lenQ, after, tau float64) ([]sfCand, bool) {
	for _, cand := range rest {
		if cc.stop() {
			return next, false
		}
		if meetsPre(cand.lower+after/(lenQ*cand.len), tau) {
			next = append(next, cand)
		}
	}
	return next, true
}

// sfBefore reports whether candidate cand precedes posting position p in
// weight-list order (strictly).
func sfBefore(cand *sfCand, p invlist.Posting) bool {
	if cand.len != p.Len {
		return cand.len < p.Len
	}
	return cand.id < p.ID
}

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
// Candidates live in the scratch slab; the paper's candidate list C and
// its per-list new arrivals are slices of slab indexes.
type sfCand struct {
	id      collection.SetID
	len     float64
	lower   float64
	seenCur bool // surfaced in the list currently being scanned
	dead    bool
}

// selectSF is Algorithm 3. Lists are processed in decreasing idf order
// (Prepare already sorts the query tokens that way). For list i the
// cutoff λᵢ = Σ_{j≥i} idf² / (τ·len(q)) (Eq. 2) bounds the length of any
// *new* viable candidate, and the scan extends past min(λᵢ, len(q)/τ)
// only as far as the longest still-viable candidate, whose score must be
// completed. Candidates live in a single (len, id)-sorted index slice
// that is merged with each list's new arrivals — one cheap sweep per
// list.
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
	tauP := tau - sim.ScoreEpsilon
	lambda := resliceFloats(s.f1, n)
	s.f1 = lambda
	for i := range lambda {
		lambda[i] = suffix[i] / (tauP * q.Len)
	}

	s.sf = s.sf[:0]
	s.tbl.reset()
	c := s.i0[:0] // sorted by (len, id); the paper's candidate list C

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

		news := s.i1[:0]
		mergePtr := 0            // first old candidate not yet passed
		lastViable := len(c) - 1 // last alive old candidate
		for lastViable >= 0 && s.sf[c[lastViable]].dead {
			lastViable--
		}

		for !l.done && l.valid() {
			if cc.stop() {
				s.i0, s.i1 = c, news
				return nil, cc.err
			}
			p := l.posting()

			// Resolve old candidates the scan has passed: unseen ones
			// are absent from this list (Order Preservation), and any
			// candidate's continued viability is lower + remaining
			// suffix mass.
			for mergePtr < len(c) && sfBefore(&s.sf[c[mergePtr]], p) {
				cand := &s.sf[c[mergePtr]]
				mergePtr++
				if cand.dead {
					continue
				}
				if !sim.Meets(cand.lower+suffix[i+1]/(q.Len*cand.len), tau) {
					cand.dead = true
					for lastViable >= 0 && s.sf[c[lastViable]].dead {
						lastViable--
					}
				}
			}

			// Stop rule: nothing new past µᵢ can qualify, and nothing
			// old past maxLen(C) needs completing.
			bound := mu
			if lastViable >= 0 && s.sf[c[lastViable]].len > bound {
				bound = s.sf[c[lastViable]].len
			}
			if p.Len > bound {
				break
			}
			// Past µᵢ nothing more is admitted: seek to what is left of C
			// instead of reading up to it. NoSkipIndex, "read and discard
			// instead of seek", keeps the paper's sequential completion.
			if p.Len > mu && !o.NoSkipIndex && !sim.Meets(suffix[i]/(q.Len*p.Len), tau) {
				if !completeSF(s, cc, l, c[mergePtr:], q.Len, suffix[i], tau, nil, nil, stats) {
					s.i0, s.i1 = c, news
					return nil, cc.err
				}
				break
			}

			stats.ElementsRead++
			l.next()

			if slot := s.tbl.get(p.ID); slot >= 0 {
				cand := &s.sf[slot]
				if !cand.dead && !cand.seenCur {
					cand.lower += l.w(q.Len, p.Len)
					cand.seenCur = true
				}
				continue
			}
			// New candidate: best case is appearing in every remaining
			// list, Σ_{j≥i} idf²/(len(q)·len) — the λᵢ test of line 9.
			if sim.Meets(suffix[i]/(q.Len*p.Len), tau) {
				s.sf = append(s.sf, sfCand{id: p.ID, len: p.Len, lower: l.w(q.Len, p.Len), seenCur: true})
				slot := int32(len(s.sf) - 1)
				s.tbl.put(p.ID, slot)
				news = append(news, slot)
				stats.CandidatesInserted++
			}
		}

		// End-of-list sweep (the paper's single candidate scan per
		// list): resolve candidates the scan never reached, decide
		// viability with the remaining suffix, merge in the new
		// arrivals, and reset the seen flags.
		stats.CandidateScans++
		merged := s.i2[:0]
		oi, ni := 0, 0
		for oi < len(c) || ni < len(news) {
			if cc.stop() {
				s.i0, s.i1, s.i2 = c, news, merged
				return nil, cc.err
			}
			var slot int32
			if oi < len(c) && (ni >= len(news) || sfCandBefore(&s.sf[c[oi]], &s.sf[news[ni]])) {
				slot = c[oi]
				oi++
				take := &s.sf[slot]
				if take.dead {
					continue
				}
				if !sim.Meets(take.lower+suffix[i+1]/(q.Len*take.len), tau) {
					take.dead = true
					continue
				}
			} else {
				slot = news[ni]
				ni++
			}
			s.sf[slot].seenCur = false
			merged = append(merged, slot)
		}
		// Rotate the index buffers: merged becomes C; the old C's
		// backing array is reused for the next merge target.
		old := c
		c = merged
		s.i1 = news
		s.i2 = old[:0]
	}

	out := s.results[:0]
	for _, slot := range c {
		cand := &s.sf[slot]
		if !cand.dead && sim.Meets(cand.lower, tau) {
			out = append(out, Result{ID: cand.id, Score: cand.lower})
		}
	}
	s.i0 = c
	s.results = out
	return out, listsErr(lists)
}

// completeSF finishes a list whose frontier has passed µᵢ. From there on
// the list can admit nothing — the caller has seen the admission test
// itself fail on the frontier posting, which µᵢ restates up to rounding —
// and the paper's SF reads on only to complete the candidates it already
// holds, a few of which lie among very many postings of no interest. The
// unpassed tail of C, rest, and the list are both in (len, id) order, so
// completeSF intersects them by seeking the list to each live candidate
// in turn. A candidate that misses τ even with this list's full weight
// is dropped unsought; one found receives the summand the sequential scan
// would have added, so scores are bitwise the same; the candidates the
// list ends before are absent from it. Viability against the remaining
// lists is left to the caller's end-of-list sweep, which tests every
// survivor. tau is the fixed threshold of a selection; with bound set it
// is the rising top-k threshold instead, re-read for every candidate and
// offered each completed lower bound. Reports false when cancelled.
func completeSF(s *queryScratch, cc *canceller, l *listState, rest []int32, lenQ, mass, tau float64, bound *kthBound, shared *sharedTau, stats *Stats) bool {
	charged := l.pos
	for _, slot := range rest {
		if cc.stop() {
			return false
		}
		cand := &s.sf[slot]
		if cand.dead {
			continue
		}
		if bound != nil {
			tau = liveTau(bound, shared)
		}
		if !sim.Meets(cand.lower+mass/(lenQ*cand.len), tau) {
			cand.dead = true
			continue
		}
		if !l.seekTo(cc, cand.len, cand.id, &charged, stats) {
			return false
		}
		p, ok := l.frontier()
		if !ok {
			break
		}
		if p.ID == cand.id {
			cand.lower += l.w(lenQ, p.Len)
			if bound != nil {
				offerShared(bound, shared, cand.id, cand.lower)
			}
		}
	}
	return true
}

// sfBefore reports whether candidate cand precedes posting position p in
// weight-list order (strictly).
func sfBefore(cand *sfCand, p invlist.Posting) bool {
	if cand.len != p.Len {
		return cand.len < p.Len
	}
	return cand.id < p.ID
}

func sfCandBefore(a, b *sfCand) bool {
	if a.len != b.len {
		return a.len < b.len
	}
	return a.id < b.id
}

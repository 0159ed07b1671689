package core

import (
	"repro/internal/sim"
)

// selectHybrid is Algorithm 4 (§VII): iNRA's round-robin sorted access
// with SF's per-list stopping rule. List i pauses once its next length
// exceeds max(µᵢ, maxLen(C)) with µᵢ = min(λᵢ, len(q)/τ): beyond that
// point the list can neither produce a new viable candidate (λᵢ) nor
// complete an existing one (maxLen(C)). A paused list resumes if a later
// discovery in a higher-idf list pushes maxLen(C) past its frontier —
// without the resume the algorithm could fail to complete the score of a
// long candidate first seen in an earlier list, so pausing (not the
// paper's literal "mark complete") is required for correctness.
//
// Candidates are one (len, id)-ordered sequence with a merge pointer per
// list (see passCandidates) plus a hash table on ids. Every candidate is
// thereby always resolved against every current frontier and dropped the
// moment it stops being viable, so maxLen(C) is simply the last live entry
// of the sequence — what the paper's "dropping elements repeatedly from
// the back of all lists until a viable candidate is found" computes over
// its per-list partitions. Keeping that bound eager is what holds Hybrid's
// scan depth at or below SF's (Lemma 4): a long candidate that is no
// longer viable must not extend it. Once F < τ a list seeks to its next
// live candidate instead of reading up to it (seekCandidate), as iNRA's
// do.
func (e *Engine) selectHybrid(s *queryScratch, cc *canceller, q Query, tau float64, o *Options, stats *Stats) ([]Result, error) {
	lo, hi := lengthWindow(q, tau, o)
	lists := e.openLists(s, cc, q, lo, o, stats)
	sortQueryTokens(s, q)
	n := len(lists)

	suffix := resliceFloats(s.f0, n+1)
	s.f0 = suffix
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + q.Tokens[i].IDFSq
	}
	tauP := tau - sim.ScoreEpsilon
	mu := resliceFloats(s.f1, n)
	s.f1 = mu
	for i := range mu {
		mu[i] = suffix[i] / (tauP * q.Len)
		if hi < mu[i] {
			mu[i] = hi
		}
	}

	s.tbl.reset()
	s.imp = s.imp[:0]
	s.arena = s.arena[:0]
	s.resetOrder(n)
	out := s.results[:0]
	defer func() { s.results = out }()

	admitNew := true // true while F ≥ τ
	seek := false    // the gate has shut and the skip index is on
	for {
		popped := false
		for i := range lists {
			l := &lists[i]
			if l.ended() {
				continue
			}
			if cc.stop() {
				return nil, cc.err
			}
			if seek {
				if !s.seekCandidate(cc, l, i, stats) {
					return nil, cc.err
				}
				// Settle what the seek jumped over now: a list it leaves
				// paused is not passed again below.
				var live bool
				if out, live = e.passCandidates(s, cc, lists, i, q, tau, out); !live {
					return nil, cc.err
				}
			}
			p, ok := l.frontier()
			if !ok || p.Len > hi {
				l.finish()
			} else {
				need := mu[i]
				if m := s.maxLiveLen(); m > need {
					need = m
				}
				if p.Len > need {
					continue // paused; may resume when maxLen(C) grows
				}
				s.pop(l, i, stats)
				popped = true
				if slot := s.tbl.get(p.ID); slot >= 0 && !s.imp[slot].dead {
					s.imp[slot].resolveSeen(i, l.idfSq, l.w(q.Len, p.Len))
				} else if admitNew {
					if slot := admit(s, lists, i, p, q, tau); slot >= 0 {
						s.orderInsert(slot, i)
						stats.CandidatesInserted++
					}
				}
			}
			if out, ok = e.passCandidates(s, cc, lists, i, q, tau, out); !ok {
				return nil, cc.err
			}
		}
		stats.Rounds++

		if !popped {
			// Every list has ended or is paused beyond maxLen(C): its
			// pointer has passed every candidate, so all of them are settled
			// (Order Preservation), and no unseen element can qualify
			// (the λ argument).
			return out, listsErr(lists)
		}
		if admitNew {
			if sim.Meets(frontierBound(lists, q.Len, hi), tau) {
				continue
			}
			admitNew = false // F only falls: the gate stays shut
			seek = !o.NoSkipIndex
		}
		if s.maxLiveLen() < 0 {
			return out, listsErr(lists)
		}
	}
}

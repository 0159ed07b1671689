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
// Everything else is iNRA's loop (roundRobin): admission is a slab
// append while F ≥ τ, one sweep freezes the candidate set, and from then
// on a merge pointer per list settles candidates as the frontiers pass
// them, so maxLen(C) is the last live entry of the (len, id)-ordered
// sequence. Until that sweep nothing dies, and the pause bound is the
// longest candidate admitted so far. That bound is looser than the
// paper's eager maxLen(C), so a list may read past the point where the
// last live candidate has become hopeless: Hybrid trades a few reads
// (Lemma 4's scan depth) for not resolving every candidate after every
// pop.
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
	tauP := tau - sim.ScoreEpsilon - rescoreSlack
	mu := resliceFloats(s.f1, n)
	s.f1 = mu
	for i := range mu {
		mu[i] = suffix[i] / (tauP * q.Len)
		if hi < mu[i] {
			mu[i] = hi
		}
	}

	return e.roundRobin(s, cc, lists, q, tau, hi, mu, o, stats)
}

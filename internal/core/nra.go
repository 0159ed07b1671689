package core

import (
	"repro/internal/collection"
	"repro/internal/kernel"
)

// nraCand is a candidate of the classic NRA (Algorithm 1): a lower bound
// accumulated from sorted accesses plus a bit mask of the lists it has
// been seen in. Upper bounds come from the list frontiers, not from the
// candidate's own length — plain NRA does not exploit the semantic
// properties of IDF. Candidates live in the scratch slab; dead marks
// entries that were emitted or pruned (the slab version of map deletion).
type nraCand struct {
	id    collection.SetID
	lower float64
	seen  kernel.Mask
	dead  bool
}

// selectNRA implements Algorithm 1 with the two mitigations the paper
// itself applied to make it terminate at all (§VIII-A): candidate-set
// scans are skipped while the unseen-element bound F still reaches τ, and
// a scan stops early at the first still-viable candidate.
//
// The candidate scan is the NRA hot spot the kernels target: per
// candidate, the unseen frontier mass is summed by iterating the word
// complement seen∧active (kernel.UpperAbsent) instead of branching on
// every list index, and a dead-prefix watermark keeps each scan from
// re-walking candidates that were pruned or emitted in earlier rounds
// (dead is permanent: a readmitted id gets a fresh slab entry).
func (e *Engine) selectNRA(s *queryScratch, cc *canceller, q Query, tau float64, stats *Stats) ([]Result, error) {
	lists := e.openLists(s, cc, q, 0, &Options{NoLengthBound: true}, stats)
	sortQueryTokens(s, q)
	n := len(lists)
	s.tbl.reset()
	s.nra = s.nra[:0]
	s.arena = s.arena[:0]
	live := 0
	out := s.results[:0]
	defer func() { s.results = out }()

	// Frontier contributions fw, for upper bounds and the F gate, are
	// maintained in place: the round-robin advance refreshes fw[i] the
	// moment list i moves, so no pass re-derives every frontier.
	fw := resliceFloats(s.f1, n)
	s.f1 = fw
	for i := range lists {
		if p, ok := lists[i].frontier(); ok {
			fw[i] = lists[i].w(q.Len, p.Len)
		}
	}
	scanFrom := 0 // s.nra[:scanFrom] is all dead; dead never revives

	for {
		alive := false
		for i := range lists {
			l := &lists[i]
			if cc.stop() {
				return nil, cc.err
			}
			p, ok := l.frontier()
			if !ok {
				fw[i] = 0
				continue
			}
			alive = true
			stats.ElementsRead++
			l.next()
			if np, ok := l.frontier(); ok {
				fw[i] = l.w(q.Len, np.Len)
			} else {
				fw[i] = 0
			}
			slot := s.tbl.get(p.ID)
			if slot < 0 || s.nra[slot].dead {
				s.nra = append(s.nra, nraCand{id: p.ID, seen: s.newCandMask(n)})
				slot = int32(len(s.nra) - 1)
				s.tbl.put(p.ID, slot)
				live++
				stats.CandidatesInserted++
			}
			c := &s.nra[slot]
			if !c.seen.Has(i) {
				c.seen.Set(i)
				c.lower += l.w(q.Len, p.Len)
			}
		}
		stats.Rounds++

		// Unseen-element bound F. Exhausted lists hold fw[i] == 0, and
		// adding +0 is a bitwise no-op on the non-negative weights, so
		// the sum matches the recompute-from-frontiers form exactly.
		var f float64
		for i := range fw {
			f += fw[i]
		}

		switch {
		case !alive:
			// Every list exhausted: all scores are complete.
			for ci := scanFrom; ci < len(s.nra); ci++ {
				c := &s.nra[ci]
				// Round-robin accumulation order is list-state
				// dependent; the canonical rescore decides and scores
				// the emission (here and at every completion below).
				if !c.dead && meetsPre(c.lower, tau) {
					out = e.emitRescored(s, q, c.id, tau, out)
				}
			}
			return out, listsErr(lists)

		case !meetsPre(f, tau):
			// Scan the candidate set (mitigation: only once F < τ).
			stats.CandidateScans++
			active := s.activeMask(fw)
			for ci := scanFrom; ci < len(s.nra); ci++ {
				c := &s.nra[ci]
				if c.dead {
					if ci == scanFrom {
						scanFrom++
					}
					continue
				}
				if cc.stop() {
					return nil, cc.err
				}
				upper, complete := kernel.UpperAbsent(c.lower, &c.seen, &active, fw)
				if complete {
					if meetsPre(c.lower, tau) {
						out = e.emitRescored(s, q, c.id, tau, out)
					}
					c.dead = true
					live--
					if ci == scanFrom {
						scanFrom++
					}
					continue
				}
				if !meetsPre(upper, tau) {
					c.dead = true
					live--
					if ci == scanFrom {
						scanFrom++
					}
					continue
				}
				// Early termination at the first viable candidate.
				break
			}
			if live == 0 {
				return out, listsErr(lists)
			}
		}
	}
}

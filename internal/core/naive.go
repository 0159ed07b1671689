package core

import (
	"repro/internal/collection"
	"repro/internal/sim"
)

// selectNaive scans the whole collection, scoring every set from Eq. 1
// with the query's precomputed weights (including the length mass of
// out-of-vocabulary tokens, which the inverted-list algorithms also carry
// in q.Len) by the canonical rescore, so every other algorithm's answer
// is bitwise its own. It is the correctness oracle for all indexed
// algorithms and the "no index available" case of §III-A, where a linear
// scan of the base table is unavoidable.
func (e *Engine) selectNaive(s *queryScratch, cc *canceller, q Query, tau float64, stats *Stats) ([]Result, error) {
	sortQueryTokens(s, q)
	out := s.results[:0]
	defer func() { s.results = out }()
	//ssvet:nostats base-table scan reads sets, not postings; ElementsRead/ListTotal measure inverted-index access only
	for id := 0; id < e.c.NumSets(); id++ {
		if cc.stop() {
			return nil, cc.err
		}
		sid := collection.SetID(id)
		score := e.rescore(s, q, sid)
		if score <= 0 {
			continue
		}
		if sim.Meets(score, tau) {
			out = append(out, Result{ID: sid, Score: score})
		}
	}
	return out, nil
}

package core

import "repro/internal/relational"

// selectSQL runs the relational baseline of §III-A: clustered-index range
// scans per query gram feeding a hash group-by. Length Bounding becomes a
// SARGable length predicate on the composite index, over the window
// every algorithm reads. The group-by's sum follows the relational
// engine's order, so it only pre-selects, with meetsPre, and the
// canonical rescore makes the emission decision. The canceller is
// threaded into the plan's row loop as a stop callback, so a cancelled
// query abandons the range scans mid-stream. The token and result buffers
// come from the query scratch; the relational engine's own group-by state
// is outside this layer's allocation discipline.
func (e *Engine) selectSQL(s *queryScratch, cc *canceller, q Query, tau float64, o *Options, stats *Stats) ([]Result, error) {
	if cap(s.relToks) < len(q.Tokens) {
		s.relToks = make([]relational.QueryToken, len(q.Tokens))
	}
	toks := s.relToks[:len(q.Tokens)]
	for i, qt := range q.Tokens {
		toks[i] = relational.QueryToken{Gram: qt.Token, IDFSq: qt.IDFSq}
	}
	lo, hi := lengthWindow(q, tau, o)
	pre := func(score float64) bool { return meetsPre(score, tau) }
	matches, scan, stopped := e.rel.SelectStop(toks, q.Len, lo, hi, pre, cc.stop)
	stats.ElementsRead += scan.RowsScanned
	if stopped {
		return nil, cc.err
	}
	sortQueryTokens(s, q)
	out := s.results[:0]
	for _, m := range matches {
		out = e.emitRescored(s, q, m.ID, tau, out)
	}
	s.results = out
	return out, nil
}

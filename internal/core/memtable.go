// The memtable scan: recent inserts are not indexed — each query walks
// the (small, flush-bounded) memtable linearly, intersecting its sorted
// distinct tokens with the query's by a string merge. Correctness does
// not depend on the memtable being small, only latency does; the flush
// threshold bounds it.
package core

import (
	"repro/internal/kernel"
	"repro/internal/sim"
)

// memQuery is the memtable half of a LiveQuery: the query's sorted
// distinct token strings with their squared idf weights under the global
// statistics pinned at Prepare time, plus the normalized query length.
type memQuery struct {
	toks  []string
	idfSq []float64
	qLen  float64
}

// scanMemtable appends every live memtable document scoring ≥ τ to out.
// Documents are scanned in insertion order, which is ascending id order,
// so the appended results extend an already-ascending result slice
// without re-sorting when the caller merges a single segment. A top-k
// passes the k-th bound its segments raised as τ: the memtable runs
// last, so only documents that can still make the top k are appended.
func scanMemtable(cc *canceller, mem []memDoc, mq memQuery, tau float64, del *tombstones, stats *Stats, out []Result) ([]Result, error) {
	for _, d := range mem {
		if cc.stop() {
			return out, cc.err
		}
		if del.has(d.id) {
			stats.ElementsSkipped++
			continue
		}
		stats.ElementsRead++
		// kernel.DotStrings is the same ascending-order merge this loop
		// always ran (with a galloping cutover for long documents), so
		// live scores stay bitwise identical to the segment path's.
		dot := kernel.DotStrings(d.toks, mq.toks, mq.idfSq)
		if dot <= 0 {
			continue
		}
		score := dot / (mq.qLen * d.len)
		if sim.Meets(score, tau) {
			out = append(out, Result{ID: d.id, Score: score})
		}
	}
	return out, nil
}

// The memtable scan: recent inserts are not in any segment, but each
// shard's memtable keeps inverted lists of memtable positions, keyed by
// store token id (LiveEngine.memIdx), so a query touches only the
// documents that share a token with it. Each position accumulates its summands
// idf²/(len(q)·len(d)) in decreasing idf, the order every static
// algorithm adds a set's weights in (core/rescore.go), so the order of
// the summands does not depend on how tokens are named. Nor do the
// lengths len(q) and len(d): each is one sim.SumSq, as a segment's are,
// so a flush moves no score bit. Correctness does not depend on the
// memtable being small, only latency does; the flush threshold bounds
// it.
package core

import (
	"repro/internal/sim"
	"repro/internal/tokenize"
)

// memQuery is the memtable half of a LiveQuery: the query's distinct
// tokens in decreasing idf, each with its store id and squared idf
// weight under the global statistics pinned at Prepare time, the
// normalized query length, and the memtable lists of those tokens as of
// the pinned snapshot.
type memQuery struct {
	toks []memToken
	qLen float64
	// lists[si*len(toks)+i] is shard si's memtable list of toks[i]. It is
	// nil when no shard of the pinned snapshot had a memtable.
	lists [][]int32
}

// memToken is one distinct query token of a memQuery.
type memToken struct {
	id    tokenize.Token // store id; noToken when the store lacks it
	idfSq float64
}

// shardLists returns shard si's memtable lists, parallel to toks.
func (mq *memQuery) shardLists(si int) [][]int32 {
	n := len(mq.toks)
	return mq.lists[si*n : (si+1)*n]
}

// memListsLocked copies the headers of toks' memtable lists for every
// shard of snap holding a memtable: one integer-keyed probe per token
// and memtable. le.mu must be held: it is what makes the lists and the
// snapshot's memtables agree on every position.
func (le *LiveEngine) memListsLocked(snap *liveSnapshot, toks []memToken) [][]int32 {
	if snap.memDocs() == 0 {
		return nil
	}
	lists := make([][]int32, len(snap.shards)*len(toks))
	for si := range snap.shards {
		if len(snap.shards[si].mem) == 0 {
			continue
		}
		idx := le.memIdx[si]
		for i, t := range toks {
			if t.id != noToken {
				lists[si*len(toks)+i] = idx[t.id]
			}
		}
	}
	return lists
}

// scanMemtable appends every live memtable document scoring ≥ τ to out.
// lists are the shard's memtable lists of the query's tokens, pinned
// with mem. Each posting of token i adds idfSq[i]/(qLen·len(d)) to its
// position's accumulator, in ascending i; positions are then emitted in
// ascending order, which is ascending id order, so the appended results
// extend an already-ascending result slice without re-sorting when the
// caller merges a single segment. A top-k passes the k-th bound its
// segments raised as τ: the memtable runs last, so only documents that
// can still make the top k are appended.
func (le *LiveEngine) scanMemtable(cc *canceller, mem []memDoc, lists [][]int32, mq *memQuery, tau float64, del *tombstones, stats *Stats, out []Result) ([]Result, error) {
	p, _ := le.memAcc.Get().(*[]float64)
	if p == nil {
		p = new([]float64)
	}
	defer le.memAcc.Put(p)
	if cap(*p) < len(mem) {
		*p = make([]float64, len(mem))
	}
	acc := (*p)[:len(mem)]
	clear(acc)
	for _, l := range lists {
		stats.ListTotal += len(l)
	}
	for i, l := range lists {
		if cc.stop() {
			return out, cc.err
		}
		w := mq.toks[i].idfSq
		for _, pos := range l {
			acc[pos] += w / (mq.qLen * mem[pos].len)
		}
	}
	for pos, score := range acc {
		// Weights are positive, so only untouched positions hold 0.
		if score <= 0 {
			continue
		}
		if cc.stop() {
			return out, cc.err
		}
		d := &mem[pos]
		if del.has(d.id) {
			stats.ElementsSkipped++
			continue
		}
		stats.ElementsRead++
		if sim.Meets(score, tau) {
			out = append(out, Result{ID: d.id, Score: score})
		}
	}
	return out, nil
}

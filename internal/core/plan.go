// The query pipeline's plan and route stages. Every selection entry
// point of every engine shape — monolithic Engine, ShardedEngine,
// LiveEngine — runs the same four stages:
//
//	plan    validate τ/k/Options once and resolve the algorithm
//	        (this file);
//	route   before anything runs, drop the segments whose
//	        route.Summary bound cannot meet the plan and order the
//	        surviving shards (this file);
//	execute run the planned algorithm per segment, ctx-polled, on the
//	        segment engine's pooled scratch — a lone shard on the
//	        caller, a fleet on the process's one executor (exec.go);
//	merge   fold the answers — concat + ascending-id sort for
//	        threshold selection, score sort + cut to k with the
//	        CAS-circulated sharedTau bound for top-k (exec.go).
//
// There are two execution spines: Engine.runPlan runs a plan on one
// engine, and LiveEngine.runLivePlan runs it on a pinned snapshot by
// composing runPlan over the segments. The shape files are thin
// adapters: core.go, topk.go and batch.go over the first; live.go over
// the second; and shard.go, whose ShardedEngine is a view of a compacted
// LiveEngine, over the second too. The bound arithmetic the route stage
// consumes lives in shardprune.go.
package core

import (
	"errors"
	"math"

	"repro/internal/collection"
	"repro/internal/route"
	"repro/internal/sim"
)

// planKind selects the pipeline's merge discipline.
type planKind uint8

const (
	planSelect planKind = iota // threshold: every s with I(q,s) ≥ τ, id-sorted
	planTopK                   // k best: rising sharedTau bound, score-sorted
)

// queryPlan is the resolved, validated description of one query run.
// It is built once per call and passed by value down the pipeline, so
// per-shard executions cannot drift from each other's parameters.
type queryPlan struct {
	kind planKind
	alg  Algorithm
	tau  float64 // validated threshold (planSelect only)
	k    int     // result budget (planTopK only)
	opts Options
	// live is the liveness view of the segment a live top-k runs on. The
	// zero view — static engines, threshold selections, segments with no
	// tombstones — filters nothing.
	live liveView
}

// liveView lets a top-k algorithm running on one live segment keep
// tombstoned documents out of its candidate set, so the rising k-th
// bound counts live documents only and k stays k however many deletes
// the segment carries.
type liveView struct {
	ids []collection.SetID // the segment's local id → global id
	del *tombstones        // the query's pinned tombstone bitmap
}

// dead reports whether the segment-local document id is tombstoned.
func (v *liveView) dead(id collection.SetID) bool {
	return v.ids != nil && v.del.has(v.ids[id])
}

// errEmptyTopK is the plan-stage sentinel for k ≤ 0: the historical
// contract of every top-k entry point is empty results, zero Stats and
// a nil error without running anything. planDone translates it.
var errEmptyTopK = errors.New("core: top-k with k <= 0")

// planDone maps a failed plan to the public contract shared by every
// entry point: the k ≤ 0 sentinel becomes a silent empty answer, and
// every real validation error surfaces with nil results and zero-valued
// Stats (the unified error path, pinned by TestErrorPathStatsContract).
func planDone(err error) ([]Result, Stats, error) {
	if err == errEmptyTopK {
		return nil, Stats{}, nil
	}
	return nil, Stats{}, err
}

// planQuery is the pipeline's one validation gate — the only place
// outside tests where ErrEmptyQuery and ErrBadThreshold are produced.
// Every entry point of every engine shape funnels through it, so the
// τ domain (0, 1+ε] and the k and emptiness rules cannot drift apart
// between shapes again.
func planQuery(kind planKind, empty bool, tau float64, k int, alg Algorithm, opts *Options) (queryPlan, error) {
	p := queryPlan{kind: kind, alg: alg, tau: tau, k: k}
	if opts != nil {
		p.opts = *opts
	}
	if empty {
		return p, ErrEmptyQuery
	}
	switch kind {
	case planSelect:
		if tau <= 0 || tau > 1+sim.ScoreEpsilon {
			return p, ErrBadThreshold
		}
	case planTopK:
		if k <= 0 {
			return p, errEmptyTopK
		}
	}
	return p, nil
}

// selectPlan plans a threshold selection over a prepared Query.
func selectPlan(q Query, tau float64, alg Algorithm, opts *Options) (queryPlan, error) {
	return planQuery(planSelect, len(q.Tokens) == 0, tau, 0, alg, opts)
}

// topkPlan plans a top-k query over a prepared Query.
func topkPlan(q Query, k int, alg Algorithm, opts *Options) (queryPlan, error) {
	return planQuery(planTopK, len(q.Tokens) == 0, 0, k, alg, opts)
}

// livePlan plans against a snapshot-pinned LiveQuery. The emptiness
// test also covers the zero-value LiveQuery (nil snapshot) and a query
// none of whose tokens occur in the live corpus.
func livePlan(kind planKind, lq LiveQuery, tau float64, k int, alg Algorithm, opts *Options) (queryPlan, error) {
	empty := lq.snap == nil || len(lq.mem.toks) == 0 || !lq.known
	return planQuery(kind, empty, tau, k, alg, opts)
}

// shardActive reports whether a summarized segment can contribute to
// the plan, given its precomputed summary bound b. A threshold selection
// additionally requires the segment's length range to intersect the
// Theorem 1 window of q — the segment's own query, prepared against its
// own baked statistics — and the bound to reach τ. Top-k keeps every
// token-sharing segment — the k-th score is unknown until segments run;
// runShard's mid-flight recheck prunes against the risen sharedTau
// instead.
func shardActive(sum *route.Summary, b float64, q Query, p *queryPlan) bool {
	if sum.Docs() == 0 || b <= 0 {
		return false
	}
	if p.kind != planSelect {
		return true
	}
	lo, hi := lengthWindow(q, p.tau, &p.opts)
	sLo, sHi := sum.LenRange()
	return sHi >= lo && sLo <= hi && boundMeets(b, p.tau)
}

// route is the route stage of one query, run before the fan-out. Every
// summarized segment's route.Summary is folded into a bound on the
// scores the segment can produce (shardBound), and a segment whose bound
// cannot meet the plan (shardActive) is dropped, its postings accounted as
// skipped in its shard's Stats; a segment the query shares no token with
// is dropped too. It returns the shards left to visit — those keeping a
// segment or holding a memtable — in visit order: shard order for a
// threshold selection; for a top-k, descending order of each shard's best
// segment bound (a memtable ranks first; stable, so equal bounds keep the
// lower shard first), so the shards most
// likely to hold the global top-k run first and raise the shared bound
// that runShard rechecks for the tail.
func (fb *fanBuffers) route() []int32 {
	lq, p := &fb.lq, &fb.p
	act := fb.order[:0]
	fb.bounds = fb.bounds[:0]
	var checks, skipped uint64
	for si := range lq.snap.shards {
		sh := &lq.snap.shards[si]
		fb.at[si] = len(fb.bounds)
		key, visit := math.Inf(-1), len(sh.mem) > 0
		if visit {
			key = math.Inf(1)
		}
		for i, g := range sh.segs {
			q := lq.segQuery(si, i)
			b := -1.0
			if len(q.Tokens) > 0 {
				checks++
				if b = shardBound(g.sum, q); !shardActive(g.sum, b, q, p) {
					addStats(&fb.sts[si], skipStats(g.eng, q))
					skipped++
					b = -1
				}
			}
			fb.bounds = append(fb.bounds, b)
			if b >= 0 {
				visit, key = true, max(key, b)
			}
		}
		if visit {
			fb.keys[si] = key
			act = append(act, int32(si))
		}
	}
	if checks > 0 {
		fb.le.boundChecks.Add(checks)
		fb.le.shardsSkipped.Add(skipped)
	}
	if p.kind == planTopK {
		// Stable insertion sort on strict >: equal keys never swap.
		for i := 1; i < len(act); i++ {
			for j := i; j > 0 && fb.keys[act[j]] > fb.keys[act[j-1]]; j-- {
				act[j], act[j-1] = act[j-1], act[j]
			}
		}
	}
	fb.order = act
	return act
}

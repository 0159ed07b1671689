// The query pipeline's plan and route stages. Every selection entry
// point of every engine shape — monolithic Engine, ShardedEngine,
// LiveEngine — runs the same four stages:
//
//	plan    validate τ/k/Options once, resolve the algorithm and
//	        compute the Theorem 1 length window (this file);
//	route   pick the shard set and execution order from the per-shard
//	        route.Summary bounds (this file);
//	execute run the planned algorithm per shard/segment, ctx-polled,
//	        on the engine's pooled scratch (exec.go);
//	merge   fold the answers — concat + ascending-id sort for
//	        threshold selection, score sort + cut to k with the
//	        CAS-circulated sharedTau bound for top-k (exec.go).
//
// The shape files (core.go, topk.go, shard.go, live.go, batch.go)
// are thin adapters over this spine: plan construction plus
// shape-specific snapshot acquisition. The bound arithmetic the route
// stage consumes lives in shardprune.go.
package core

import (
	"errors"

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
	// lo, hi is the Theorem 1 length window of the planning query
	// (planSelect only). Live plans leave it zero: each segment
	// prepares its own Query against its own baked statistics, so the
	// route stage recomputes the window per segment.
	lo, hi float64
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
	p, err := planQuery(planSelect, len(q.Tokens) == 0, tau, 0, alg, opts)
	if err != nil {
		return p, err
	}
	p.lo, p.hi = lengthWindow(q, tau, &p.opts)
	return p, nil
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

// shardActive reports whether a summarized shard (or live segment) can
// contribute to the plan, given its precomputed summary bound b. A
// threshold selection additionally requires the shard's length range to
// intersect the plan's Theorem 1 window and the bound to reach τ.
// Top-k keeps every token-sharing shard — the k-th score is unknown
// until shards run; the executor's mid-flight recheck prunes against
// the risen sharedTau instead.
func shardActive(sum *route.Summary, b float64, p *queryPlan) bool {
	if sum.Docs() == 0 || b <= 0 {
		return false
	}
	if p.kind != planSelect {
		return true
	}
	sLo, sHi := sum.LenRange()
	return sHi >= p.lo && sLo <= p.hi && boundMeets(b, p.tau)
}

// routeShards is the route stage of one sharded query: it fills the fan
// buffers (per-shard summary bounds, skip accounting for pruned shards)
// and returns the shards the execute stage must visit. Threshold
// selections visit the surviving set in shard order; top-k visits in
// descending summary-bound order (stable — equal bounds keep the lower
// shard first) so the shards most likely to hold the global top-k run
// first and raise the shared bound for the tail, and the second return
// enables the mid-flight sharedTau recheck. Unrouted fleets visit
// everything.
func (se *ShardedEngine) routeShards(fb *fanBuffers, q Query, p *queryPlan) ([]int32, bool) {
	act := fb.order[:0]
	if se.sums == nil {
		for sh := range se.shards {
			act = append(act, int32(sh))
		}
		return act, false
	}
	var skipped uint64
	for sh := range se.shards {
		sum := se.sums[sh]
		b := shardBound(sum, q)
		fb.bounds[sh] = b
		if !shardActive(sum, b, p) {
			fb.sts[sh] = skipStats(se.shards[sh], q)
			skipped++
			continue
		}
		act = append(act, int32(sh))
	}
	se.boundChecks.Add(uint64(len(se.shards)))
	se.shardsSkipped.Add(skipped)
	if p.kind != planTopK {
		return act, false
	}
	// Stable insertion sort on strict >: equal bounds never swap, so the
	// ascending shard order of act breaks ties deterministically.
	for i := 1; i < len(act); i++ {
		for j := i; j > 0 && fb.bounds[act[j]] > fb.bounds[act[j-1]]; j-- {
			act[j], act[j-1] = act[j-1], act[j]
		}
	}
	return act, true
}

// The query pipeline's execute and merge stages (plan and route live in
// plan.go). One spine serves every engine shape: Engine.runPlan is the
// single-engine execution (also the per-shard and per-segment unit of
// the fan-outs), ShardedEngine.runFan is the scatter-gather execution,
// LiveEngine.runLivePlan the snapshot-pinned one, and runBatch the one
// inter-query scheduler.
package core

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// runAlg is the execute stage's single dispatch point: one switch maps
// the plan onto an algorithm implementation, for both merge disciplines
// (the nine threshold algorithms; Naive and SF for top-k).
func (e *Engine) runAlg(s *queryScratch, cc *canceller, q Query, p *queryPlan, stats *Stats, shared *sharedTau) ([]Result, error) {
	if p.kind == planTopK {
		switch p.alg {
		case Naive:
			return e.topkNaive(s, cc, q, p.k, &p.live)
		case SF:
			return e.topkSF(s, cc, q, p.k, &p.live, &p.opts, stats, shared)
		default:
			return nil, ErrUnknownAlg
		}
	}
	switch p.alg {
	case Naive:
		return e.selectNaive(s, cc, q, p.tau, stats)
	case SortByID:
		return e.selectSortByID(s, cc, q, p.tau, stats)
	case SQL:
		return e.selectSQL(s, cc, q, p.tau, &p.opts, stats)
	case TA:
		return e.selectTA(s, cc, q, p.tau, false, &p.opts, stats)
	case ITA:
		return e.selectTA(s, cc, q, p.tau, true, &p.opts, stats)
	case NRA:
		return e.selectNRA(s, cc, q, p.tau, stats)
	case INRA:
		return e.selectINRA(s, cc, q, p.tau, &p.opts, stats)
	case SF:
		return e.selectSF(s, cc, q, p.tau, &p.opts, stats)
	case Hybrid:
		return e.selectHybrid(s, cc, q, p.tau, &p.opts, stats)
	default:
		return nil, ErrUnknownAlg
	}
}

// runPlan executes a validated plan on one engine — the pipeline unit
// the fan-outs compose: the first-use build of what the algorithm reads
// besides the lists, list-total accounting, scratch checkout, the
// planned algorithm, the merge-discipline ordering and the one copy out
// of scratch. Metrics observe exactly once per run. shared, when
// non-nil, circulates the cross-shard top-k bound into the algorithm.
func (e *Engine) runPlan(ctx context.Context, q Query, p queryPlan, shared *sharedTau) ([]Result, Stats, error) {
	if p.kind == planSelect {
		e.buildFor(p.alg)
	}
	var stats Stats
	for _, qt := range q.Tokens {
		stats.ListTotal += e.store.ListLen(qt.Token)
	}
	start := time.Now()
	cc := &canceller{ctx: ctx}
	s := e.getScratch()
	res, err := e.runAlg(s, cc, q, &p, &stats, shared)
	if err == nil && p.kind == planTopK {
		// Sort and cut on the scratch slice so only k results are copied.
		sortTopK(res)
		if len(res) > p.k {
			res = res[:p.k]
		}
	}
	// The algorithms accumulate into the scratch's result buffer; copy
	// out before pooling so the returned slice survives the next query.
	// This copy is the one steady-state allocation of a warm non-empty
	// query (see DESIGN.md, "Performance model and allocation
	// discipline").
	res = copyResults(res)
	e.putScratch(s)
	stats.Elapsed = time.Since(start)
	e.observe(stats, err)
	if err != nil {
		return nil, stats, err
	}
	if p.kind == planSelect {
		sortResults(res)
	}
	return res, stats, nil
}

// mergeRanked applies the plan's merge discipline to a concatenated
// result set: ascending-id order for threshold selection; descending
// score, ties by ascending id, cut to k for top-k.
func mergeRanked(out []Result, p *queryPlan) []Result {
	if p.kind == planTopK {
		sortTopK(out)
		if len(out) > p.k {
			out = out[:p.k]
		}
		return out
	}
	sortResults(out)
	return out
}

// runFan is the sharded execute+merge: the route stage's shard order
// fans out on the executor pool — each shard running runPlan on its own
// engine — results are remapped to global ids, gathered, and merged
// under the plan's discipline. Top-k shards share fb.shared, and a
// queued shard whose summary bound has fallen below the risen fleet
// bound is skipped mid-flight without running.
func (se *ShardedEngine) runFan(ctx context.Context, q Query, p queryPlan) ([]Result, Stats, error) {
	start := time.Now()
	fb := se.getBuffers()
	act, recheck := se.routeShards(fb, q, &p)
	if len(act) > 0 {
		se.exec.fan(len(act), func(i int) {
			sh := int(act[i])
			if recheck {
				// Mid-flight recheck: earlier shards may have risen the
				// shared k-th bound past this shard's summary bound.
				if s := fb.shared.load(); s > 0 && !boundMeets(fb.bounds[sh], s) {
					fb.sts[sh] = skipStats(se.shards[sh], q)
					se.boundChecks.Add(1)
					se.shardsSkipped.Add(1)
					return
				}
			}
			var shared *sharedTau
			if p.kind == planTopK {
				shared = &fb.shared
			}
			res, st, err := se.shards[sh].runPlan(ctx, q, p, shared)
			se.remap(sh, res)
			fb.res[sh], fb.sts[sh], fb.errs[sh] = res, st, err
		})
	}
	total, stats, err := se.gather(fb)
	if p.kind == planTopK {
		se.boundRaises.Add(fb.shared.raises.Load())
	}
	var out []Result
	if err == nil {
		out = mergeRanked(se.mergeConcat(fb, total), &p)
	}
	se.putBuffers(fb)
	stats.Elapsed = time.Since(start)
	se.m.ObserveQuery(stats.Elapsed, stats.ElementsRead, err)
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// runLivePlan executes a validated plan against a snapshot-pinned
// LiveQuery: one shard runs inline, a fleet fans out on plain
// goroutines, and the merge applies the plan's discipline over the
// concatenated, tombstone-filtered answers. Every top-k, one-shard
// stores included, circulates one rising bound through all its segments
// and memtables: each prunes against the best k-th-score lower bound
// any earlier one established.
func (le *LiveEngine) runLivePlan(ctx context.Context, lq LiveQuery, p queryPlan) ([]Result, Stats, error) {
	start := time.Now()
	del := le.del.Load()
	var out []Result
	var stats Stats
	var err error
	if len(lq.snap.shards) == 1 {
		// The inline path's bound lives on the stack: nothing below
		// retains it, so a one-shard top-k pays no allocation for it
		// (a selection never raises or reads it).
		var shared sharedTau
		out, stats, err = le.liveShardRun(ctx, lq, 0, p, del, &shared)
	} else {
		var shared *sharedTau
		if p.kind == planTopK {
			shared = new(sharedTau)
		}
		outs, sts, errs := le.liveFan(func(si int) ([]Result, Stats, error) {
			return le.liveShardRun(ctx, lq, si, p, del, shared)
		})
		out, stats, err = mergeLiveFan(outs, sts, errs)
		if p.kind == planSelect {
			sortResults(out)
		}
	}
	stats.Elapsed = time.Since(start)
	le.m.ObserveQuery(stats.Elapsed, stats.ElementsRead, err)
	if err != nil {
		return nil, stats, err
	}
	if p.kind == planTopK {
		sortTopK(out)
		if len(out) > p.k {
			out = out[:p.k]
		}
	}
	return out, stats, nil
}

// liveShardRun executes the plan against one shard of the pinned
// snapshot: its segments in order, then its memtable. Threshold
// selections return the shard's answers sorted by ascending global id
// (a single fully compacted segment passes through with no merge work).
// Top-k asks every segment for exactly k: a segment carrying tombstones
// gets a liveness view on its plan, so deleted documents never enter
// its k-th bound and cannot displace live answers — the bound over live
// candidates never exceeds the global k-th live score, which is what
// keeps raising shared sound — and the concatenation is left unsorted
// for the caller's one sort-and-cut. The memtable is scanned last,
// against the bound the segments raised. Segments carrying a pruning
// summary run through the same route-stage predicate as static shards.
func (le *LiveEngine) liveShardRun(ctx context.Context, lq LiveQuery, si int, p queryPlan, del *tombstones, shared *sharedTau) ([]Result, Stats, error) {
	var stats Stats
	sh := &lq.snap.shards[si]
	single := p.kind == planSelect && len(sh.segs) == 1 && len(sh.mem) == 0
	var out []Result
	for i, g := range sh.segs {
		q := lq.segQ[si][i]
		if len(q.Tokens) == 0 {
			continue // no query token occurs in this segment
		}
		if g.sum != nil {
			// Route stage at segment granularity. A zero bound means no
			// query token occurs here — nothing can score, and no
			// algorithm emits zero-score documents. Threshold selections
			// prune on this segment query's own Theorem 1 window; top-k
			// rechecks the circulating bound instead (it loads 0 until
			// some segment holds k live candidates).
			le.boundChecks.Add(1)
			sp := p
			if p.kind == planSelect {
				sp.lo, sp.hi = lengthWindow(q, p.tau, &p.opts)
			}
			b := shardBound(g.sum, q)
			s := shared.load()
			if !shardActive(g.sum, b, &sp) || (p.kind == planTopK && s > 0 && !boundMeets(b, s)) {
				t := g.eng.queryListTotal(q)
				stats.ListTotal += t
				stats.ElementsSkipped += t
				le.shardsSkipped.Add(1)
				continue
			}
		}
		sp := p
		if p.kind == planTopK && g.dead.Load() > 0 {
			sp.live = liveView{ids: g.ids, del: del}
		}
		res, st, err := g.eng.runPlan(ctx, q, sp, shared)
		addStats(&stats, st)
		if err != nil {
			return nil, stats, err
		}
		res = g.emit(res, del)
		if single {
			out = res
		} else {
			out = append(out, res...)
		}
	}
	if len(sh.mem) > 0 {
		cc := &canceller{ctx: ctx}
		tau := p.tau
		if p.kind == planTopK {
			tau = max(shared.load(), minPositiveTau)
		}
		var err error
		out, err = le.scanMemtable(cc, sh.mem, lq.mem.shardLists(si), &lq.mem, tau, del, &stats, out)
		if err != nil {
			return nil, stats, err
		}
	}
	if p.kind == planSelect && !single {
		sortResults(out)
	}
	return out, stats, nil
}

// normWorkers resolves a caller-facing worker count: ≤ 0 selects
// GOMAXPROCS, the shared convention of every batch and self-join entry
// point.
func normWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// runBatch drains a batch over a bounded worker pool — the one
// inter-query scheduler behind every shape's SelectBatchCtx. Workers
// claim query indices in submission order; out is indexed by query
// position.
func runBatch(n, workers int, fn func(qi int) BatchResult) []BatchResult {
	out := make([]BatchResult, n)
	if workers > n {
		workers = n
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				qi := next
				next++
				mu.Unlock()
				if qi >= n {
					return
				}
				out[qi] = fn(qi)
			}
		}()
	}
	wg.Wait()
	return out
}

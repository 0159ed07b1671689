// The query pipeline's execute and merge stages (plan and route live in
// plan.go). Engine.runPlan is the single-engine execution, and the unit
// the other spine composes: LiveEngine.runLivePlan, the snapshot-pinned
// scatter-gather behind both LiveEngine and ShardedEngine, whose fan-out
// runs on the process's one executor. runBatch is the one inter-query
// scheduler.
package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
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
	stats := Stats{ListTotal: e.queryListTotal(q)}
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

// runLivePlan executes a validated plan against a snapshot-pinned
// LiveQuery: the route stage picks the shards to visit before anything
// runs, a lone surviving shard runs on the caller and a fleet fans out on
// the process's executor, and the merge applies the plan's discipline
// over the concatenated, tombstone-filtered answers. Every top-k, one-shard
// stores included, circulates one rising bound through all its segments
// and memtables: each prunes against the best k-th-score lower bound any
// earlier one established.
func (le *LiveEngine) runLivePlan(ctx context.Context, lq LiveQuery, p queryPlan) ([]Result, Stats, error) {
	start := time.Now()
	fb := le.getBuffers()
	fb.ctx, fb.lq, fb.p, fb.del = ctx, lq, p, le.del.Load()
	fb.refs.Store(1)
	fanOut(len(fb.route()), fb)
	out, stats, err := fb.merge()
	fb.release()
	stats.Elapsed = time.Since(start)
	le.m.ObserveQuery(stats.Elapsed, stats.ElementsRead, err)
	return out, stats, err
}

// runShard executes the plan against one shard of the pinned
// snapshot: its segments the route stage kept, in order, then its
// memtable. Threshold selections return the shard's answers sorted by
// ascending global id (one contributing segment passes through with no
// merge work). Top-k asks every segment for exactly k: a segment carrying
// tombstones gets a liveness view on its plan, so deleted documents never
// enter its k-th bound and cannot displace live answers — the bound over
// live candidates never exceeds the global k-th live score, which is what
// keeps raising the shared bound sound — and the concatenation is left
// unsorted for the caller's one sort-and-cut. Before each segment a top-k
// rechecks the segment's summary bound against the shared bound earlier
// segments and shards raised, and skips a segment that can no longer
// reach it. The memtable is scanned last, against that bound.
func (fb *fanBuffers) runShard(si int, stats *Stats) ([]Result, error) {
	le, ctx, lq, p, shared := fb.le, fb.ctx, &fb.lq, &fb.p, &fb.shared
	sh := &lq.snap.shards[si]
	var out []Result
	pieces := 0
	for i, g := range sh.segs {
		b := fb.bounds[fb.at[si]+i]
		if b < 0 {
			continue // the route stage dropped it
		}
		q := lq.segQuery(si, i)
		if p.kind == planTopK {
			if s := shared.load(); s > 0 && !boundMeets(b, s) {
				addStats(stats, skipStats(g.eng, q))
				le.boundChecks.Add(1)
				le.shardsSkipped.Add(1)
				continue
			}
		}
		sp := *p
		if p.kind == planTopK && g.dead.Load() > 0 {
			sp.live = liveView{ids: g.ids, del: fb.del}
		}
		res, st, err := g.eng.runPlan(ctx, q, sp, shared)
		addStats(stats, st)
		if err != nil {
			return nil, err
		}
		// runPlan's copy is the caller's: the first piece becomes the
		// shard's answer, later ones append to it.
		if res = g.emit(res, fb.del); len(res) > 0 {
			if pieces++; pieces == 1 {
				out = res
			} else {
				out = append(out, res...)
			}
		}
	}
	if len(sh.mem) > 0 {
		cc := &canceller{ctx: ctx}
		tau := p.tau
		if p.kind == planTopK {
			tau = max(shared.load(), minPositiveTau)
		}
		n := len(out)
		var err error
		out, err = le.scanMemtable(cc, sh.mem, lq.mem.shardLists(si), &lq.mem, tau, fb.del, stats, out)
		if err != nil {
			return nil, err
		}
		if len(out) > n {
			pieces++
		}
	}
	if p.kind == planSelect && pieces > 1 {
		sortResults(out)
	}
	return out, nil
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

// fanBuffers is the pooled per-call state of one live query: the call
// itself (what the executor's workers read), the route stage's work area
// — every segment's summary bound, flat over the shards, and the order
// the surviving shards run in — and the per-shard result, Stats and error
// slots the merge folds, with the top-k's shared bound. A LiveEngine pools
// its own, sized by its shard count.
type fanBuffers struct {
	le  *LiveEngine
	ctx context.Context
	lq  LiveQuery
	p   queryPlan
	del *tombstones

	// bounds[at[si]+i] is the summary bound of segment i of shard si,
	// negative when the route stage dropped it.
	bounds []float64
	at     []int
	keys   []float64 // a shard's top-k visit key: its best segment bound
	order  []int32   // the shards to visit, in visit order

	res    [][]Result
	sts    []Stats
	errs   []error
	shared sharedTau

	// The dispatch: the executor's workers claim parts by next. refs
	// counts the holders of fb — the caller, and the workers and queue
	// slots of a fan-out.
	next atomic.Int32
	refs atomic.Int32
	done sync.WaitGroup
}

func (le *LiveEngine) getBuffers() *fanBuffers {
	if v := le.buffers.Get(); v != nil {
		return v.(*fanBuffers)
	}
	k := le.nShards
	return &fanBuffers{
		le:    le,
		at:    make([]int, k),
		keys:  make([]float64, k),
		order: make([]int32, 0, k),
		res:   make([][]Result, k),
		sts:   make([]Stats, k),
		errs:  make([]error, k),
	}
}

// putBuffers clears the call and the slots (dropping the references they
// hold) and pools fb.
func (le *LiveEngine) putBuffers(fb *fanBuffers) {
	fb.ctx, fb.lq, fb.p, fb.del = nil, LiveQuery{}, queryPlan{}, nil
	clear(fb.res)
	clear(fb.sts)
	clear(fb.errs)
	// A blind Store, not a CAS: the fan-out has joined, so no raise can race this pool reset.
	fb.shared.bits.Store(0)
	fb.shared.raises.Store(0)
	le.buffers.Put(fb)
}

// runPart runs the i-th shard of the visit order into its slots, timing
// it for the fan-out spread gauge.
func (fb *fanBuffers) runPart(i int) {
	si := int(fb.order[i])
	start := time.Now()
	fb.res[si], fb.errs[si] = fb.runShard(si, &fb.sts[si])
	fb.sts[si].Elapsed = time.Since(start)
}

// merge is the merge stage: it folds the per-shard outcomes into summed
// Stats (Elapsed is stamped by the caller over the whole call), the first
// error in shard order, and one answer under the plan's discipline —
// ascending ids for a threshold selection, descending score cut to k for
// a top-k. A selection answered by one shard returns that shard's slice
// as it is. It also moves the fan-out gauges.
func (fb *fanBuffers) merge() ([]Result, Stats, error) {
	le := fb.le
	var stats Stats
	var err error
	var minE, maxE time.Duration
	total, pieces, only := 0, 0, -1
	for si := range fb.sts {
		st := &fb.sts[si]
		addStats(&stats, *st)
		// Skipped shards report zero Elapsed; the spread gauge measures
		// the shards that actually ran.
		if e := st.Elapsed; e > 0 {
			if maxE == 0 || e < minE {
				minE = e
			}
			maxE = max(maxE, e)
		}
		if err == nil {
			err = fb.errs[si]
		}
		if n := len(fb.res[si]); n > 0 {
			total += n
			pieces++
			only = si
		}
	}
	le.lastSpread.Store(int64(maxE - minE))
	le.fanouts.Add(1)
	if fb.p.kind == planTopK {
		le.boundRaises.Add(fb.shared.raises.Load())
	}
	if err != nil || total == 0 {
		return nil, stats, err
	}
	le.merged.Add(uint64(total))
	out := fb.res[only]
	if pieces > 1 {
		out = make([]Result, 0, total)
		for _, r := range fb.res {
			out = append(out, r...)
		}
	}
	if fb.p.kind == planTopK {
		sortTopK(out)
		return out[:min(len(out), fb.p.k)], stats, nil
	}
	if pieces > 1 {
		sortResults(out)
	}
	return out, stats, nil
}

// fanOut runs fb.runPart(0..k-1) to completion. A lone part runs on the
// caller; more fan out on the process's executor, the caller claiming
// parts alongside the workers, so a dispatch always makes progress even
// when every worker is busy with others (nested fan-out under a saturated
// batch never deadlocks). Submission never blocks: when the task queue is
// full the caller runs the unsent share itself.
func fanOut(k int, fb *fanBuffers) {
	if k <= 1 {
		if k == 1 {
			fb.runPart(0)
		}
		return
	}
	tasks := fanExec()
	fb.next.Store(0)
	// Upper bound first — k-1 queue slots besides the caller's reference
	// — so a worker finishing early can never drive refs to zero while
	// the queue still holds fb; the unsent surplus is subtracted after
	// the send loop.
	fb.refs.Add(int32(k - 1))
	fb.done.Add(k)
	sent := 0
sendLoop:
	for ; sent < k-1; sent++ {
		select {
		case tasks <- fb:
		default:
			break sendLoop
		}
	}
	fb.refs.Add(int32(sent - (k - 1)))
	fb.work()
	fb.done.Wait()
}

// fanExec is the task queue of the one pool of persistent workers every
// fan-out runs on, started by the first query that fans out. The workers
// live as long as the process, so an engine has nothing to stop and a
// query after Close still runs.
var fanExec = sync.OnceValue(func() chan *fanBuffers {
	workers := runtime.GOMAXPROCS(0)
	// One slot per worker: a dispatch that finds them all taken runs the
	// rest on its caller rather than queue behind busy workers.
	tasks := make(chan *fanBuffers, workers)
	for range workers {
		go func() {
			for fb := range tasks {
				fb.work()
				fb.release()
			}
		}()
	}
	return tasks
})

// work claims and runs parts until none remain.
func (fb *fanBuffers) work() {
	for {
		i := int(fb.next.Add(1) - 1)
		if i >= len(fb.order) {
			return
		}
		fb.runPart(i)
		fb.done.Done()
	}
}

// release drops one reference to fb; the last returns it to its engine's
// pool, so a worker that dequeues a long-finished dispatch can never
// touch a recycled one.
func (fb *fanBuffers) release() {
	if fb.refs.Add(-1) == 0 {
		fb.le.putBuffers(fb)
	}
}

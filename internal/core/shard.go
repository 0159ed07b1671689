// Sharded scatter-gather execution. A ShardedEngine partitions the
// corpus into K complete Engines that share one token dictionary and one
// set of global corpus statistics (collection.BuildWithStats), so every
// per-shard score — idf weights, normalized lengths, query length — is
// bitwise-identical to what a monolithic build over the same documents
// would compute. Documents are routed by the similarity-aware clusterer
// in internal/route (hash routing under Config.NoRoute), and each routed
// shard carries a route.Summary the executor consults per query: shards
// whose summary bound provably cannot reach τ — or the circulating top-k
// bound — are skipped outright, their postings accounted as skipped.
// The surviving shards fan out on a bounded pool of persistent workers
// and are folded by a merge stage: plain concatenation plus the usual id
// sort for threshold selection, and a threshold-aware top-k merge in
// which the shards circulate the global k-th-score lower bound
// (sharedTau) so Length Boundedness (Property 2, Theorem 1) prunes
// against the whole fleet's progress rather than any single shard's.
// Top-k visits shards in descending summary-bound order, so the global
// bound rises early and the low-potential tail is pruned mid-flight.
//
// The warm-path allocation discipline extends to the fan-out: the
// executor's dispatch descriptor and the per-call result buffers are
// pooled, workers are persistent, and each shard's query runs on the
// shard engine's own scratch pool — a warm sharded selection allocates
// one result copy per shard plus a bounded constant (the dispatch
// closure and the merged result slice).
package core

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collection"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/tokenize"
)

// shardOf maps a global set id to its shard by multiplicative hashing
// with fixed-point range reduction: uniform for dense ids, stable across
// runs, and independent of K's divisibility properties.
func shardOf(id collection.SetID, k int) int {
	return int(uint64(idHash(id)) * uint64(k) >> 32)
}

// ShardedEngine is a fleet of Engines behind one scatter-gather
// executor. Global set ids are dense over the accepted documents in
// input order — exactly the ids a monolithic build would assign — and
// every result is remapped to them before the merge, so callers cannot
// tell a sharded engine from a monolithic one except by throughput.
type ShardedEngine struct {
	shards []*Engine
	// ids maps shard-local ids (dense, ascending in global order by
	// construction) back to global ids: ids[s][local] = global.
	ids [][]collection.SetID
	// assign is the routing table: assign[gid] = shard. Hash-derived
	// under Config.NoRoute, cluster-derived otherwise — either way the
	// one place routing decisions live after the build.
	assign []int32
	// sums holds one pruning summary per shard; nil under Config.NoRoute
	// (and for 1-shard engines), which disables pruning entirely.
	sums []*route.Summary
	n    int // accepted documents across all shards
	exec *executor
	m    *metrics.Registry

	buffers sync.Pool // *fanBuffers

	fanouts       atomic.Uint64
	merged        atomic.Uint64
	boundRaises   atomic.Uint64
	boundChecks   atomic.Uint64
	shardsSkipped atomic.Uint64
	lastSpread    atomic.Int64 // ns, most recent fan-out max-min shard elapsed
}

// BuildSharded tokenizes docs — each exactly once, through a segment
// round (round.go) — and builds a K-shard engine over them. The round
// interns every token into the shared dictionary in global document
// order (matching a monolithic build token id for token id) and counts
// global document frequencies; the documents are then routed — by the
// similarity-aware clusterer over the round's vectors, or by
// shardOf(globalID, K) under Config.NoRoute — and every shard's builder
// receives its documents' vectors pre-counted and is frozen against the
// global statistics. shards < 1 is treated as 1; a 1-shard engine is a
// monolithic engine behind the executor's single-shard bypass.
func BuildSharded(tk tokenize.Tokenizer, docs []string, keepSource bool, shards int, cfg Config) *ShardedEngine {
	return buildSharded(tk, docs, keepSource, shards, nil, cfg)
}

// BuildShardedRouted builds a K-shard engine over a precomputed routing
// table (one entry per accepted document, values in [0, shards)) — the
// snapshot-restore path, which must reproduce a saved partition exactly.
// A table of the wrong length or with out-of-range entries falls back to
// recomputing the routing.
func BuildShardedRouted(tk tokenize.Tokenizer, docs []string, keepSource bool, shards int, assign []int32, cfg Config) *ShardedEngine {
	return buildSharded(tk, docs, keepSource, shards, assign, cfg)
}

func buildSharded(tk tokenize.Tokenizer, docs []string, keepSource bool, shards int, preAssign []int32, cfg Config) *ShardedEngine {
	if shards < 1 {
		shards = 1
	}
	routed := !cfg.NoRoute && shards > 1
	// Accepted documents take dense global ids in input order.
	r := newSegmentRound(tk, roundWorkers(len(docs)))
	r.addCorpus(docs)
	n := len(r.docs)
	var assign []int32
	switch {
	case routed && validAssign(preAssign, n, shards):
		assign = preAssign
	case routed:
		idf := make([]float64, len(r.df))
		for t, d := range r.df {
			idf[t] = sim.IDF(d, n)
		}
		assign = r.partition(idf, shards)
	default:
		assign = make([]int32, n)
		for gid := range assign {
			assign[gid] = int32(shardOf(collection.SetID(gid), shards))
		}
	}
	builders, ids := r.builders(assign, shards, keepSource)
	engines := make([]*Engine, shards)
	var sums []*route.Summary
	if routed {
		sums = make([]*route.Summary, shards)
	}
	// The shards share only the round's dictionary and df, which nothing
	// writes any more.
	par.Each(r.workers, shards, "shard", func(i int) {
		engines[i] = newEngine(builders[i].BuildWithStats(n, r.dfOf), cfg, engineWorkers(r.workers, shards))
		if routed {
			sums[i] = route.Summarize(engines[i].c, engines[i].store)
		}
	})
	return newSharded(engines, ids, assign, sums, n)
}

// validAssign reports whether a caller-supplied routing table covers
// exactly the accepted documents with in-range shard numbers.
func validAssign(assign []int32, n, shards int) bool {
	if len(assign) != n {
		return false
	}
	for _, sh := range assign {
		if sh < 0 || int(sh) >= shards {
			return false
		}
	}
	return true
}

// newSharded assembles the executor and metrics around prebuilt shards.
func newSharded(engines []*Engine, ids [][]collection.SetID, assign []int32, sums []*route.Summary, n int) *ShardedEngine {
	se := &ShardedEngine{
		shards: engines,
		ids:    ids,
		assign: assign,
		sums:   sums,
		n:      n,
		exec:   newExecutor(runtime.GOMAXPROCS(0)),
		m:      metrics.NewRegistry(),
	}
	se.m.SetShardGaugesFunc(func() metrics.ShardGauges {
		return metrics.ShardGauges{
			Shards:      len(se.shards),
			Fanouts:     se.fanouts.Load(),
			Merged:      se.merged.Load(),
			BoundRaises: se.boundRaises.Load(),
			BoundChecks: se.boundChecks.Load(),
			Skipped:     se.shardsSkipped.Load(),
			LastSpread:  time.Duration(se.lastSpread.Load()),
		}
	})
	return se
}

// Close shuts the executor's workers down. The engine must not be
// queried after Close.
func (se *ShardedEngine) Close() { se.exec.close() }

// NumShards reports the fleet width.
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

// Shard exposes one shard's engine (for inspection and tests).
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// NumDocs reports the number of accepted documents across all shards.
func (se *ShardedEngine) NumDocs() int { return se.n }

// Metrics exposes the fleet-level metrics registry (per-shard registries
// hang off the individual shard engines).
func (se *ShardedEngine) Metrics() *metrics.Registry { return se.m }

// Prepare preprocesses a query string. All shards share one dictionary
// and one set of global statistics, so any shard's preparation is valid
// for every other — one Query serves the whole fan-out.
func (se *ShardedEngine) Prepare(s string) Query { return se.shards[0].Prepare(s) }

// PrepareCounts builds a Query from a vector tokenized against the
// shared dictionary.
func (se *ShardedEngine) PrepareCounts(counts []tokenize.Count) Query {
	return se.shards[0].PrepareCounts(counts)
}

// Source returns the original string of global set id gid.
func (se *ShardedEngine) Source(gid collection.SetID) string {
	sh := int(se.assign[gid])
	local := sort.Search(len(se.ids[sh]), func(i int) bool { return se.ids[sh][i] >= gid })
	return se.shards[sh].Collection().Source(collection.SetID(local))
}

// Routing exposes the routing table (assign[gid] = shard) for
// persistence and inspection. The returned slice must not be modified.
func (se *ShardedEngine) Routing() []int32 { return se.assign }

// Routed reports whether the engine carries per-shard pruning summaries
// (similarity-aware build; false under Config.NoRoute and for K=1).
func (se *ShardedEngine) Routed() bool { return se.sums != nil }

// ShardSummary exposes shard i's pruning summary; nil when unrouted.
func (se *ShardedEngine) ShardSummary(i int) *route.Summary {
	if se.sums == nil {
		return nil
	}
	return se.sums[i]
}

// remap rewrites a shard's results from local to global ids, in place
// (the slice was copied out of the shard's scratch already). Local ids
// ascend in global order, so a sorted shard result stays sorted.
func (se *ShardedEngine) remap(shard int, rs []Result) {
	m := se.ids[shard]
	for i := range rs {
		rs[i].ID = m[rs[i].ID]
	}
}

// fanBuffers is the pooled per-call state of one scatter-gather query:
// per-shard result/stats/error slots, the cross-shard top-k bound, and
// the pruning work area (per-shard summary bounds and the active-shard
// visit order).
type fanBuffers struct {
	res    [][]Result
	sts    []Stats
	errs   []error
	bounds []float64
	order  []int32
	shared sharedTau
}

func (se *ShardedEngine) getBuffers() *fanBuffers {
	if v := se.buffers.Get(); v != nil {
		return v.(*fanBuffers)
	}
	k := len(se.shards)
	return &fanBuffers{
		res:    make([][]Result, k),
		sts:    make([]Stats, k),
		errs:   make([]error, k),
		bounds: make([]float64, k),
		order:  make([]int32, 0, k),
	}
}

// putBuffers clears the slots (dropping result references) and pools.
func (se *ShardedEngine) putBuffers(fb *fanBuffers) {
	for i := range fb.res {
		fb.res[i], fb.sts[i], fb.errs[i] = nil, Stats{}, nil
	}
	fb.order = fb.order[:0]
	// A blind Store, not a CAS: the fan-out has joined, so no raise can race this pool reset.
	fb.shared.bits.Store(0)
	fb.shared.raises.Store(0)
	se.buffers.Put(fb)
}

// gather folds the per-shard outcomes: summed Stats (Elapsed is stamped
// by the caller over the whole call), the first shard error in shard
// order, the total result count, and the fan-out latency spread.
func (se *ShardedEngine) gather(fb *fanBuffers) (total int, stats Stats, err error) {
	var minE, maxE time.Duration
	seen := false
	for i := range fb.sts {
		st := &fb.sts[i]
		addStats(&stats, *st)
		// Skipped shards report zero Elapsed; the spread gauge measures
		// the shards that actually ran.
		if st.Elapsed > 0 {
			if !seen || st.Elapsed < minE {
				minE = st.Elapsed
			}
			if st.Elapsed > maxE {
				maxE = st.Elapsed
			}
			seen = true
		}
		if err == nil && fb.errs[i] != nil {
			err = fb.errs[i]
		}
		total += len(fb.res[i])
	}
	se.lastSpread.Store(int64(maxE - minE))
	se.fanouts.Add(1)
	return total, stats, err
}

// mergeConcat concatenates the per-shard (already remapped) results.
// When exactly one shard produced results its copied-out slice is
// returned directly — the common case for selective queries, and the
// whole story for K=1.
func (se *ShardedEngine) mergeConcat(fb *fanBuffers, total int) []Result {
	if total == 0 {
		return nil
	}
	se.merged.Add(uint64(total))
	var only []Result
	for _, r := range fb.res {
		if len(r) == 0 {
			continue
		}
		if only == nil {
			only = r
			continue
		}
		out := make([]Result, 0, total)
		for _, rr := range fb.res {
			out = append(out, rr...)
		}
		return out
	}
	return only
}

// Select runs one selection query across all shards. Results are sorted
// by ascending global id and are bitwise-identical — same ids, same
// scores — to a monolithic engine over the same documents. It is
// SelectCtx with a background context.
func (se *ShardedEngine) Select(q Query, tau float64, alg Algorithm, opts *Options) ([]Result, Stats, error) {
	return se.SelectCtx(context.Background(), q, tau, alg, opts)
}

// SelectCtx is Select under a context; cancellation propagates to every
// shard's scan loops with SelectCtx's usual granularity guarantee.
func (se *ShardedEngine) SelectCtx(ctx context.Context, q Query, tau float64, alg Algorithm, opts *Options) ([]Result, Stats, error) {
	p, err := selectPlan(q, tau, alg, opts)
	if err != nil {
		return planDone(err)
	}
	return se.runFan(ctx, q, p)
}

// SelectTopK returns the k highest-scoring sets across all shards,
// bitwise-identical to the monolithic top-k (scores are canonical and
// ties break by ascending global id at every layer). It is
// SelectTopKCtx with a background context.
func (se *ShardedEngine) SelectTopK(q Query, k int, alg Algorithm, opts *Options) ([]Result, Stats, error) {
	return se.SelectTopKCtx(context.Background(), q, k, alg, opts)
}

// SelectTopKCtx fans the top-k across shards with the threshold-aware
// merge: every shard prunes against max(its local k-th bound, the
// fleet-wide sharedTau bound), and each raise of the global bound
// tightens every other shard's Theorem 1 window mid-scan. Each shard
// returns its exact local top-k; the merge concatenates, re-sorts and
// cuts to k — correct because every member of the global top-k is
// necessarily in its own shard's local top-k.
func (se *ShardedEngine) SelectTopKCtx(ctx context.Context, q Query, k int, alg Algorithm, opts *Options) ([]Result, Stats, error) {
	p, err := topkPlan(q, k, alg, opts)
	if err != nil {
		return planDone(err)
	}
	return se.runFan(ctx, q, p)
}

// SelectBatch drains a batch of queries over an outer worker pool, each
// query fanning across the shards in turn (the executor's caller
// participation keeps nested fan-out deadlock-free even when every
// worker is busy). It is SelectBatchCtx with a background context.
func (se *ShardedEngine) SelectBatch(queries []Query, tau float64, alg Algorithm, opts *Options, workers int) []BatchResult {
	return se.SelectBatchCtx(context.Background(), queries, tau, alg, opts, workers)
}

// SelectBatchCtx is SelectBatch under a context, with Engine
// SelectBatchCtx's cancellation semantics.
func (se *ShardedEngine) SelectBatchCtx(ctx context.Context, queries []Query, tau float64, alg Algorithm, opts *Options, workers int) []BatchResult {
	return runBatch(len(queries), normWorkers(workers), func(qi int) BatchResult {
		res, st, err := se.SelectCtx(ctx, queries[qi], tau, alg, opts)
		return BatchResult{Results: res, Stats: st, Err: err}
	})
}

// executor is a bounded pool of persistent workers draining shard
// dispatches. A dispatch is a pooled shardCall whose shards are claimed
// by an atomic counter: the submitting goroutine claims alongside the
// workers, so a dispatch always makes progress even when every worker
// is busy with other dispatches (nested fan-out under a saturated
// batch never deadlocks), and a lone caller on a 1-shard engine skips
// the machinery entirely.
type executor struct {
	tasks chan *shardCall
	pool  sync.Pool
	wg    sync.WaitGroup
}

func newExecutor(workers int) *executor {
	if workers < 1 {
		workers = 1
	}
	x := &executor{tasks: make(chan *shardCall, workers)}
	x.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go x.worker()
	}
	return x
}

// close stops the workers. In-flight dispatches finish (their callers
// participate); no dispatch may be submitted after close.
func (x *executor) close() {
	close(x.tasks)
	x.wg.Wait()
}

func (x *executor) worker() {
	defer x.wg.Done()
	for call := range x.tasks {
		call.work()
		call.release(x)
	}
}

// shardCall is one fan-out dispatch. refs counts the goroutines (and
// queued channel slots) holding the pointer: the call returns to the
// pool only when the last holder lets go, so a worker that dequeues a
// long-finished dispatch can never touch a recycled one.
type shardCall struct {
	run  func(shard int)
	k    int32
	next atomic.Int32
	refs atomic.Int32
	done sync.WaitGroup
}

// work claims and runs shards until none remain.
func (c *shardCall) work() {
	for {
		i := c.next.Add(1) - 1
		if i >= c.k {
			return
		}
		c.run(int(i))
		c.done.Done()
	}
}

func (c *shardCall) release(x *executor) {
	if c.refs.Add(-1) == 0 {
		c.run = nil
		x.pool.Put(c)
	}
}

// fan runs run(0..k-1) to completion across the worker pool, the caller
// claiming shards alongside the workers. Non-blocking submission: when
// the task queue is full the caller simply runs the unsent share itself.
func (x *executor) fan(k int, run func(shard int)) {
	if k <= 1 {
		run(0)
		return
	}
	var call *shardCall
	if v := x.pool.Get(); v != nil {
		call = v.(*shardCall)
	} else {
		call = &shardCall{}
	}
	call.run = run
	call.k = int32(k)
	call.next.Store(0)
	// Upper bound first — k-1 queue slots plus the caller — so a worker
	// finishing early can never drive refs to zero while the queue or the
	// caller still holds the pointer; the unsent surplus is subtracted
	// after the send loop.
	call.refs.Store(int32(k))
	call.done.Add(k)
	sent := 0
sendLoop:
	for i := 0; i < k-1; i++ {
		select {
		case x.tasks <- call:
			sent++
		default:
			break sendLoop
		}
	}
	if unsent := k - 1 - sent; unsent > 0 {
		call.refs.Add(int32(-unsent))
	}
	call.work()
	call.done.Wait()
	call.release(x)
}

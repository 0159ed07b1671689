package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/collection"
	"repro/internal/invlist"
	"repro/internal/sim"
	"repro/internal/tokenize"
)

// Parallel processing is the second extension the paper's conclusion
// plans (§X). Two forms are provided: inter-query parallelism — a worker
// pool draining a batch of selection queries, the deployment shape of a
// data-cleaning pipeline — and intra-query parallelism for the sort-by-id
// merge and the oracle scan, which shard the query lists (respectively
// the collection) across cores.
//
// All engine indexes are safe for concurrent readers, so workers share
// the engine without copying. Every variant has a Ctx form; cancellation
// is cooperative with the same granularity guarantee as SelectCtx — each
// worker polls the context from its own scan loop.

// BatchResult pairs one query's results with its access statistics.
type BatchResult struct {
	Results []Result
	Stats   Stats
	Err     error
}

// SelectBatch runs every query with the same τ, algorithm and options on
// a pool of workers (≤ 0 selects GOMAXPROCS). The i-th output corresponds
// to the i-th query. It is SelectBatchCtx with a background context.
func (e *Engine) SelectBatch(queries []Query, tau float64, alg Algorithm, opts *Options, workers int) []BatchResult {
	return e.SelectBatchCtx(context.Background(), queries, tau, alg, opts, workers)
}

// SelectBatchCtx is SelectBatch under a context. Each query runs through
// SelectCtx, so cancellation stops in-flight queries mid-scan and fails
// the not-yet-started remainder immediately; every affected entry carries
// ctx.Err() in its Err field.
func (e *Engine) SelectBatchCtx(ctx context.Context, queries []Query, tau float64, alg Algorithm, opts *Options, workers int) []BatchResult {
	return runBatch(len(queries), normWorkers(workers), func(qi int) BatchResult {
		res, st, err := e.SelectCtx(ctx, queries[qi], tau, alg, opts)
		return BatchResult{Results: res, Stats: st, Err: err}
	})
}

// SelectSortByIDParallel is an intra-query parallel version of the
// sort-by-id merge baseline: the query's inverted lists are partitioned
// across workers, each worker heap-merges its share into a partial score
// map, and the partials are summed before the threshold filter. This is
// the natural parallelization of §III-B's algorithm — every worker's
// reads are sequential within its own lists. Like selectSortByID it
// reads the weight lists: a worker's map sums an id's weights in list
// order, so where the id sits within a list never mattered. It is
// SelectSortByIDParallelCtx with a background context.
func (e *Engine) SelectSortByIDParallel(q Query, tau float64, workers int) ([]Result, Stats, error) {
	return e.SelectSortByIDParallelCtx(context.Background(), q, tau, workers)
}

// SelectSortByIDParallelCtx is SelectSortByIDParallel under a context.
// Each worker polls the context from its own list scan; on cancellation
// the call returns ctx.Err() with the Stats of the postings read before
// the workers stopped.
func (e *Engine) SelectSortByIDParallelCtx(ctx context.Context, q Query, tau float64, workers int) ([]Result, Stats, error) {
	if _, err := planQuery(planSelect, len(q.Tokens) == 0, tau, 0, SortByID, nil); err != nil {
		return planDone(err)
	}
	var stats Stats
	for _, qt := range q.Tokens {
		stats.ListTotal += e.store.ListLen(qt.Token)
	}
	workers = normWorkers(workers)
	if workers > len(q.Tokens) {
		workers = len(q.Tokens)
	}
	start := time.Now()

	// Each worker draws its own scratch from the engine pool: a reusable
	// partial-score map plus a cursor that is re-pointed (not
	// reallocated) at each of the worker's lists. The scratches are
	// returned only after the partials have been merged.
	scratches := make([]*queryScratch, workers)
	reads := make([]int, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		scratches[w] = e.getScratch()
		go func(w int) {
			defer wg.Done()
			cc := &canceller{ctx: ctx}
			s := scratches[w]
			if s.scores == nil {
				s.scores = make(map[collection.SetID]float64)
			} else {
				clear(s.scores)
			}
			local := s.scores
			reuser, _ := e.store.(invlist.CursorReuser)
			var cur invlist.Cursor
			//ssvet:nostats each worker counts into reads[w]; the join below folds them into stats.ElementsRead
			for i := w; i < len(q.Tokens); i += workers {
				qt := q.Tokens[i]
				if reuser != nil {
					cur = reuser.WeightCursorReuse(qt.Token, cur)
				} else {
					cur = e.store.WeightCursor(qt.Token)
				}
				if list, pos, ok := invlist.RawPostings(cur); ok {
					for ; pos < len(list); pos++ {
						if cc.stop() {
							return
						}
						p := list[pos]
						local[p.ID] += qt.IDFSq / (q.Len * p.Len)
						reads[w]++
					}
					continue
				}
				for ; cur.Valid(); cur.Next() {
					if cc.stop() {
						return
					}
					p := cur.Posting()
					local[p.ID] += qt.IDFSq / (q.Len * p.Len)
					reads[w]++
				}
			}
		}(w)
	}
	wg.Wait()

	for _, r := range reads {
		stats.ElementsRead += r
	}
	if err := ctx.Err(); err != nil {
		for _, s := range scratches {
			e.putScratch(s)
		}
		stats.Elapsed = time.Since(start)
		e.observe(stats, err)
		return nil, stats, err
	}
	total := scratches[0].scores
	for _, s := range scratches[1:] {
		for id, v := range s.scores {
			total[id] += v
		}
	}
	var out []Result
	for id, score := range total {
		if sim.Meets(score, tau) {
			out = append(out, Result{ID: id, Score: score})
		}
	}
	for _, s := range scratches {
		e.putScratch(s)
	}
	sortResults(out)
	stats.Elapsed = time.Since(start)
	e.observe(stats, nil)
	return out, stats, nil
}

// SelectNaiveParallel shards the full-scan oracle across workers. It
// exists for verifying large experiments quickly and as the simplest
// illustration of intra-query parallelism. It validates its inputs and
// reports Stats exactly like its siblings. It is SelectNaiveParallelCtx
// with a background context.
func (e *Engine) SelectNaiveParallel(q Query, tau float64, workers int) ([]Result, Stats, error) {
	return e.SelectNaiveParallelCtx(context.Background(), q, tau, workers)
}

// SelectNaiveParallelCtx is SelectNaiveParallel under a context. Each
// worker polls the context from its shard scan; on cancellation the call
// returns ctx.Err().
func (e *Engine) SelectNaiveParallelCtx(ctx context.Context, q Query, tau float64, workers int) ([]Result, Stats, error) {
	if _, err := planQuery(planSelect, len(q.Tokens) == 0, tau, 0, Naive, nil); err != nil {
		return planDone(err)
	}
	var stats Stats
	for _, qt := range q.Tokens {
		stats.ListTotal += e.store.ListLen(qt.Token)
	}
	workers = normWorkers(workers)
	n := e.c.NumSets()
	if workers > n {
		workers = n
	}
	start := time.Now()
	if workers <= 1 {
		cc := &canceller{ctx: ctx}
		s := e.getScratch()
		out, err := e.selectNaive(s, cc, q, tau, &stats)
		out = copyResults(out)
		e.putScratch(s)
		stats.Elapsed = time.Since(start)
		e.observe(stats, err)
		if err != nil {
			return nil, stats, err
		}
		return out, stats, nil
	}
	// One scratch supplies the token-weight map; the workers share it
	// read-only and it returns to the pool after they join.
	s := e.getScratch()
	if s.idfSq == nil {
		s.idfSq = make(map[tokenize.Token]float64, len(q.Tokens))
	} else {
		clear(s.idfSq)
	}
	idfSq := s.idfSq
	for _, qt := range q.Tokens {
		idfSq[qt.Token] = qt.IDFSq
	}
	parts := make([][]Result, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			cc := &canceller{ctx: ctx}
			lo := n * w / workers
			hi := n * (w + 1) / workers
			var local []Result
			for id := lo; id < hi; id++ {
				if cc.stop() {
					return
				}
				sid := collection.SetID(id)
				var dot float64
				for _, cnt := range e.c.Set(sid) {
					if v, ok := idfSq[cnt.Token]; ok {
						dot += v
					}
				}
				if dot <= 0 {
					continue
				}
				score := dot / (q.Len * e.c.Length(sid))
				if sim.Meets(score, tau) {
					local = append(local, Result{ID: sid, Score: score})
				}
			}
			parts[w] = local
		}(w)
	}
	wg.Wait()
	e.putScratch(s)
	if err := ctx.Err(); err != nil {
		stats.Elapsed = time.Since(start)
		e.observe(stats, err)
		return nil, stats, err
	}
	var out []Result
	for _, p := range parts {
		out = append(out, p...)
	}
	sortResults(out)
	stats.Elapsed = time.Since(start)
	e.observe(stats, nil)
	return out, stats, nil
}

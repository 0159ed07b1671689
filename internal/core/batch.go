package core

import "context"

// Parallel processing is the second extension the paper's conclusion
// plans (§X). It is provided as inter-query parallelism: a worker pool
// draining a batch of selection queries, the deployment shape of a
// data-cleaning pipeline. Every engine shape has the same batch entry
// point over runBatch (exec.go); SelfJoin (join.go) fans its probes over
// the same worker convention.
//
// All engine indexes are safe for concurrent readers, so workers share
// the engine without copying. Cancellation is cooperative with the same
// granularity guarantee as SelectCtx: each query polls the context from
// its own scan loop.

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

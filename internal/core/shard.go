// Sharded execution. A ShardedEngine is a read-only view of a LiveEngine
// whose corpus was loaded as one segment round with no WAL and no
// compactor: one segment per shard, no memtable, no tombstone. DESIGN.md
// §13 and §15 prove that engine a K-shard static build bit for bit,
// routing included: every segment numbers tokens by the round's one
// dictionary and carries the same baked global statistics, so one Query
// — prepared on any segment — serves the whole fleet, and every score is
// the one a monolithic build over the same documents computes. Documents
// are routed by the similarity-aware clusterer in internal/route, and
// every segment carries a route.Summary the route stage (plan.go)
// consults before the fan-out (exec.go): the view runs the live engine's
// one execution spine.
package core

import (
	"context"

	"repro/internal/collection"
	"repro/internal/metrics"
	"repro/internal/route"
	"repro/internal/tokenize"
)

// shardOf maps a global set id to its shard by multiplicative hashing
// with fixed-point range reduction: uniform for dense ids, stable across
// runs, and independent of K's divisibility properties.
func shardOf(id collection.SetID, k int) int {
	return int(uint64(idHash(id)) * uint64(k) >> 32)
}

// ShardedEngine is a fleet of shard engines behind one scatter-gather
// executor. Global set ids are dense over the accepted documents in
// input order — exactly the ids a monolithic build would assign — so
// callers cannot tell a sharded engine from a monolithic one except by
// throughput. It holds no engine of its own: the shards are the segments
// of the live engine it views.
type ShardedEngine struct {
	le *LiveEngine
}

// BuildSharded tokenizes docs — each exactly once, through a segment
// round (round.go) — and builds a K-shard engine over them. The round
// interns every token into the shared dictionary in global document
// order (matching a monolithic build token id for token id) and counts
// global document frequencies; the similarity-aware clusterer then
// routes the documents over the round's vectors (K > 1), and every
// shard's builder receives its documents' vectors pre-counted and is
// frozen against the global statistics. The clustering is deterministic
// in the documents' vectors, their order and K, so rebuilding the same
// documents reproduces the partition. shards < 1 is treated as 1.
// Sources are kept: the live engine's document log holds them.
func BuildSharded(tk tokenize.Tokenizer, docs []string, shards int, cfg Config) *ShardedEngine {
	return &ShardedEngine{le: BuildLive(docs, tk, LiveConfig{Config: cfg, Shards: shards, NoBackground: true})}
}

// Close closes the live engine the view reads. Queries keep working: the
// executor is the process's.
func (se *ShardedEngine) Close() { se.le.Close() }

// NumShards reports the fleet width.
func (se *ShardedEngine) NumShards() int { return se.le.nShards }

// Shard exposes one shard's engine (for inspection and tests); nil when
// the shard holds no document.
func (se *ShardedEngine) Shard(i int) *Engine {
	if g := se.segment(i); g != nil {
		return g.eng
	}
	return nil
}

// segment is shard i's one segment, nil when the shard is empty.
func (se *ShardedEngine) segment(i int) *liveSegment {
	if segs := se.le.snap.Load().shards[i].segs; len(segs) > 0 {
		return segs[0]
	}
	return nil
}

// NumDocs reports the number of accepted documents across all shards.
func (se *ShardedEngine) NumDocs() int { return se.le.NumDocs() }

// Metrics exposes the fleet-level metrics registry (per-shard registries
// hang off the individual shard engines).
func (se *ShardedEngine) Metrics() *metrics.Registry { return se.le.m }

// Prepare preprocesses a query string. All shards share one dictionary
// and one set of global statistics, so any shard's preparation is valid
// for every other — one Query serves the whole fan-out.
func (se *ShardedEngine) Prepare(s string) Query {
	for i := range se.le.nShards {
		if e := se.Shard(i); e != nil {
			return e.Prepare(s)
		}
	}
	return Query{} // an empty corpus
}

// Source returns the original string of global set id gid.
func (se *ShardedEngine) Source(gid collection.SetID) string {
	s, _ := se.le.Source(gid)
	return s
}

// Routing copies the routing table (assign[gid] = shard) for persistence
// and inspection.
func (se *ShardedEngine) Routing() []int32 { return se.le.Routing() }

// ShardSummary exposes shard i's pruning summary; nil when the shard is
// empty.
func (se *ShardedEngine) ShardSummary(i int) *route.Summary {
	if g := se.segment(i); g != nil {
		return g.sum
	}
	return nil
}

// query pins q to the current snapshot: the one Query of every segment.
func (se *ShardedEngine) query(q Query) LiveQuery {
	return LiveQuery{snap: se.le.snap.Load(), one: q}
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
	return se.le.runLivePlan(ctx, se.query(q), p)
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
	return se.le.runLivePlan(ctx, se.query(q), p)
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

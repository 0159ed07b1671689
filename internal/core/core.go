// Package core implements the paper's set-similarity selection algorithms
// over the substrates in the sibling packages: the sort-by-id multiway
// merge and SQL baselines (§III), plain TA and NRA, and the improved
// algorithms that exploit the semantic properties of IDF — iTA, iNRA (§V),
// Shortest-First (§VI) and Hybrid (§VII) — plus the top-k and parallel
// extensions the paper lists as future work (§X).
//
// All algorithms answer the same question: given a preprocessed Query and
// a threshold τ, return every set s with I(q, s) ≥ τ (Eq. 1), together
// with access statistics (elements read, skipped, random probes) that the
// evaluation experiments report.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/collection"
	"repro/internal/invlist"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/relational"
	"repro/internal/tokenize"
)

// Algorithm selects one of the implemented query-processing strategies.
type Algorithm int

// The algorithms compared in the paper's evaluation (§VIII), plus Naive
// (the indexless linear scan used as the correctness oracle).
const (
	Naive Algorithm = iota
	SortByID
	SQL
	TA
	NRA
	ITA
	INRA
	SF
	Hybrid
)

var algorithmNames = [...]string{
	Naive:    "naive",
	SortByID: "sort-by-id",
	SQL:      "sql",
	TA:       "ta",
	NRA:      "nra",
	ITA:      "ita",
	INRA:     "inra",
	SF:       "sf",
	Hybrid:   "hybrid",
}

// String returns the name used in experiment reports.
func (a Algorithm) String() string {
	if 0 <= int(a) && int(a) < len(algorithmNames) {
		return algorithmNames[a]
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// Algorithms lists every selectable algorithm, in presentation order.
func Algorithms() []Algorithm {
	return []Algorithm{SortByID, SQL, TA, NRA, ITA, INRA, SF, Hybrid}
}

// Options toggles the optimizations the evaluation ablates.
type Options struct {
	// NoLengthBound disables Theorem 1: no skipping to τ·len(q) and no
	// stopping past len(q)/τ (the "NLB" variants of Fig. 8).
	NoLengthBound bool
	// NoSkipIndex performs the initial length seek by sequential reads
	// instead of the skip index (the "NSL" variants of Fig. 9).
	NoSkipIndex bool
}

// Result is one qualifying set with its exact IDF score.
type Result struct {
	ID    collection.SetID
	Score float64
}

// Stats records the work a query performed.
type Stats struct {
	// ElementsRead counts postings materialized by sorted access.
	ElementsRead int
	// ElementsSkipped counts postings jumped over via skip indexes.
	ElementsSkipped int
	// ListTotal is the combined length of the query tokens' lists (the
	// denominator of pruning power).
	ListTotal int
	// RandomProbes counts membership probes: the TA family's random
	// accesses (packed-bitmap Contains tests) and the bit tests that
	// complete candidates on dense lists — SF's past µᵢ, iNRA's and
	// Hybrid's when the admission gate shuts.
	RandomProbes int
	// CandidateScans counts candidate-set sweep passes.
	CandidateScans int
	// CandidatesInserted counts candidate-set insertions.
	CandidatesInserted int
	// Rounds counts round-robin passes (breadth-first algorithms).
	Rounds int
	// Elapsed is wall-clock query time.
	Elapsed time.Duration
}

// PruningPower is the percentage of list elements never examined,
// the y-axis of Fig. 7.
func (s Stats) PruningPower() float64 {
	if s.ListTotal == 0 {
		return 0
	}
	p := 100 * (1 - float64(s.ElementsRead)/float64(s.ListTotal))
	if p < 0 {
		return 0
	}
	return p
}

// Engine ties a collection to its indexes and runs selection queries.
// NewEngine builds only the inverted lists and the bitmaps of the dense
// ones; what only TA/iTA or SQL read is built by the first query that
// needs it (see buildFor).
type Engine struct {
	c     *collection.Collection
	store invlist.Store
	// dense holds the membership bitmaps SF, iNRA and Hybrid complete
	// dense lists with.
	dense denseLists
	// member holds one word-packed membership bitmap per token, TA/iTA's
	// random access; built under memberOnce by the first TA/iTA query.
	member     []kernel.Set
	memberOnce sync.Once
	// rel is the SQL baseline's relational engine; built under relOnce
	// by the first SQL query or RelationalSizes call.
	rel     *relational.Engine
	relOnce sync.Once
	// m aggregates per-query latency/read/outcome metrics across every
	// selection entry point (Select, SelectTopK, the parallel variants).
	m *metrics.Registry
	// scratch pools queryScratch values so warm queries run without
	// allocating; each in-flight query owns one scratch exclusively.
	scratch sync.Pool
}

// Config controls how NewEngine builds the inverted lists.
type Config struct {
	// Store supplies the inverted lists; nil builds an in-memory store.
	Store invlist.Store
	// SkipInterval is the skip-index spacing for the built MemStore.
	SkipInterval int
}

// NewEngine builds the inverted lists for c per cfg, and the bitmaps of
// the dense ones whatever store holds them. The build is a round its
// caller waits on, so it runs on roundWorkers(c.NumSets()) workers.
func NewEngine(c *collection.Collection, cfg Config) *Engine {
	return newEngine(c, cfg, roundWorkers(c.NumSets()))
}

// newEngine is NewEngine on up to workers goroutines: the in-memory
// lists fill and the dense bitmaps build by token range side by side
// (invlist.BuildMemWorkers, buildDense), into the structures one worker
// builds, bit for bit.
func newEngine(c *collection.Collection, cfg Config, workers int) *Engine {
	e := &Engine{c: c, store: cfg.Store, m: metrics.NewRegistry()}
	if e.store == nil {
		e.store = invlist.BuildMemWorkers(c, cfg.SkipInterval, workers)
	}
	e.dense = buildDense(c, e.store, workers)
	e.wireCacheMetrics()
	return e
}

// buildFor builds, once per engine, what alg reads besides the inverted
// lists: TA/iTA's membership bitmaps or SQL's relational tables. The
// sync.Once makes concurrent first queries share one build and publishes
// the finished structure to every one of them. runPlan calls it before
// starting the query clock, so Stats.Elapsed measures only the query.
func (e *Engine) buildFor(alg Algorithm) {
	switch alg {
	case TA, ITA:
		e.memberOnce.Do(e.buildMember)
	case SQL:
		e.relOnce.Do(e.buildRel)
	}
}

// buildMember builds TA/iTA's random-access path: one word-packed
// membership bitmap per token.
func (e *Engine) buildMember() {
	member := make([]kernel.Set, e.c.NumTokens())
	var sb kernel.SetBuilder
	e.c.TokenSets(func(t tokenize.Token, ids []collection.SetID) {
		for _, id := range ids {
			sb.Add(uint64(id)) // TokenSets yields ascending ids
		}
		member[t] = sb.Build()
	})
	e.member = member
}

func (e *Engine) buildRel() { e.rel = relational.Build(e.c) }

// cacheStatser is implemented by stores with a block cache (FileStore).
type cacheStatser interface {
	CacheStats() invlist.CacheStats
}

// wireCacheMetrics connects the store's block-cache counters to the
// metrics registry, so snapshots report hit rates alongside latency.
func (e *Engine) wireCacheMetrics() {
	cs, ok := e.store.(cacheStatser)
	if !ok || e.m == nil {
		return
	}
	e.m.SetCacheStatsFunc(func() (uint64, uint64) {
		st := cs.CacheStats()
		return st.Hits, st.Misses
	})
}

// Metrics exposes the engine's query metrics registry.
func (e *Engine) Metrics() *metrics.Registry { return e.m }

// observe feeds one completed query into the metrics layer. Every entry
// point calls it exactly once per query, after Stats.Elapsed is stamped.
func (e *Engine) observe(st Stats, err error) {
	if e.m != nil {
		e.m.ObserveQuery(st.Elapsed, st.ElementsRead, err)
	}
}

// Collection exposes the underlying corpus.
func (e *Engine) Collection() *collection.Collection { return e.c }

// Store exposes the inverted-list store.
func (e *Engine) Store() invlist.Store { return e.store }

// Sizes reports the storage of the engine's lists: the store's, plus the
// bitmaps of the dense lists.
func (e *Engine) Sizes() invlist.Sizes {
	z := e.store.Sizes()
	z.Bitmaps = int64(len(e.dense.bits)) * 8
	return z
}

// RelationalSizes exposes the SQL baseline's storage accounting,
// building its tables if no SQL query has yet.
func (e *Engine) RelationalSizes() relational.Sizes {
	e.buildFor(SQL)
	return e.rel.Sizes()
}

// Errors returned by Select.
var (
	ErrEmptyQuery   = errors.New("core: query has no tokens")
	ErrBadThreshold = errors.New("core: threshold must be in (0, 1]")
	ErrUnknownAlg   = errors.New("core: unknown algorithm")
)

// cancelInterval is the guaranteed granularity of context polls in the
// scan loops: a canceller asks ctx.Err() on its first stop() call and at
// least once every cancelInterval calls after that, so a cancelled query
// stops within ~1024 postings (or candidates) of the cancellation. Must
// be a power of two.
const cancelInterval = 1024

// canceller rations ctx.Err() polls for the hot scan loops. Each query
// (and each worker goroutine of the parallel variants) owns its own
// canceller; a nil canceller never stops, which lets internal helpers be
// driven directly by tests without a context.
type canceller struct {
	ctx context.Context
	n   uint32
	err error
}

// stop reports whether the query must abort; after a true return err
// holds the context's error. The poll happens on call 0 and every
// cancelInterval-th call, so the common path is one increment and mask.
func (cc *canceller) stop() bool {
	if cc == nil {
		return false
	}
	if cc.err != nil {
		return true
	}
	if cc.n&(cancelInterval-1) == 0 {
		if err := cc.ctx.Err(); err != nil {
			cc.err = err
			return true
		}
	}
	cc.n++
	return false
}

// Select runs one selection query. Results are sorted by ascending id.
// It is SelectCtx with a background context.
func (e *Engine) Select(q Query, tau float64, alg Algorithm, opts *Options) ([]Result, Stats, error) {
	return e.SelectCtx(context.Background(), q, tau, alg, opts)
}

// SelectCtx runs one selection query under a context. Cancellation or
// deadline expiry is noticed inside every algorithm's list-scan loops
// (at least once every cancelInterval postings): the query
// returns ctx.Err() promptly with the Stats of the work performed so
// far, instead of running to completion. Results are sorted by
// ascending id.
func (e *Engine) SelectCtx(ctx context.Context, q Query, tau float64, alg Algorithm, opts *Options) ([]Result, Stats, error) {
	p, err := selectPlan(q, tau, alg, opts)
	if err != nil {
		return planDone(err)
	}
	return e.runPlan(ctx, q, p, nil)
}

// copyResults moves a scratch-backed result slice to caller-owned memory.
// Empty results become nil, preserving the historical API shape.
func copyResults(rs []Result) []Result {
	if len(rs) == 0 {
		return nil
	}
	out := make([]Result, len(rs))
	copy(out, rs)
	return out
}

// sortResultsInsertionMax bounds the insertion sort: typical selective
// queries return a handful of results, where insertion sort runs 2–3×
// faster than slices.SortFunc; low-τ queries can match tens of
// thousands of sets, where O(n²) is catastrophic. slices.SortFunc takes
// the rest because it allocates nothing (sort.Slice allocates three
// times a call), which keeps a warm selection with many results inside
// its allocation budget. Ids are unique, so both sorts give one order.
const sortResultsInsertionMax = 32

func sortResults(rs []Result) {
	if len(rs) > sortResultsInsertionMax {
		slices.SortFunc(rs, func(a, b Result) int { return cmp.Compare(a.ID, b.ID) })
		return
	}
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j-1].ID > rs[j].ID; j-- {
			rs[j-1], rs[j] = rs[j], rs[j-1]
		}
	}
}

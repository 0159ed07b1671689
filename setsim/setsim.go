// Package setsim is the public API of the set-similarity selection
// library: a Go implementation of "Fast Indexes and Algorithms for Set
// Similarity Selection Queries" (Hadjieleftheriou, Chandel, Koudas,
// Srivastava; ICDE 2008).
//
// A selection query asks: given a query string decomposed into a token
// set, which strings in an indexed corpus have IDF similarity at least τ?
// The library indexes a corpus once (inverted lists in (length, id)
// order with skip samples) and answers queries with any of the paper's
// algorithms — the Shortest-First (SF) algorithm is the recommended
// default. The structures only one baseline reads, TA/iTA's membership
// bitmaps and SQL's relational tables, are built by the first query
// that needs them.
//
// Basic usage:
//
//	idx := setsim.Build(corpus, setsim.QGramTokenizer{Q: 3}, setsim.Config{})
//	q := idx.Prepare("query string")
//	results, stats, err := idx.Select(q, 0.8, setsim.SF, nil)
//
// Every entry point has a context-aware variant (Engine.SelectCtx,
// Engine.SelectTopKCtx, ...) that aborts mid-scan when the context is
// cancelled or its deadline expires, returning ctx.Err(). The engine also
// aggregates per-query latency/read/outcome metrics, exposed via
// Engine.Metrics().Snapshot().
//
// The concrete types live in internal packages; this package re-exports
// them through aliases, so the documented surface is exactly what a
// downstream module can reach.
package setsim

import (
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/tokenize"
)

// Core query types.
type (
	// Engine indexes one corpus and answers selection queries.
	Engine = core.Engine
	// Config controls how Build constructs the inverted lists.
	Config = core.Config
	// Query is a preprocessed query set (see Engine.Prepare).
	Query = core.Query
	// Options toggles Length Bounding and skip-index use per query.
	Options = core.Options
	// Result is one qualifying set and its IDF score in [0, 1].
	Result = core.Result
	// Stats reports the work a query performed.
	Stats = core.Stats
	// Algorithm selects a query-processing strategy.
	Algorithm = core.Algorithm
	// BatchResult is one query's outcome in Engine.SelectBatch.
	BatchResult = core.BatchResult
	// Pair is one matching pair of Engine.SelfJoin (A < B).
	Pair = core.Pair
	// ShardedEngine partitions one corpus across several complete
	// engines sharing global statistics — the segments of a compacted
	// LiveEngine it views — fanning every query out and merging with
	// threshold-aware bounds. Results are bitwise-identical to a
	// monolithic Engine over the same corpus.
	ShardedEngine = core.ShardedEngine
)

// Metrics types (see Engine.Metrics).
type (
	// MetricsRegistry aggregates an engine's per-query metrics.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of a registry: outcome
	// counters plus latency and read-volume histograms.
	MetricsSnapshot = metrics.Snapshot
)

// Collection types.
type (
	// SetID identifies an indexed set; Engine.Collection().Source(id)
	// recovers the original string when sources are retained.
	SetID = collection.SetID
	// Collection is the indexed corpus with its statistics.
	Collection = collection.Collection
	// Builder accumulates strings into a Collection.
	Builder = collection.Builder
)

// Tokenizers.
type (
	// Tokenizer decomposes strings into tokens. Its Tokens method must be
	// safe for concurrent use: concurrent queries prepare through it, and
	// the builds tokenize their corpus on every core.
	Tokenizer = tokenize.Tokenizer
	// WordTokenizer splits on non-alphanumeric runs, lowercased.
	WordTokenizer = tokenize.WordTokenizer
	// QGramTokenizer emits overlapping q-grams (set Q; Pad optionally).
	QGramTokenizer = tokenize.QGramTokenizer
)

// The available algorithms (§III, §V–§VII of the paper).
const (
	// Naive scans the whole collection; the correctness oracle.
	Naive = core.Naive
	// SortByID merges every query list in full (no pruning): the paper's
	// sort-by-id baseline, run over the (len, id)-ordered lists.
	SortByID = core.SortByID
	// SQL runs the relational baseline plan.
	SQL = core.SQL
	// TA is the Threshold Algorithm with random accesses.
	TA = core.TA
	// NRA is the no-random-access Threshold Algorithm.
	NRA = core.NRA
	// ITA is TA improved with the IDF semantic properties.
	ITA = core.ITA
	// INRA is NRA improved with the IDF semantic properties.
	INRA = core.INRA
	// SF is the Shortest-First algorithm — the paper's overall winner
	// and the recommended default.
	SF = core.SF
	// Hybrid combines iNRA's breadth-first scan with SF's cutoffs.
	Hybrid = core.Hybrid
)

// Errors returned by Select and SelectTopK.
var (
	ErrEmptyQuery   = core.ErrEmptyQuery
	ErrBadThreshold = core.ErrBadThreshold
	ErrUnknownAlg   = core.ErrUnknownAlg
)

// Algorithms lists every selectable algorithm in presentation order.
func Algorithms() []Algorithm { return core.Algorithms() }

// NewBuilder starts an incremental corpus builder. keepSource retains
// the original strings for Result → string recovery.
func NewBuilder(tk Tokenizer, keepSource bool) *Builder {
	return collection.NewBuilder(tk, keepSource)
}

// NewEngine indexes a built collection.
func NewEngine(c *Collection, cfg Config) *Engine { return core.NewEngine(c, cfg) }

// Build tokenizes and indexes a corpus in one step. Strings that produce
// no tokens are skipped; ids are assigned in input order among the kept
// strings. The corpus is tokenized on every core (tk.Tokens must be safe
// for concurrent use) into the collection a Builder's Add over it would
// build, byte for byte.
func Build(corpus []string, tk Tokenizer, cfg Config) *Engine {
	return core.NewEngine(core.BuildCollection(tk, corpus, true), cfg)
}

// BuildSharded tokenizes a corpus once — one Tokens call per string,
// whose token-frequency vector then serves the dictionary, the document
// frequencies, the clusterer and the shard's collection alike — and
// indexes it across shards partitions (similarity-aware), each a
// complete engine sharing the corpus-wide token dictionary and
// statistics, each carrying the pruning summary its queries consult. The build runs on every core: the corpus
// is tokenized in chunks (tk.Tokens must be safe for concurrent use),
// the clusterer scores documents side by side and the shards build side
// by side, and the engine is bit for bit the one a single core builds.
// Queries fan out over the process's one bounded worker pool and merge;
// every result — ids, scores, order — is bitwise-identical to Build over
// the same corpus. shards ≤ 1 builds a single partition. The engine is a
// read-only view of a LiveEngine loaded in one round; Close closes it,
// and queries keep working after Close.
func BuildSharded(corpus []string, tk Tokenizer, shards int, cfg Config) *ShardedEngine {
	return core.BuildSharded(tk, corpus, shards, cfg)
}

// ListsOnly returns Config{}, which builds the inverted lists only.
//
// Deprecated: pass Config{}. Every algorithm works on it; TA/iTA's
// bitmaps and SQL's tables are built on first use.
func ListsOnly() Config { return Config{} }

package setsim

import (
	"repro/internal/core"
	"repro/internal/metrics"
)

// Mutable-corpus types. A LiveEngine is an LSM-style segment store:
// immutable segments (each indexed exactly like a static Engine, with
// the global corpus statistics baked in) plus a small memtable absorbing
// recent mutations, folded together by background compaction. Queries
// run against an atomically pinned snapshot and never block on writers.
type (
	// LiveEngine is a mutable engine: Insert/Delete/Upsert plus the full
	// selection surface of Engine, safe for concurrent use.
	LiveEngine = core.LiveEngine
	// LiveConfig configures a LiveEngine: the per-segment index Config
	// plus memtable flush threshold, segment-count bound and the
	// statistics drift bound that triggers a full recompaction.
	LiveConfig = core.LiveConfig
	// LiveQuery is a query pinned to one snapshot (see
	// LiveEngine.Prepare).
	LiveQuery = core.LiveQuery
	// LiveStats summarizes the segment store at one instant.
	LiveStats = core.LiveStats
	// LiveGauges is the segment-store section of a metrics snapshot.
	LiveGauges = metrics.LiveGauges
)

// Errors returned by the mutation API.
var (
	ErrNoTokens = core.ErrNoTokens
	ErrClosed   = core.ErrClosed
)

// NewLive creates an empty mutable engine.
func NewLive(tk Tokenizer, cfg LiveConfig) *LiveEngine { return core.NewLive(tk, cfg) }

// BuildLive bulk-loads a corpus into a mutable engine holding one
// segment per shard — the mutable twin of Build. Strings that produce no
// tokens are skipped; ids are assigned in input order among the kept
// strings. Each kept string is tokenized once and built straight into
// its segment; the result is the engine that inserting them one by one
// and calling Compact would leave, without the memtable in between.
func BuildLive(corpus []string, tk Tokenizer, cfg LiveConfig) *LiveEngine {
	return core.BuildLive(corpus, tk, cfg)
}

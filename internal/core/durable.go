// Durability hooks. The live engine itself never opens a file: the
// storage layer (setsim) attaches a WALSink that journals mutations and
// a CheckpointSink that persists full compaction results, and the
// engine calls them at the right points — the WAL append inside the
// mutation critical section (so record order equals mutation order),
// the durability wait after it (so the lock is never held across disk
// I/O), and the checkpoint at the end of a full compaction round (so
// the persisted state is exactly one published snapshot).
package core

import (
	"io"

	"repro/internal/collection"
	"repro/internal/route"
	"repro/internal/tokenize"
)

// WALSink journals mutations. AppendInsert/AppendDelete are called with
// the engine mutex held and must only buffer (no disk I/O); WaitDurable
// is called after the mutex is released and may block on the disk.
// Record order equals mutation order because appends happen inside the
// serialized mutation critical section.
type WALSink interface {
	AppendInsert(source string) uint64
	AppendDelete(id uint32) uint64
	WaitDurable(seq uint64) error
	// Seq is the last reserved sequence number.
	Seq() uint64
}

// CheckpointSink persists the outcome of a full compaction round. It is
// called with the compaction mutex held but no engine lock, so
// mutations and queries proceed while the checkpoint is written.
type CheckpointSink interface {
	Checkpoint(st *CheckpointState) error
}

// DocRef is one document in a checkpoint: its permanent global id, its
// source text and, for a live document, its token vector in the round's
// ids (ascending by token).
type DocRef struct {
	ID     collection.SetID
	Source string
	Vec    []tokenize.Count
}

// CheckpointState is everything a checkpoint must persist to make the
// WAL records up to WALSeq redundant: the live documents of every shard
// (id-sorted; shard membership doubles as the routing table), the
// tombstoned documents (needed to reconstruct the id space — ids are
// never reused), and each shard's pruning summary. A checkpoint round
// hands over its tokenized input too — the round dictionary and every
// live document's vector — so that recovery rebuilds the round without
// tokenizing (RestoreLiveRound).
type CheckpointState struct {
	// WALSeq is the last WAL sequence number whose effect is contained
	// in this state; the sink may truncate the log through it.
	WALSeq uint64
	// NextID is the size of the id space (the next id to be assigned).
	NextID int
	// LiveN is the number of live documents.
	LiveN int
	// Live holds each shard's live documents in ascending id order.
	Live [][]DocRef
	// Dead holds the tombstoned documents in ascending id order.
	Dead []DocRef
	// Summaries are the per-shard pruning summaries of the freshly
	// compacted segments (nil entries for empty shards).
	Summaries []*route.Summary
	// Dict is the round dictionary's token strings in id order, which
	// the live documents' Vecs number.
	Dict []string
}

// ckptCapture is the engine state gather freezes for a checkpoint
// round, consistent with the work lists captured under the same lock.
type ckptCapture struct {
	walSeq uint64
	nextID int
	liveN  int
	dead   []DocRef
}

// SetDurable attaches the durability sinks. ckptSeq is the WAL sequence
// number already covered by the loaded checkpoint (0 for a fresh
// store): records at or below it are not re-checkpointed. Must be
// called after recovery replay and before concurrent mutations; if the
// WALSink also implements io.Closer, Close closes it after the
// background goroutines stop.
func (le *LiveEngine) SetDurable(w WALSink, cp CheckpointSink, ckptSeq uint64) {
	le.mu.Lock()
	defer le.mu.Unlock()
	le.wal = w
	le.ckptSink = cp
	le.lastCkptSeq.Store(ckptSeq)
}

// CheckpointNow forces a full compaction round and reports the outcome
// of its checkpoint (nil when nothing new needed persisting). Without
// durability sinks it degrades to Compact.
func (le *LiveEngine) CheckpointNow() error {
	le.compact(true, true)
	le.compactMu.Lock()
	defer le.compactMu.Unlock()
	return le.ckptErr
}

// closeWAL closes an attached WALSink that owns a file, flushing its
// buffered tail. Called by Close after the background goroutines stop.
func (le *LiveEngine) closeWAL() {
	if c, ok := le.wal.(io.Closer); ok {
		c.Close()
	}
}

// walPending reports how many WAL records the last checkpoint has not
// absorbed. Zero without durability sinks.
func (le *LiveEngine) walPending() uint64 {
	if le.wal == nil || le.ckptSink == nil {
		return 0
	}
	return le.wal.Seq() - le.lastCkptSeq.Load()
}

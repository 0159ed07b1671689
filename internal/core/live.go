// LiveEngine is the mutable-corpus layer over the immutable Engine: an
// LSM-style segment store. Committed documents live in immutable
// segments — each a full Engine over its sub-corpus, built with the
// global corpus statistics baked in via collection.BuildWithStats — and
// recent mutations live in a small memtable with its own inverted lists
// of memtable positions, so a query scores only the memtable documents
// that share a token with it. Deletes set a bit in a global tombstone
// bitmap consulted when results are emitted, so they take effect
// immediately without touching any index. A background compaction
// goroutine (compact.go) folds the memtable and small or drifted
// segments into fresh segments.
//
// Readers never lock: Prepare pins the current snapshot (an atomically
// swapped, copy-on-write value) and every Select runs against that
// frozen view plus the live tombstones. Reclamation is epoch-based in
// the Go-runtime sense: each swap advances the epoch and unlinks the
// replaced segments from the snapshot; their memory is reclaimed by the
// garbage collector once the last query pinning them returns.
package core

import (
	"context"
	"errors"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collection"
	"repro/internal/metrics"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/tokenize"
)

// LiveConfig configures a LiveEngine.
type LiveConfig struct {
	// Config is the index configuration every segment is built with.
	// Config.Store must be nil: each segment owns an in-memory store.
	Config
	// FlushThreshold is the memtable size (documents) that triggers a
	// background flush into a new segment. ≤ 0 selects 1024.
	FlushThreshold int
	// MaxSegments bounds the immutable segment count; exceeding it
	// triggers a full compaction. ≤ 0 selects 8.
	MaxSegments int
	// DriftBound is the tolerated relative statistics drift of a segment:
	// mutations since it was built divided by the corpus size its weights
	// were baked from. Beyond it a full compaction recomputes the global
	// IDF. ≤ 0 selects 0.25.
	DriftBound float64
	// NoBackground disables the compaction goroutine; Compact must then
	// be called explicitly. Deterministic tests use it.
	NoBackground bool
	// CheckpointEvery bounds the un-checkpointed WAL tail of a durable
	// engine (one with sinks attached via SetDurable): once that many
	// records accumulate past the last checkpoint, the next compaction
	// round escalates to full and checkpoints. 0 selects 8192; negative
	// disables automatic checkpoints (only CheckpointNow persists).
	CheckpointEvery int
	// Shards is the number of partitions the live corpus is split into.
	// Each shard owns its own segment list and memtable: inserts route to
	// one shard by a hash of the document id until a full round
	// re-clusters them, and queries fan out across all shards. Compaction rounds rebuild every drifted
	// shard against one shared statistics snapshot, so the partitions
	// never diverge on scores. ≤ 0 selects 1 (a single partition, the
	// exact monolithic behavior).
	Shards int
}

// Errors returned by the mutation API.
var (
	ErrNoTokens = errors.New("core: string produces no tokens")
	ErrClosed   = errors.New("core: live engine is closed")
)

// memDoc is one memtable document: its distinct tokens as ascending
// store ids plus the normalized length computed under the statistics at
// insert time.
type memDoc struct {
	id   collection.SetID
	toks []tokenize.Token
	len  float64
}

// noToken is the store id of a query token the store dictionary does not
// hold: past every table, so no segment or memtable knows it.
const noToken = ^tokenize.Token(0)

// storeDict is the live store's token dictionary: one id per token for
// every shard, segment and memtable. base is the dictionary of the last
// round that took in every live document; that round's segments were
// built over it and number their tokens by it, so it never changes.
// extra holds the tokens met since, numbered on from base.Len(). The next
// round over every live document replaces both with its own dictionary,
// which drops the tokens no live document holds any more.
type storeDict struct {
	base, extra *tokenize.Dict
}

func newStoreDict(base *tokenize.Dict) storeDict {
	return storeDict{base: base, extra: tokenize.NewDict()}
}

// lookup returns the store id of s and whether the store holds it. A
// token of the base costs one probe; any other, a second in extra.
func (d *storeDict) lookup(s string) (tokenize.Token, bool) {
	if t, ok := d.base.Lookup(s); ok {
		return t, true
	}
	t, ok := d.extra.Lookup(s)
	return tokenize.Token(d.base.Len()) + t, ok
}

// intern returns the store id of s, adding it to extra if it is new.
func (d *storeDict) intern(s string) tokenize.Token {
	if t, ok := d.base.Lookup(s); ok {
		return t
	}
	return tokenize.Token(d.base.Len()) + d.extra.Intern(s)
}

// str returns the string of store id t.
func (d *storeDict) str(t tokenize.Token) string {
	if n := tokenize.Token(d.base.Len()); t >= n {
		return d.extra.String(t - n)
	}
	return d.base.String(t)
}

// liveSegment is one immutable generation: a complete Engine over a
// sub-corpus, with local ids mapping to ascending global ids.
type liveSegment struct {
	eng *Engine
	ids []collection.SetID // local id → global id, strictly ascending
	// sum is the segment's pruning summary, built with it: queries skip
	// the whole segment when its bound cannot reach τ or the circulating
	// top-k bound.
	sum *route.Summary
	// builtN and builtMut freeze the corpus size and mutation counter at
	// build time; drift is measured against them.
	builtN   int
	builtMut uint64
	// dead counts tombstoned documents inside this segment: zero lets
	// emit pass results through and top-k run without a liveness view.
	dead atomic.Int64
	// identity is true when local id i maps to global id i for every
	// document, which holds for any segment compacted over a corpus with
	// no ids lost to deletion — notably a freshly built corpus.
	identity bool
	// local maps a store token id to the segment's own: −1, or an id past
	// the table, is a token the segment's dictionary lacks. nil is the
	// identity below NumTokens, for a segment built over the store
	// dictionary's base.
	local []int32
}

// localToken returns the segment's id of store token t, and whether the
// segment's dictionary holds it.
func (g *liveSegment) localToken(t tokenize.Token) (tokenize.Token, bool) {
	if g.local == nil {
		return t, int(t) < g.eng.c.NumTokens()
	}
	if int(t) >= len(g.local) || g.local[t] < 0 {
		return 0, false
	}
	return tokenize.Token(g.local[t]), true
}

// emit rewrites a segment-local result slice in place to global ids,
// dropping tombstoned documents. Ascending local order is ascending
// global order because ids is sorted.
func (g *liveSegment) emit(res []Result, del *tombstones) []Result {
	if g.identity && g.dead.Load() == 0 {
		// Local ids are global ids and nothing in this segment is
		// tombstoned: the results pass through untouched. Any Delete that
		// completed before this query bumped dead under the mutex first,
		// so only deletes concurrent with the query can race past — and
		// those may legitimately order either side of it.
		return res
	}
	out := res[:0]
	for _, r := range res {
		gid := g.ids[r.ID]
		if del.has(gid) {
			continue
		}
		out = append(out, Result{ID: gid, Score: r.Score})
	}
	return out
}

func (g *liveSegment) liveDocs() int { return len(g.ids) - int(g.dead.Load()) }

// liveShard is one partition of the live corpus: its immutable segments
// plus its own memtable. Inserts route to a shard by id hash until a
// full round re-clusters them; queries fan out over every shard and
// merge.
type liveShard struct {
	segs []*liveSegment
	mem  []memDoc
}

// liveSnapshot is the frozen world a query runs against: every shard's
// segment list and memtable prefix published at one instant. Snapshots
// are immutable; mutations publish a fresh one.
type liveSnapshot struct {
	epoch  uint64
	shards []liveShard
}

func (s *liveSnapshot) memDocs() int {
	n := 0
	for i := range s.shards {
		n += len(s.shards[i].mem)
	}
	return n
}

func (s *liveSnapshot) numSegs() int {
	n := 0
	for i := range s.shards {
		n += len(s.shards[i].segs)
	}
	return n
}

// tombstones is a grow-only atomic bitmap over global ids. Bits are set
// under the engine mutex (writers are serialized) and read lock-free by
// queries; a bitmap value is never cleared, only superseded when the
// array grows.
type tombstones struct {
	bits []atomic.Uint64
}

// set sets the bit of id, which must be inside the bitmap. Writers are
// serialized; readers see the word change atomically.
func (t *tombstones) set(id collection.SetID) {
	w := &t.bits[id>>6]
	w.Store(w.Load() | 1<<(uint(id)&63))
}

func (t *tombstones) has(id collection.SetID) bool {
	if t == nil {
		return false
	}
	w := int(id >> 6)
	if w >= len(t.bits) {
		return false
	}
	return t.bits[w].Load()&(1<<(uint(id)&63)) != 0
}

// LiveEngine is a mutable set-similarity engine: Insert/Delete/Upsert
// under serialized writes, lock-free snapshot reads, and the same
// selection surface as Engine fanned out over segments. All methods are
// safe for concurrent use.
type LiveEngine struct {
	tk      tokenize.Tokenizer
	cfg     LiveConfig
	m       *metrics.Registry
	nShards int

	// mu guards the document log, the store dictionary, the global df
	// table, the memtable index, liveN, the mutation counter, and
	// snapshot publication. Queries take no lock; Prepare takes it
	// briefly in read mode to get a consistent (stats, snapshot,
	// memtable lists) triple.
	mu sync.RWMutex
	// log holds the source of every document ever inserted; its index is
	// the document's permanent global id, and ids are never reused. The
	// tombstone bitmap del is the one record of which are deleted.
	log       []string
	dict      storeDict
	df        []int32 // live document frequency by store token id
	liveN     int     // live documents (inserted minus deleted)
	mutations uint64
	closed    bool
	// memIdx is each shard's memtable index: store token id → the
	// ascending positions in that shard's published memtable of the
	// documents holding it. Writers only append past the list headers
	// pinned queries hold or install fresh lists, never truncate and
	// reuse one, so a header copied under mu stays exact for its
	// snapshot.
	memIdx []map[tokenize.Token][]int32
	// route maps every global id to the shard holding it: hash-assigned
	// at insert, rewritten by full compactions when the similarity-aware
	// clusterer redistributes the corpus. Parallel to log; guarded by mu.
	route []int32
	// lastRouteMut is the mutation count the routing table reflects; a
	// full compaction re-clusters only when mutations have moved past it,
	// so repeated Compact calls stay no-ops. Guarded by mu.
	lastRouteMut uint64

	snap atomic.Pointer[liveSnapshot]
	// del is set under mu and read lock-free by queries.
	del   atomic.Pointer[tombstones]
	epoch atomic.Uint64
	tombs atomic.Int64 // tombstoned docs still present in some segment or the memtable

	// Durability sinks (nil on a non-durable engine). Set once by
	// SetDurable under mu before concurrent mutations; appends happen
	// under mu, WaitDurable and checkpoints outside it. lastCkptSeq is
	// the WAL sequence the last successful checkpoint covered (written
	// under compactMu, read under mu by the kick path).
	wal         WALSink
	ckptSink    CheckpointSink
	lastCkptSeq atomic.Uint64
	ckptErr     error // last checkpoint outcome; guarded by compactMu

	// compactMu serializes compactions (background and explicit);
	// compactCh wakes the background goroutine.
	compactMu sync.Mutex
	compactCh chan struct{}
	closeCh   chan struct{}
	wg        sync.WaitGroup

	compactions     atomic.Uint64
	lastCompactNs   atomic.Int64
	lastCompactDocs atomic.Int64

	// Fan-out and pruning counters, mirrored into metrics.ShardGauges;
	// buffers pools each query's *fanBuffers.
	fanouts       atomic.Uint64
	merged        atomic.Uint64
	boundRaises   atomic.Uint64
	boundChecks   atomic.Uint64
	shardsSkipped atomic.Uint64
	lastSpread    atomic.Int64 // ns, most recent fan-out max-min shard elapsed
	buffers       sync.Pool

	// memAcc pools the memtable scan's per-position score accumulators
	// (*[]float64).
	memAcc sync.Pool
	// tokBufs pools the string buffers mutations tokenize into
	// (*[]string), prep Prepare's scratch (*livePrep).
	tokBufs, prep sync.Pool
}

// NewLive creates an empty mutable engine.
func NewLive(tk tokenize.Tokenizer, cfg LiveConfig) *LiveEngine {
	le := newLive(tk, cfg)
	le.startCompactor()
	return le
}

// newLive is NewLive short of starting the compaction goroutine: a bulk
// load fills the engine first and starts the compactor only once its
// round has published.
func newLive(tk tokenize.Tokenizer, cfg LiveConfig) *LiveEngine {
	if cfg.FlushThreshold <= 0 {
		cfg.FlushThreshold = 1024
	}
	if cfg.MaxSegments <= 0 {
		cfg.MaxSegments = 8
	}
	if cfg.DriftBound <= 0 {
		cfg.DriftBound = 0.25
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 8192
	}
	cfg.Store = nil // each segment builds and owns its MemStore
	le := &LiveEngine{
		tk:        tk,
		cfg:       cfg,
		nShards:   cfg.Shards,
		m:         metrics.NewRegistry(),
		dict:      newStoreDict(tokenize.NewDict()),
		memIdx:    make([]map[tokenize.Token][]int32, cfg.Shards),
		compactCh: make(chan struct{}, 1),
		closeCh:   make(chan struct{}),
	}
	le.snap.Store(&liveSnapshot{shards: make([]liveShard, cfg.Shards)})
	le.m.SetLiveGaugesFunc(le.gauges)
	le.m.SetShardGaugesFunc(func() metrics.ShardGauges {
		return metrics.ShardGauges{
			Shards:      le.nShards,
			Fanouts:     le.fanouts.Load(),
			Merged:      le.merged.Load(),
			BoundRaises: le.boundRaises.Load(),
			BoundChecks: le.boundChecks.Load(),
			Skipped:     le.shardsSkipped.Load(),
			LastSpread:  time.Duration(le.lastSpread.Load()),
		}
	})
	return le
}

// startCompactor starts the background compaction goroutine, which Close
// stops and waits for. A NoBackground engine has none.
func (le *LiveEngine) startCompactor() {
	if !le.cfg.NoBackground {
		le.wg.Add(1)
		go le.compactLoop()
	}
}

// BuildLive bulk-loads a corpus into a fresh LiveEngine holding one
// segment per shard, the mutable twin of Build. Strings that produce no
// tokens are skipped; ids are assigned in input order among the kept
// strings. Each kept string is tokenized once and goes straight into its
// segment: the engine is the one inserting them one by one and calling
// Compact would leave.
func BuildLive(corpus []string, tk tokenize.Tokenizer, cfg LiveConfig) *LiveEngine {
	start := time.Now()
	le := newLive(tk, cfg)
	r := newSegmentRound(tk, roundWorkers(len(corpus)))
	r.addCorpus(corpus)
	log := make([]string, len(r.docs))
	for i, ref := range r.docs {
		log[i] = ref.source
	}
	le.load(log, nil, r, start)
	return le
}

// RestoreLiveRound rebuilds a LiveEngine from a document log — every
// document ever inserted, in id order, tombstoned entries included so ids
// are preserved — and the round a checkpoint stored for it: sr is the
// tokenized input of the round over docs' live documents in id order
// (CheckpointState's Dict and Vecs, or TokenizeRound of their sources).
// The round is rebuilt from it without tokenizing a document and built
// straight into one segment per shard; no memtable, mutation-path insert
// or intermediate compaction is involved, and the engine is the one that
// replaying the log through Insert and Delete and calling Compact would
// leave, because that engine's state is a pure function of (live set, id
// order, shard count). Input no such round can have fails the restore
// with an error wrapping collection.ErrBadCollection.
func RestoreLiveRound(docs []DocState, sr *StoredRound, tk tokenize.Tokenizer, cfg LiveConfig) (*LiveEngine, error) {
	start := time.Now()
	log, del, refs := restoreLog(docs)
	r, err := storedRound(tk, roundWorkers(len(refs)), refs, sr)
	if err != nil {
		return nil, err
	}
	le := newLive(tk, cfg)
	le.load(log, del, r, start)
	return le, nil
}

// restoreLog turns a document log into the engine's log, its tombstone
// bitmap (nil when nothing is deleted) and the round references of its
// live documents, in id order.
func restoreLog(docs []DocState) ([]string, *tombstones, []docRef) {
	log := make([]string, len(docs))
	refs := make([]docRef, 0, len(docs))
	var del *tombstones
	for id, d := range docs {
		log[id] = d.Source
		if !d.Deleted {
			refs = append(refs, docRef{id: collection.SetID(id), source: d.Source})
			continue
		}
		if del == nil {
			del = &tombstones{bits: make([]atomic.Uint64, (len(docs)+63)/64)}
		}
		del.set(collection.SetID(id))
	}
	return log, del, refs
}

// load installs a document log and its tombstones into a fresh engine and
// runs r — the log's live documents, already tokenized — as the engine's
// first round, then starts the compactor. The log, tombstone bitmap, df
// table, liveN, mutation counter and hash routing are installed in one
// critical section, as the Insert/Delete history of the log would have
// left them; the round then re-clusters and builds exactly as the full
// compaction closing that history would.
func (le *LiveEngine) load(log []string, del *tombstones, r *segmentRound, start time.Time) {
	needRoute, mutAt := le.installLog(log, del, r)
	if len(log) > 0 {
		works := make([]shardWork, le.nShards)
		for si := range works {
			works[si].fold = map[*liveSegment]bool{}
		}
		var assign []int32
		if needRoute {
			assign = r.partition(le.roundIDF(r.dict), le.nShards)
		}
		le.runRound(r, works, assign, mutAt, start)
	}
	le.startCompactor()
}

// installLog is load's critical section. It also tags every round
// document with the shard the hash routing puts it in, which is where
// the round leaves it unless it re-clusters.
func (le *LiveEngine) installLog(log []string, del *tombstones, r *segmentRound) (needRoute bool, mutAt uint64) {
	le.mu.Lock()
	defer le.mu.Unlock()
	le.log = log
	le.route = make([]int32, len(log))
	for id := range log {
		// Hash routing, as at insert; the round's re-clustering rewrites
		// the live documents' entries.
		le.route[id] = int32(shardOf(collection.SetID(id), le.nShards))
	}
	if del != nil {
		le.del.Store(del)
	}
	// Only live documents are in the round, so its dictionary is the
	// store's and its frequencies are the live frequencies a delete would
	// have decremented down to.
	le.dict = newStoreDict(r.dict)
	le.df = make([]int32, len(r.df))
	for t, n := range r.df {
		le.df[t] = int32(n)
	}
	dead := len(log) - len(r.docs)
	le.liveN = len(r.docs)
	le.mutations = uint64(len(log) + dead)
	for i := range r.docs {
		r.docs[i].shard = le.route[r.docs[i].id]
	}
	return le.needRouteLocked(true), le.mutations
}

// Close stops the background compaction goroutine, rejects further
// mutations and — on a durable engine — flushes and closes the WAL.
// Queries against the final snapshot keep working.
func (le *LiveEngine) Close() {
	if !le.markClosed() {
		return
	}
	close(le.closeCh)
	le.wg.Wait()
	le.closeWAL()
}

func (le *LiveEngine) markClosed() bool {
	le.mu.Lock()
	defer le.mu.Unlock()
	if le.closed {
		return false
	}
	le.closed = true
	return true
}

// Metrics exposes the engine's query metrics registry, including the
// segment-store gauges.
func (le *LiveEngine) Metrics() *metrics.Registry { return le.m }

// Tokenizer returns the tokenizer documents are decomposed with.
func (le *LiveEngine) Tokenizer() tokenize.Tokenizer { return le.tk }

// NumShards reports the number of partitions the corpus is split into.
func (le *LiveEngine) NumShards() int { return le.nShards }

// distinctTokens tokenizes s into its sorted distinct token strings, in
// a buffer from the pool that putTokens returns it to.
func (le *LiveEngine) distinctTokens(s string) *[]string {
	p, _ := le.tokBufs.Get().(*[]string)
	if p == nil {
		p = new([]string)
	}
	toks := le.tk.Tokens((*p)[:0], s)
	slices.Sort(toks)
	*p = slices.Compact(toks)
	return p
}

// putTokens returns a distinctTokens buffer to the pool. Its strings
// alias the tokenized document, so they are cleared first.
func (le *LiveEngine) putTokens(p *[]string) {
	clear(*p)
	le.tokBufs.Put(p)
}

// Insert adds s as a new document and returns its permanent id. The
// document is searchable as soon as Insert returns. On a durable engine
// the returned error reports a WAL write failure: the mutation is
// applied in memory but may not survive a crash.
func (le *LiveEngine) Insert(s string) (collection.SetID, error) {
	toks := le.distinctTokens(s)
	defer le.putTokens(toks)
	if len(*toks) == 0 {
		return 0, ErrNoTokens
	}
	id, seq, w, err := le.insertCritical(s, *toks)
	if err != nil {
		return 0, err
	}
	if w != nil {
		// The durability wait runs with no lock held: the record is
		// already ordered, only its fsync is outstanding.
		if derr := w.WaitDurable(seq); derr != nil {
			return id, derr
		}
	}
	return id, nil
}

// insertCritical is Insert's serialized section: journal, apply, kick.
func (le *LiveEngine) insertCritical(s string, toks []string) (collection.SetID, uint64, WALSink, error) {
	le.mu.Lock()
	defer le.mu.Unlock()
	if le.closed {
		return 0, 0, nil, ErrClosed
	}
	var seq uint64
	if le.wal != nil {
		seq = le.wal.AppendInsert(s)
	}
	id := le.insertLocked(s, toks)
	le.maybeKickLocked()
	return id, seq, le.wal, nil
}

// Delete tombstones document id. It reports false when the id does not
// exist or is already deleted. The document disappears from results
// immediately; its index entries are reclaimed by the next compaction.
// On a durable engine Delete waits for the record's fsync like Insert
// does; a WAL failure is sticky in the log and surfaces on the next
// Insert/Upsert or Close.
func (le *LiveEngine) Delete(id collection.SetID) bool {
	ok, seq, w := le.deleteCritical(id)
	if ok && w != nil {
		w.WaitDurable(seq) //nolint:errcheck // sticky in the WAL; see doc comment
	}
	return ok
}

func (le *LiveEngine) deleteCritical(id collection.SetID) (bool, uint64, WALSink) {
	le.mu.Lock()
	defer le.mu.Unlock()
	if le.closed {
		return false, 0, nil
	}
	// Journal only deletes that will apply, so replay mirrors history.
	if !le.liveLocked(id) {
		return false, 0, nil
	}
	var seq uint64
	if le.wal != nil {
		seq = le.wal.AppendDelete(uint32(id))
	}
	le.deleteLocked(id)
	le.maybeKickLocked()
	return true, seq, le.wal
}

// Upsert replaces document id with s, returning the new document's id
// (ids are never reused). A missing or already-deleted id degrades to a
// plain insert. Durability errors are reported like Insert's.
func (le *LiveEngine) Upsert(id collection.SetID, s string) (collection.SetID, error) {
	toks := le.distinctTokens(s)
	defer le.putTokens(toks)
	if len(*toks) == 0 {
		return 0, ErrNoTokens
	}
	nid, seq, w, err := le.upsertCritical(id, s, *toks)
	if err != nil {
		return 0, err
	}
	if w != nil {
		if derr := w.WaitDurable(seq); derr != nil {
			return nid, derr
		}
	}
	return nid, nil
}

func (le *LiveEngine) upsertCritical(id collection.SetID, s string, toks []string) (collection.SetID, uint64, WALSink, error) {
	le.mu.Lock()
	defer le.mu.Unlock()
	if le.closed {
		return 0, 0, nil, ErrClosed
	}
	if le.wal != nil && le.liveLocked(id) {
		le.wal.AppendDelete(uint32(id))
	}
	le.deleteLocked(id)
	var seq uint64
	if le.wal != nil {
		seq = le.wal.AppendInsert(s)
	}
	nid := le.insertLocked(s, toks)
	le.maybeKickLocked()
	return nid, seq, le.wal, nil
}

// insertLocked applies an insert of s, whose sorted distinct tokens are
// toks. toks is only read: the memtable keeps the tokens' store ids.
func (le *LiveEngine) insertLocked(s string, toks []string) collection.SetID {
	id := collection.SetID(len(le.log))
	le.log = append(le.log, s)
	ids := make([]tokenize.Token, len(toks))
	for i, t := range toks {
		ids[i] = le.dict.intern(t)
		if int(ids[i]) == len(le.df) {
			le.df = append(le.df, 0)
		}
		le.df[ids[i]]++
	}
	slices.Sort(ids)
	le.liveN++
	le.mutations++
	// The insert-time normalized length, under the statistics as of this
	// insert — exactly what a static build ending here would store.
	var sum sim.SumSq
	for _, t := range ids {
		w := sim.IDF(int(le.df[t]), le.liveN)
		sum.Add(w * w)
	}
	old := le.snap.Load()
	// Fresh inserts hash-route: clustering them would need the (not yet
	// rebuilt) centroids, and the next full compaction folds them into
	// the clustered partitions anyway.
	sh := shardOf(id, le.nShards)
	le.route = append(le.route, int32(sh))
	shards := make([]liveShard, len(old.shards))
	copy(shards, old.shards)
	pos := int32(len(shards[sh].mem))
	// Appending to the owning shard's shared backing array is safe:
	// readers pinned on the old snapshot are bounded by its shorter
	// slice header.
	shards[sh].mem = append(shards[sh].mem, memDoc{id: id, toks: ids, len: sum.Len()})
	le.indexMemLocked(sh, pos, ids)
	le.snap.Store(&liveSnapshot{epoch: le.epoch.Add(1), shards: shards})
	return id
}

// indexMemLocked appends memtable position pos to the lists of toks in
// shard sh's memtable index. The append lands past every header a
// pinned query copied, so those queries keep seeing their snapshot's
// lists.
func (le *LiveEngine) indexMemLocked(sh int, pos int32, toks []tokenize.Token) {
	idx := le.memIdx[sh]
	if idx == nil {
		idx = map[tokenize.Token][]int32{}
		le.memIdx[sh] = idx
	}
	for _, t := range toks {
		idx[t] = append(idx[t], pos)
	}
}

// indexMem builds a memtable index over mem, nil when mem is empty.
func indexMem(mem []memDoc) map[tokenize.Token][]int32 {
	if len(mem) == 0 {
		return nil
	}
	idx := make(map[tokenize.Token][]int32, len(mem))
	for pos, d := range mem {
		for _, t := range d.toks {
			idx[t] = append(idx[t], int32(pos))
		}
	}
	return idx
}

// liveLocked reports whether document id exists and is not deleted.
func (le *LiveEngine) liveLocked(id collection.SetID) bool {
	return int(id) < len(le.log) && !le.del.Load().has(id)
}

func (le *LiveEngine) deleteLocked(id collection.SetID) bool {
	if !le.liveLocked(id) {
		return false
	}
	le.setTombstoneLocked(id)
	le.tombs.Add(1)
	// A live document's tokens are all in the store dictionary.
	toks := le.distinctTokens(le.log[id])
	for _, t := range *toks {
		if tid, ok := le.dict.lookup(t); ok {
			le.df[tid]--
		}
	}
	le.putTokens(toks)
	le.liveN--
	le.mutations++
	// The routing table — not the id hash — says which shard holds the
	// document: compaction may have re-clustered it.
	sh := le.route[id]
	if g := segmentOf(le.snap.Load().shards[sh].segs, id); g != nil {
		g.dead.Add(1)
	}
	return true
}

// setTombstoneLocked sets the bit for id, growing the bitmap if needed.
// Writers are serialized by mu; readers load the array pointer once per
// query and read bits atomically.
func (le *LiveEngine) setTombstoneLocked(id collection.SetID) {
	t := le.del.Load()
	if w := int(id >> 6); t == nil || w >= len(t.bits) {
		grown := &tombstones{bits: make([]atomic.Uint64, (w+1)*2)}
		if t != nil {
			for i := range t.bits {
				grown.bits[i].Store(t.bits[i].Load())
			}
		}
		grown.set(id)
		le.del.Store(grown)
		return
	}
	t.set(id)
}

// segmentOf finds the segment containing global id, if any.
func segmentOf(segs []*liveSegment, id collection.SetID) *liveSegment {
	for _, g := range segs {
		i := sort.Search(len(g.ids), func(i int) bool { return g.ids[i] >= id })
		if i < len(g.ids) && g.ids[i] == id {
			return g
		}
	}
	return nil
}

// maybeKickLocked wakes the compaction goroutine when the memtable is
// full, the segment count overflows, or statistics drift exceeds the
// bound.
func (le *LiveEngine) maybeKickLocked() {
	if le.cfg.NoBackground || le.closed {
		return
	}
	snap := le.snap.Load()
	kick := le.maxDriftLocked(snap) > le.cfg.DriftBound
	for i := range snap.shards {
		sh := &snap.shards[i]
		if len(sh.mem) >= le.cfg.FlushThreshold || len(sh.segs) > le.cfg.MaxSegments {
			kick = true
		}
	}
	// A durable engine also bounds its un-checkpointed WAL tail.
	if le.cfg.CheckpointEvery > 0 && le.walPending() >= uint64(le.cfg.CheckpointEvery) {
		kick = true
	}
	if !kick {
		return
	}
	select {
	case le.compactCh <- struct{}{}:
	default:
	}
}

// maxDriftLocked is the largest relative statistics drift across the
// snapshot's segments: mutations applied since a segment's build,
// relative to the corpus size its weights were baked from.
func (le *LiveEngine) maxDriftLocked(snap *liveSnapshot) float64 {
	var worst float64
	for i := range snap.shards {
		for _, g := range snap.shards[i].segs {
			if d := float64(le.mutations-g.builtMut) / float64(g.builtN); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// Source returns the original string of document id and whether the
// document exists and is live.
func (le *LiveEngine) Source(id collection.SetID) (string, bool) {
	le.mu.RLock()
	defer le.mu.RUnlock()
	if !le.liveLocked(id) {
		return "", false
	}
	return le.log[id], true
}

// NumDocs is the total number of documents ever inserted (the id space).
func (le *LiveEngine) NumDocs() int {
	le.mu.RLock()
	defer le.mu.RUnlock()
	return len(le.log)
}

// NumLive is the number of live (non-deleted) documents.
func (le *LiveEngine) NumLive() int {
	le.mu.RLock()
	defer le.mu.RUnlock()
	return le.liveN
}

// DocState is one document-log entry as exported by Log.
type DocState struct {
	Source  string
	Deleted bool
}

// Log copies the full document log: every document ever inserted, in id
// order, with its tombstone flag. Persistence serializes it so a
// save/load cycle preserves document ids, including those of tombstoned
// documents (ids are never reused).
func (le *LiveEngine) Log() []DocState {
	le.mu.RLock()
	defer le.mu.RUnlock()
	del := le.del.Load()
	out := make([]DocState, len(le.log))
	for i, s := range le.log {
		out[i] = DocState{Source: s, Deleted: del.has(collection.SetID(i))}
	}
	return out
}

// Routing copies the routing table: the shard holding each global id
// (hash-assigned at insert, re-clustered by full compactions).
// Persistence serializes it so snapshot inspection can report the
// partition layout without rebuilding.
func (le *LiveEngine) Routing() []int32 {
	le.mu.RLock()
	defer le.mu.RUnlock()
	out := make([]int32, len(le.route))
	copy(out, le.route)
	return out
}

// ShardSummaries reports each shard's pruning summary — well-defined
// after a full Compact, when every shard holds at most one segment. A
// shard that is empty or mid-merge (multiple segments) reports nil.
func (le *LiveEngine) ShardSummaries() []*route.Summary {
	snap := le.snap.Load()
	out := make([]*route.Summary, len(snap.shards))
	for si := range snap.shards {
		if segs := snap.shards[si].segs; len(segs) == 1 {
			out[si] = segs[0].sum
		}
	}
	return out
}

// LiveStats is a point-in-time summary of the segment store.
type LiveStats struct {
	Docs       int // documents ever inserted
	Live       int // minus deletions
	Tombstones int // deleted docs still occupying index entries
	Memtable   int // docs in the scan-only memtables, all shards
	Segments   int // immutable segments, all shards
	Shards     int // partitions
	Epoch      uint64
	// Compaction counters.
	Compactions        uint64
	LastCompaction     time.Duration
	LastCompactionDocs int
	// MaxDrift is the worst relative statistics drift across segments.
	MaxDrift float64
}

// Stats captures the current segment-store state.
func (le *LiveEngine) Stats() LiveStats {
	le.mu.RLock()
	defer le.mu.RUnlock()
	snap := le.snap.Load()
	return LiveStats{
		Docs:               len(le.log),
		Live:               le.liveN,
		Tombstones:         int(le.tombs.Load()),
		Memtable:           snap.memDocs(),
		Segments:           snap.numSegs(),
		Shards:             le.nShards,
		Epoch:              snap.epoch,
		Compactions:        le.compactions.Load(),
		LastCompaction:     time.Duration(le.lastCompactNs.Load()),
		LastCompactionDocs: int(le.lastCompactDocs.Load()),
		MaxDrift:           le.maxDriftLocked(snap),
	}
}

func (le *LiveEngine) gauges() metrics.LiveGauges {
	st := le.Stats()
	return metrics.LiveGauges{
		Segments:       st.Segments,
		MemtableDocs:   st.Memtable,
		Tombstones:     st.Tombstones,
		Compactions:    st.Compactions,
		LastCompaction: st.LastCompaction,
		MaxDrift:       st.MaxDrift,
	}
}

// LiveQuery is a query pinned to one snapshot: per-segment prepared
// queries for every shard (each in that segment's token numbering and
// baked statistics) plus the token weights and memtable lists the
// memtable scans score with. It may be reused across Select calls;
// mutations applied after Prepare are invisible to it, except deletions,
// which the emit-time tombstone check always honours.
type LiveQuery struct {
	snap  *liveSnapshot
	segQ  [][]Query // [shard][segment], the Query values of one array
	mem   memQuery
	known bool // at least one query token occurs in the live corpus
	// one serves every segment when segQ is nil: the query of a
	// ShardedEngine, whose segments share one dictionary and one set of
	// baked statistics and hold no memtable.
	one Query
}

// segQuery is the Query of segment i of shard si.
func (lq *LiveQuery) segQuery(si, i int) Query {
	if lq.segQ == nil {
		return lq.one
	}
	return lq.segQ[si][i]
}

// livePrep is Prepare's pooled scratch: the raw token buffer and the term
// frequency of each distinct query token.
type livePrep struct {
	raw []string
	tf  []uint32
}

// Prepare tokenizes s against the current snapshot and global statistics
// at a cost that does not grow with the segment count: one tokenize, one
// sort, one store dictionary lookup per distinct token, then every
// segment's Query from integer ids through the segment's id table.
func (le *LiveEngine) Prepare(s string) LiveQuery {
	return le.prepare(s, (*storeDict).lookup)
}

// prepare is Prepare with the store dictionary's lookup passed in, so a
// test can count the calls.
func (le *LiveEngine) prepare(s string, lookup func(*storeDict, string) (tokenize.Token, bool)) LiveQuery {
	sc, _ := le.prep.Get().(*livePrep)
	if sc == nil {
		sc = new(livePrep)
	}
	// raw keeps duplicates for the segments' term frequencies; the
	// memtable scan and the global weights want the distinct tokens.
	raw := le.tk.Tokens(sc.raw[:0], s)
	slices.Sort(raw)
	n := 0
	for i := range raw {
		if i == 0 || raw[i] != raw[i-1] {
			n++
		}
	}
	var toks []memToken
	if n > 0 {
		toks = make([]memToken, n)
	}
	tf := slices.Grow(sc.tf[:0], n)[:n]
	le.mu.RLock()
	snap := le.snap.Load()
	var sum sim.SumSq
	known := false
	for i, j := 0, 0; i < len(raw); j++ {
		k := i + 1
		for k < len(raw) && raw[k] == raw[i] {
			k++
		}
		id, ok := lookup(&le.dict, raw[i])
		df := 0
		if ok {
			df = int(le.df[id])
		} else {
			id = noToken
		}
		known = known || df > 0
		w := sim.IDF(df, le.liveN)
		toks[j] = memToken{id: id, idfSq: w * w}
		tf[j] = uint32(k - i)
		sum.Add(w * w)
		i = k
	}
	// The memtable scan adds a document's summands in the order of
	// toks: decreasing idf, the order of Query.Tokens (core/rescore.go).
	// Ties keep string order where prepare breaks them by token id; no
	// tie-break is needed, since equal-idf tokens add equal summands.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && toks[j-1].idfSq < toks[j].idfSq; j-- {
			toks[j-1], toks[j] = toks[j], toks[j-1]
			tf[j-1], tf[j] = tf[j], tf[j-1]
		}
	}
	lists := le.memListsLocked(snap, toks)
	le.mu.RUnlock()
	clear(raw) // the strings alias s
	sc.raw, sc.tf = raw[:0], tf
	lq := LiveQuery{
		snap:  snap,
		segQ:  make([][]Query, len(snap.shards)),
		mem:   memQuery{toks: toks, qLen: sum.Len(), lists: lists},
		known: known,
	}
	lq.prepareSegments(toks, tf)
	le.prep.Put(sc)
	return lq
}

// prepareSegments fills lq.segQ from the query's distinct tokens and
// their term frequencies: each segment's Query is what the segment's own
// Prepare derives from the string, built from table loads — store id →
// the segment's id → its baked idf. The Query values, every segment's
// Tokens and every segment's Raw are carved from one array each, with
// capacities cut at their lengths so an append cannot spill into the next
// segment's part; a segment that knows no query token keeps nil slices.
func (lq *LiveQuery) prepareSegments(toks []memToken, tf []uint32) {
	total := lq.snap.numSegs()
	if total == 0 {
		return
	}
	n := len(toks)
	qs := make([]Query, total)
	qtoks := make([]QueryToken, total*n)
	raw := make([]tokenize.Count, total*n)
	at := 0
	for si := range lq.snap.shards {
		segs := lq.snap.shards[si].segs
		if len(segs) == 0 {
			continue
		}
		lq.segQ[si], qs = qs[:len(segs):len(segs)], qs[len(segs):]
		for i, g := range segs {
			counts := raw[at:at]
			unknown := 0
			for j, t := range toks {
				if l, ok := g.localToken(t.id); ok {
					counts = append(counts, tokenize.Count{Token: l, TF: tf[j]})
				} else {
					unknown++
				}
			}
			var qt []QueryToken
			if m := len(counts); m == 0 {
				counts = nil
			} else {
				counts = counts[:m:m]
				slices.SortFunc(counts, byToken)
				qt = qtoks[at : at : at+m]
				at += m
			}
			lq.segQ[si][i] = g.eng.prepareInto(counts, unknown, qt)
		}
	}
}

// Select runs one selection query against the snapshot the query was
// prepared on. Results are sorted by ascending id. It is SelectCtx with
// a background context.
func (le *LiveEngine) Select(q LiveQuery, tau float64, alg Algorithm, opts *Options) ([]Result, Stats, error) {
	return le.SelectCtx(context.Background(), q, tau, alg, opts)
}

// SelectCtx runs one selection query under a context, fanning out over
// the pinned snapshot's segments and memtable and merging the
// per-segment answers. Each segment scores against the global statistics
// baked into it at build time; on a single fully compacted segment the
// answers are identical to a static Engine over the same corpus, and the
// merge adds no allocation or sorting work.
func (le *LiveEngine) SelectCtx(ctx context.Context, lq LiveQuery, tau float64, alg Algorithm, opts *Options) ([]Result, Stats, error) {
	p, err := livePlan(planSelect, lq, tau, 0, alg, opts)
	if err != nil {
		return planDone(err)
	}
	return le.runLivePlan(ctx, lq, p)
}

// SelectTopK returns the k highest-scoring live documents (alg ∈ {Naive,
// SF}), sorted by descending score with ties broken by ascending
// id. It is SelectTopKCtx with a background context.
func (le *LiveEngine) SelectTopK(q LiveQuery, k int, alg Algorithm, opts *Options) ([]Result, Stats, error) {
	return le.SelectTopKCtx(context.Background(), q, k, alg, opts)
}

// SelectTopKCtx is SelectTopK under a context. Each segment answers its
// top k over live documents — tombstoned ones never become candidates,
// so they cannot displace live answers — pruning against the one bound
// the query's earlier segments raised; the per-segment answers and the
// memtable matches are merged and cut to k.
func (le *LiveEngine) SelectTopKCtx(ctx context.Context, lq LiveQuery, k int, alg Algorithm, opts *Options) ([]Result, Stats, error) {
	p, err := livePlan(planTopK, lq, 0, k, alg, opts)
	if err != nil {
		return planDone(err)
	}
	return le.runLivePlan(ctx, lq, p)
}

// SelectBatch runs every query with the same τ, algorithm and options on
// a pool of workers (≤ 0 selects GOMAXPROCS). The i-th output
// corresponds to the i-th query. It is SelectBatchCtx with a background
// context.
func (le *LiveEngine) SelectBatch(queries []LiveQuery, tau float64, alg Algorithm, opts *Options, workers int) []BatchResult {
	return le.SelectBatchCtx(context.Background(), queries, tau, alg, opts, workers)
}

// SelectBatchCtx is SelectBatch under a context; cancellation stops
// in-flight queries mid-scan and fails the remainder immediately.
func (le *LiveEngine) SelectBatchCtx(ctx context.Context, queries []LiveQuery, tau float64, alg Algorithm, opts *Options, workers int) []BatchResult {
	return runBatch(len(queries), normWorkers(workers), func(qi int) BatchResult {
		res, st, err := le.SelectCtx(ctx, queries[qi], tau, alg, opts)
		return BatchResult{Results: res, Stats: st, Err: err}
	})
}

// addStats accumulates a per-segment Stats into the merged total;
// Elapsed is stamped once by the caller over the whole fan-out.
func addStats(dst *Stats, s Stats) {
	dst.ElementsRead += s.ElementsRead
	dst.ElementsSkipped += s.ElementsSkipped
	dst.ListTotal += s.ListTotal
	dst.RandomProbes += s.RandomProbes
	dst.CandidateScans += s.CandidateScans
	dst.CandidatesInserted += s.CandidatesInserted
	dst.Rounds += s.Rounds
}

// Compaction folds each shard's memtable and small or drifted segments
// into a fresh immutable segment per shard, rebuilt with the current
// global statistics baked in (collection.BuildWithStats), and publishes
// the result by swapping a new copy-on-write snapshot. Queries in
// flight keep reading the snapshot they pinned; the swap advances the
// epoch and the old segments are garbage-collected once the last pinned
// reader returns — epoch-based reclamation with the Go runtime as the
// grace period.
//
// Every shard rebuilt in one round shares a single token dictionary,
// interned over the round's surviving documents in global id order, and
// a single statistics snapshot: after a full compaction each shard is
// exactly the partition a sharded static build over the live documents
// would produce, so sharded answers stay bitwise-identical to
// monolithic ones. Drift coordination falls out of the same round
// structure — when any shard's statistics drift past the bound, the
// round escalates to full and every drifted shard rebuilds against the
// fresh global statistics, while clean single-segment shards are left
// untouched.
//
// Only the snapshot swap and the bookkeeping recount hold the engine
// lock; gathering survivors takes it in read mode and the index builds —
// the expensive part — run with no lock at all, so mutations and
// queries proceed while a compaction is running. Compactions themselves
// are serialized by compactMu.
package core

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/collection"
	"repro/internal/par"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/tokenize"
)

// Compact synchronously folds everything — all segments and memtables of
// every shard — into one immutable segment per shard, reclaiming
// tombstoned documents and refreshing every baked statistic. It reports
// whether any work was done. After Compact returns (with no concurrent
// mutations) the engine answers queries bitwise-identically to a static
// engine built over the live documents with the same shard count.
func (le *LiveEngine) Compact() bool {
	return le.compact(true, true)
}

func (le *LiveEngine) compactLoop() {
	defer le.wg.Done()
	for {
		select {
		case <-le.closeCh:
			return
		case <-le.compactCh:
			le.compactOnce(false)
		}
	}
}

// shardWork is one shard's share of a compaction round: the segments the
// round folds and the memtable prefix it consumes. A nil fold map marks
// a shard the round leaves untouched.
type shardWork struct {
	fold map[*liveSegment]bool
	memN int
}

// compactOnce runs one compaction round of the background compactor,
// which runs beside queries and so builds on one goroutine.
func (le *LiveEngine) compactOnce(full bool) bool {
	return le.compact(full, false)
}

// compact runs one compaction round. With full set (or when any shard's
// segment count or statistics drift exceeds its bound) every segment of
// every participating shard is folded; otherwise only the memtables and
// undersized segments are. A full round on a routed multi-shard engine
// additionally re-clusters the surviving corpus — hash-routed memtable
// inserts fold into the similarity-aware partitions, reproducing exactly
// the assignment a static BuildSharded over the live documents would
// compute. A round a caller waits on (fanOut) runs on roundWorkers.
func (le *LiveEngine) compact(full, fanOut bool) bool {
	le.compactMu.Lock()
	defer le.compactMu.Unlock()
	start := time.Now()

	// A durable engine escalates to a full round — and checkpoints —
	// once the un-checkpointed WAL tail is long enough, or whenever an
	// explicit full round finds anything new to persist. The sinks are
	// read under the lock SetDurable sets them under: recovery attaches
	// them while a round kicked by its tail replay may be starting.
	le.mu.RLock()
	pending, sink := le.walPending(), le.ckptSink
	le.mu.RUnlock()
	if le.cfg.CheckpointEvery > 0 && pending >= uint64(le.cfg.CheckpointEvery) {
		full = true
	}
	ckpt := sink != nil && full && pending > 0

	works, all, needRoute, mutAt, cap, ok := le.gather(full, ckpt)
	if !ok {
		return false
	}
	// The survivors are tokenized here, once, with no lock held: the
	// sources were copied out. Insert validated every document, so the
	// round cannot refuse one.
	workers := 1
	if fanOut {
		workers = roundWorkers(len(all))
	}
	r := newSegmentRound(le.tk, workers)
	r.addAll(all)
	var reassign []int32
	if needRoute {
		reassign = r.partition(le.roundIDF(r.dict), le.nShards)
	}
	assign, segs := le.runRound(r, works, reassign, mutAt, start)

	// Persist the round as a checkpoint: the round's documents under
	// their final assignment are exactly the live documents per shard,
	// and cap froze the WAL horizon and dead log consistently with them.
	// The round's dictionary and vectors go with them: the round over
	// the live documents in id order, which is what recovery rebuilds.
	// Mutations applied since gather are not in the state — their records
	// sit past cap.walSeq, so the surviving WAL tail replays them. The
	// sink call does the disk work under compactMu only; mutations and
	// queries proceed.
	if cap != nil {
		st := &CheckpointState{
			WALSeq:    cap.walSeq,
			NextID:    cap.nextID,
			LiveN:     cap.liveN,
			Live:      make([][]DocRef, le.nShards),
			Dead:      cap.dead,
			Summaries: make([]*route.Summary, le.nShards),
			Dict:      r.dictStrings(),
		}
		for i, ref := range r.docs {
			st.Live[assign[i]] = append(st.Live[assign[i]], DocRef{ID: ref.id, Source: ref.source, Vec: r.vec(i)})
		}
		for si, g := range segs {
			if g != nil {
				st.Summaries[si] = g.sum
			}
		}
		if err := sink.Checkpoint(st); err != nil {
			le.ckptErr = err
		} else {
			le.ckptErr = nil
			le.lastCkptSeq.Store(cap.walSeq)
		}
	}
	return true
}

// runRound turns a tokenized round into one fresh segment per shard that
// receives documents and publishes them; it returns the shard of each
// round document and the new segments by shard. Every segment of the
// round shares the round's dictionary — interned over the survivors in
// global id order, so after a full round each shard assigns the token
// ids a monolithic rebuild would, which keeps query preparation, and so
// every accumulation order, identical across the partitions — and one
// statistics snapshot.
//
// A re-clustering round passes reassign, the shard of each round
// document: the clusterer sees the same documents in the same order with
// the same token ids and idf a static build derives, so the partition
// matches the static one deterministically. With reassign nil every
// document stays in the shard it was gathered from. The index builds run
// with no engine lock held. The segments keep no sources: the document
// log holds them.
func (le *LiveEngine) runRound(r *segmentRound, works []shardWork, reassign []int32, mutAt uint64, start time.Time) ([]int32, []*liveSegment) {
	assign := reassign
	if assign == nil {
		assign = make([]int32, len(r.docs))
		for i, ref := range r.docs {
			assign[i] = ref.shard
		}
	}
	builders, ids := r.builders(assign, le.nShards, false)
	colls, builtN, builtMut, toStore := le.bakeStats(r, builders)
	// A round over every live document renumbers the store by its own
	// dictionary at the swap, and its segments read store ids as their
	// own; any other round's segments share one table from store ids to
	// the round's.
	rebuild := coversStore(works, le.snap.Load())
	var local []int32
	if !rebuild {
		local = localTable(toStore)
	}
	segs := make([]*liveSegment, le.nShards)
	workers := engineWorkers(r.workers, len(colls))
	par.Each(r.workers, len(colls), "shard", func(si int) {
		c := colls[si]
		if c == nil {
			return // untouched shard, or every gathered doc was deleted
		}
		g := &liveSegment{
			eng:      newEngine(c, le.cfg.Config, workers),
			ids:      ids[si],
			builtN:   builtN,
			builtMut: builtMut,
			// ids ascend strictly from ≥ 0, so the last one tells.
			identity: ids[si][len(ids[si])-1] == collection.SetID(len(ids[si])-1),
			local:    local,
		}
		g.sum = route.Summarize(c, g.eng.store)
		segs[si] = g
	})
	var dict *tokenize.Dict
	if rebuild {
		dict = r.dict
	}
	le.swapSegments(works, segs, r.docs, reassign, mutAt, dict, toStore)
	le.compactions.Add(1)
	le.lastCompactNs.Store(int64(time.Since(start)))
	le.lastCompactDocs.Store(int64(len(r.docs)))
	return assign, segs
}

// gather pins the current snapshot and copies out the surviving
// documents of the segments to fold plus the memtable prefixes: all is
// their id-sorted union across shards (the round's interning order),
// each tagged with the shard holding it. A shard whose round would be
// pure churn — no memtable, at most one segment to fold, no tombstones to
// reclaim, no statistics drift — is skipped (nil fold map); ok is false
// when every shard is skipped. needRoute marks a full round on a
// multi-shard engine with mutations the routing table has not absorbed:
// every shard then participates (documents may move between shards even
// if a shard looks clean in isolation) and the round re-clusters; mutAt
// is the mutation count the fresh routing will reflect.
//
// A checkpoint round (ckpt set; implies full) also forces every shard
// to participate — the checkpoint state must cover the whole corpus,
// not just the churned shards — and freezes, under the same read lock,
// the WAL horizon, id space and dead log the checkpoint will persist.
// The horizon is exact: WAL appends happen inside the write-locked
// mutation section, so no record can land while the read lock is held.
func (le *LiveEngine) gather(full, ckpt bool) (works []shardWork, all []docRef, needRoute bool, mutAt uint64, cap *ckptCapture, ok bool) {
	le.mu.RLock()
	defer le.mu.RUnlock()
	snap := le.snap.Load()
	if !full {
		full = le.maxDriftLocked(snap) > le.cfg.DriftBound
		for si := range snap.shards {
			if len(snap.shards[si].segs) > le.cfg.MaxSegments {
				full = true
			}
		}
	}
	needRoute = le.needRouteLocked(full)
	mutAt = le.mutations
	del := le.del.Load()
	if ckpt {
		cap = &ckptCapture{walSeq: le.wal.Seq(), nextID: len(le.log), liveN: le.liveN}
		for id, s := range le.log {
			if del.has(collection.SetID(id)) {
				cap.dead = append(cap.dead, DocRef{ID: collection.SetID(id), Source: s})
			}
		}
	}
	works = make([]shardWork, len(snap.shards))
	any := false
	survivor := func(id collection.SetID, si int) {
		if !del.has(id) {
			all = append(all, docRef{id: id, source: le.log[id], shard: int32(si)})
		}
	}
	for si := range snap.shards {
		sh := &snap.shards[si]
		w := &works[si]
		fold := map[*liveSegment]bool{}
		var deadIn int64
		drifted := false
		for _, g := range sh.segs {
			if full || g.liveDocs() < le.cfg.FlushThreshold {
				fold[g] = true
				deadIn += g.dead.Load()
			}
			if float64(le.mutations-g.builtMut)/float64(g.builtN) > le.cfg.DriftBound {
				drifted = true
			}
		}
		if !ckpt && !needRoute && len(sh.mem) == 0 && len(fold) < 2 && deadIn == 0 && !drifted {
			continue // pure churn: an identical segment would come back
		}
		any = true
		w.fold = fold
		w.memN = len(sh.mem)
		for _, g := range sh.segs {
			if fold[g] {
				for _, gid := range g.ids {
					survivor(gid, si)
				}
			}
		}
		for _, d := range sh.mem[:w.memN] {
			survivor(d.id, si)
		}
	}
	if !any {
		return nil, nil, false, 0, nil, false
	}
	slices.SortFunc(all, func(a, b docRef) int { return cmp.Compare(a.id, b.id) })
	return works, all, needRoute, mutAt, cap, true
}

// needRouteLocked reports whether a round over the engine's current
// state must re-cluster: a full round on a multi-shard engine with
// mutations the routing table has not absorbed.
func (le *LiveEngine) needRouteLocked(full bool) bool {
	return full && le.nShards > 1 && le.mutations != le.lastRouteMut
}

// roundIDF computes the idf weight of every round-dictionary token under
// the current live statistics — the clustering input, matching what a
// static build's pass 1 derives from its df table.
func (le *LiveEngine) roundIDF(dict *tokenize.Dict) []float64 {
	le.mu.RLock()
	defer le.mu.RUnlock()
	n := le.liveN
	if n < 1 {
		n = 1 // matches the BuildWithStats floor
	}
	idf := make([]float64, dict.Len())
	for t := range idf {
		idf[t] = sim.IDF(le.dfOfLocked(dict.String(tokenize.Token(t))), n)
	}
	return idf
}

// dfOfLocked is the live document frequency of a token string.
func (le *LiveEngine) dfOfLocked(s string) int {
	if t, ok := le.dict.lookup(s); ok {
		return int(le.df[t])
	}
	return 0
}

// bakeStats freezes every round builder under one consistent view of the
// global statistics — a single read-lock spans all the builds, so the
// segments of one compaction round share identical baked weights. It
// also returns the store id of every round token (−1 for none; nil when
// the round's dictionary is the store's base, so the ids are the same),
// which stays exact until the swap: only a swap renumbers the store, and
// compactions are serialized.
func (le *LiveEngine) bakeStats(r *segmentRound, builders []*collection.Builder) ([]*collection.Collection, int, uint64, []int32) {
	le.mu.RLock()
	defer le.mu.RUnlock()
	builtN := le.liveN
	if builtN < 1 {
		builtN = 1 // matches the BuildWithStats floor; keeps drift finite
	}
	var toStore []int32
	if le.dict.base != r.dict {
		toStore = make([]int32, r.dict.Len())
		for t := range toStore {
			toStore[t] = -1
			if id, ok := le.dict.lookup(r.dict.String(tokenize.Token(t))); ok {
				toStore[t] = int32(id)
			}
		}
	}
	// The workers read le.df under the read lock held here; they take
	// no lock of their own, which a waiting writer would deadlock.
	colls := make([]*collection.Collection, len(builders))
	par.Each(r.workers, len(builders), "shard", func(i int) {
		if b := builders[i]; b.Len() > 0 {
			colls[i] = b.BuildWithStats(builtN, le.dfOfLocked)
		}
	})
	return colls, builtN, le.mutations, toStore
}

// coversStore reports whether a round over works takes in every live
// document of snap: each shard folds all its segments, and a shard the
// round skips has none. Its dictionary then holds every live token.
func coversStore(works []shardWork, snap *liveSnapshot) bool {
	for si := range snap.shards {
		if len(works[si].fold) != len(snap.shards[si].segs) {
			return false
		}
	}
	return true
}

// localTable inverts toStore into the table a segment maps store ids
// through: the round's id of each store id, −1 where the round has none.
// It is nil — the identity — when toStore is.
func localTable(toStore []int32) []int32 {
	if toStore == nil {
		return nil
	}
	n := int32(0)
	for _, s := range toStore {
		n = max(n, s+1)
	}
	tab := make([]int32, n)
	for i := range tab {
		tab[i] = -1
	}
	for t, s := range toStore {
		if s >= 0 {
			tab[s] = int32(t)
		}
	}
	return tab
}

// swapSegments publishes the post-compaction snapshot: in every
// participating shard the folded segments are replaced by its new
// segment (nil when every gathered document had been deleted) and the
// consumed memtable prefix is dropped, its index rebuilt over the tail;
// untouched shards carry over.
// Tombstone accounting is recounted from the log. A re-clustered round
// (reassign non-nil, aligned with all) rewrites the routing table for
// every compacted document and records the mutation count it reflects.
// A round over every live document passes its dictionary, which becomes
// the store's (toStore maps its ids to the current store's); the
// memtable documents that arrived during the round are renumbered into it.
func (le *LiveEngine) swapSegments(works []shardWork, newSegs []*liveSegment, all []docRef, reassign []int32, mutAt uint64, dict *tokenize.Dict, toStore []int32) {
	le.mu.Lock()
	defer le.mu.Unlock()
	if reassign != nil {
		for i, ref := range all {
			le.route[ref.id] = reassign[i]
		}
		le.lastRouteMut = mutAt
	}
	var renumber func([]tokenize.Token) []tokenize.Token
	if dict != nil {
		renumber = le.adoptDictLocked(dict, toStore)
	}
	cur := le.snap.Load()
	shards := make([]liveShard, len(cur.shards))
	for si := range cur.shards {
		sh := &cur.shards[si]
		w := &works[si]
		if w.fold == nil {
			shards[si] = *sh
			if renumber != nil && len(sh.mem) > 0 {
				shards[si].mem = le.keepMemLocked(si, sh.mem, renumber)
			}
			continue
		}
		segs := make([]*liveSegment, 0, len(sh.segs)+1)
		for _, g := range sh.segs {
			if !w.fold[g] {
				segs = append(segs, g)
				continue
			}
			// Deletes find segments through the current snapshot, so none
			// reaches a folded one again: count every document of it as
			// possibly dead, and queries still pinned on it check each
			// result's tombstone instead of trusting a frozen count.
			g.dead.Store(int64(len(g.ids)))
		}
		if newSegs[si] != nil {
			segs = append(segs, newSegs[si])
		}
		// The memtable may have grown since gather; keep the unconsumed
		// tail, and index it afresh: its positions shift by the consumed
		// prefix, and queries pinned earlier keep the old lists.
		shards[si] = liveShard{segs: segs, mem: le.keepMemLocked(si, sh.mem[w.memN:], renumber)}
	}
	le.snap.Store(&liveSnapshot{epoch: le.epoch.Add(1), shards: shards})
	// Documents deleted between gather and here survived into the new
	// segments (the emit-time tombstone check hides them); recount dead
	// and tombs from the log so that fold decisions, the store gauges
	// and the queries' dead == 0 fast paths stay accurate.
	del := le.del.Load()
	var tombs int64
	for si := range shards {
		for _, g := range shards[si].segs {
			var dead int64
			for _, gid := range g.ids {
				if del.has(gid) {
					dead++
				}
			}
			g.dead.Store(dead)
			tombs += dead
		}
		for _, d := range shards[si].mem {
			if del.has(d.id) {
				tombs++
			}
		}
	}
	le.tombs.Store(tombs)
}

// keepMemLocked copies the memtable documents a round leaves in shard si
// into a fresh slice — their tokens renumbered when renumber is non-nil —
// and indexes them afresh. Published memtables are never written.
func (le *LiveEngine) keepMemLocked(si int, tail []memDoc, renumber func([]tokenize.Token) []tokenize.Token) []memDoc {
	mem := make([]memDoc, len(tail))
	copy(mem, tail)
	if renumber != nil {
		for i := range mem {
			mem[i].toks = renumber(mem[i].toks)
		}
	}
	le.memIdx[si] = indexMem(mem)
	return mem
}

// adoptDictLocked makes dict — the dictionary of a round over every live
// document — the store's base, carrying the df table over to its
// numbering: toStore maps dict's ids to the current store's (nil: the
// same ids). Tokens no live document holds any more drop out. It returns
// the renumbering of a memtable document that arrived during the round,
// which interns the document's tokens past the new base.
func (le *LiveEngine) adoptDictLocked(dict *tokenize.Dict, toStore []int32) func([]tokenize.Token) []tokenize.Token {
	old, oldDF := le.dict, le.df
	df := make([]int32, dict.Len())
	for t := range df {
		s := int32(t)
		if toStore != nil {
			s = toStore[t]
		}
		if s >= 0 {
			df[t] = oldDF[s]
		}
	}
	le.dict, le.df = newStoreDict(dict), df
	return func(toks []tokenize.Token) []tokenize.Token {
		out := make([]tokenize.Token, len(toks))
		for i, t := range toks {
			out[i] = le.dict.intern(old.str(t))
			if int(out[i]) == len(le.df) {
				le.df = append(le.df, oldDF[t])
			}
		}
		slices.Sort(out)
		return out
	}
}

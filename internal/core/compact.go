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
	"sort"
	"time"

	"repro/internal/collection"
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
	return le.compactOnce(true)
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

// docRef is one surviving document headed into a new segment.
type docRef struct {
	id     collection.SetID
	source string
}

// shardWork is one shard's share of a compaction round. A nil fold map
// marks a shard the round leaves untouched.
type shardWork struct {
	work []docRef
	fold map[*liveSegment]bool
	memN int
}

// compactOnce runs one compaction round. With full set (or when any
// shard's segment count or statistics drift exceeds its bound) every
// segment of every participating shard is folded; otherwise only the
// memtables and undersized segments are. A full round on a routed
// multi-shard engine additionally re-clusters the surviving corpus —
// hash-routed memtable inserts fold into the similarity-aware
// partitions, reproducing exactly the assignment a static BuildSharded
// over the live documents would compute.
func (le *LiveEngine) compactOnce(full bool) bool {
	le.compactMu.Lock()
	defer le.compactMu.Unlock()
	start := time.Now()

	// A durable engine escalates to a full round — and checkpoints —
	// once the un-checkpointed WAL tail is long enough, or whenever an
	// explicit full round finds anything new to persist.
	pending := le.walPending()
	if le.cfg.CheckpointEvery > 0 && pending >= uint64(le.cfg.CheckpointEvery) {
		full = true
	}
	ckpt := le.ckptSink != nil && full && pending > 0

	works, all, needRoute, mutAt, cap, ok := le.gather(full, ckpt)
	if !ok {
		return false
	}

	// One dictionary for every segment built this round, interned over
	// the union of survivors in global id order: after a full compaction
	// each shard assigns the same token ids a monolithic rebuild would,
	// which keeps query preparation — and so every accumulation order —
	// identical across the partitions.
	dict := tokenize.NewDict()
	var toks []string
	for _, ref := range all {
		toks = le.tk.Tokens(toks[:0], ref.source)
		for _, t := range toks {
			dict.Intern(t)
		}
	}

	// Re-cluster a full routed round: the clusterer sees the same
	// documents in the same order with the same token ids and idf a
	// static build's pass 1 would produce, so the partition matches the
	// static one deterministically. The per-shard work lists gathered
	// under the old routing are redistributed before any index builds.
	var reassign []int32
	if needRoute {
		docToks := make([][]tokenize.Token, len(all))
		var scratch []string
		for i, ref := range all {
			counts := tokenize.Counts(dict, le.tk, ref.source, scratch)
			dt := make([]tokenize.Token, len(counts))
			for j, c := range counts {
				dt[j] = c.Token
			}
			docToks[i] = dt
		}
		reassign = route.Partition(docToks, le.roundIDF(dict), le.nShards)
		for si := range works {
			works[si].work = works[si].work[:0]
		}
		// all ascends by id, so every redistributed list stays id-sorted.
		for i, ref := range all {
			works[reassign[i]].work = append(works[reassign[i]].work, ref)
		}
	}

	// Build the replacement segments without holding the lock: the
	// sources were copied out and the builders are private. Insert
	// validated every document, so Add cannot produce an empty set.
	builders := make([]*collection.Builder, len(works))
	idLists := make([][]collection.SetID, len(works))
	identities := make([]bool, len(works))
	for si := range works {
		w := &works[si]
		if w.fold == nil || len(w.work) == 0 {
			continue // untouched shard, or every gathered doc was deleted
		}
		b := collection.NewBuilderWithDict(dict, le.tk, true)
		ids := make([]collection.SetID, 0, len(w.work))
		identity := true
		for _, ref := range w.work {
			if b.Add(ref.source) {
				if ref.id != collection.SetID(len(ids)) {
					identity = false
				}
				ids = append(ids, ref.id)
			}
		}
		builders[si], idLists[si], identities[si] = b, ids, identity
	}
	colls, builtN, builtMut := le.bakeStats(builders)
	segs := make([]*liveSegment, len(works))
	for si := range works {
		if colls[si] == nil {
			continue
		}
		segs[si] = &liveSegment{
			eng:      NewEngine(colls[si], le.cfg.Config),
			ids:      idLists[si],
			builtN:   builtN,
			builtMut: builtMut,
			identity: identities[si],
		}
		if !le.cfg.NoRoute {
			segs[si].sum = route.Summarize(colls[si])
		}
	}

	le.swapSegments(works, segs, all, reassign, mutAt)
	le.compactions.Add(1)
	le.lastCompactNs.Store(int64(time.Since(start)))
	le.lastCompactDocs.Store(int64(len(all)))

	// Persist the round as a checkpoint: the work lists are exactly the
	// live documents per shard (post-reassignment), and cap froze the
	// WAL horizon and dead log consistently with them. Mutations applied
	// since gather are not in the state — their records sit past
	// cap.walSeq, so the surviving WAL tail replays them. The sink call
	// does the disk work under compactMu only; mutations and queries
	// proceed.
	if cap != nil {
		st := &CheckpointState{
			WALSeq:    cap.walSeq,
			NextID:    cap.nextID,
			LiveN:     cap.liveN,
			Live:      make([][]DocRef, len(works)),
			Dead:      cap.dead,
			Summaries: make([]*route.Summary, len(segs)),
		}
		for si := range works {
			refs := make([]DocRef, len(works[si].work))
			for i, ref := range works[si].work {
				refs[i] = DocRef{ID: ref.id, Source: ref.source}
			}
			st.Live[si] = refs
		}
		for si, g := range segs {
			if g != nil {
				st.Summaries[si] = g.sum
			}
		}
		if err := le.ckptSink.Checkpoint(st); err != nil {
			le.ckptErr = err
		} else {
			le.ckptErr = nil
			le.lastCkptSeq.Store(cap.walSeq)
		}
	}
	return true
}

// gather pins the current snapshot and copies out, per shard, the
// surviving documents of the segments to fold plus the memtable prefix.
// all is the id-sorted union across shards (the dictionary interning
// order). A shard whose round would be pure churn — no memtable, at most
// one segment to fold, no tombstones to reclaim, no statistics drift —
// is skipped (nil fold map); ok is false when every shard is skipped.
// needRoute marks a full round on a routed multi-shard engine with
// mutations the routing table has not absorbed: every shard then
// participates (documents may move between shards even if a shard looks
// clean in isolation) and the caller re-clusters; mutAt is the mutation
// count the fresh routing will reflect.
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
	needRoute = full && le.nShards > 1 && !le.cfg.NoRoute && le.mutations != le.lastRouteMut
	mutAt = le.mutations
	if ckpt {
		cap = &ckptCapture{walSeq: le.wal.Seq(), nextID: len(le.log), liveN: le.liveN}
		for id, d := range le.log {
			if d.deleted {
				cap.dead = append(cap.dead, DocRef{ID: collection.SetID(id), Source: d.source})
			}
		}
	}
	works = make([]shardWork, len(snap.shards))
	any := false
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
			if !fold[g] {
				continue
			}
			for _, gid := range g.ids {
				if !le.log[gid].deleted {
					w.work = append(w.work, docRef{id: gid, source: le.log[gid].source})
				}
			}
		}
		for _, d := range sh.mem[:w.memN] {
			if !le.log[d.id].deleted {
				w.work = append(w.work, docRef{id: d.id, source: le.log[d.id].source})
			}
		}
		sort.Slice(w.work, func(i, j int) bool { return w.work[i].id < w.work[j].id })
		all = append(all, w.work...)
	}
	if !any {
		return nil, nil, false, 0, nil, false
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	return works, all, needRoute, mutAt, cap, true
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
		idf[t] = sim.IDF(le.df[dict.String(tokenize.Token(t))], n)
	}
	return idf
}

// bakeStats freezes every round builder under one consistent view of the
// global statistics — a single read-lock spans all the builds, so the
// segments of one compaction round share identical baked weights.
func (le *LiveEngine) bakeStats(builders []*collection.Builder) ([]*collection.Collection, int, uint64) {
	le.mu.RLock()
	defer le.mu.RUnlock()
	builtN := le.liveN
	if builtN < 1 {
		builtN = 1 // matches the BuildWithStats floor; keeps drift finite
	}
	dfFn := func(t string) int { return le.df[t] }
	colls := make([]*collection.Collection, len(builders))
	for i, b := range builders {
		if b != nil {
			colls[i] = b.BuildWithStats(builtN, dfFn)
		}
	}
	return colls, builtN, le.mutations
}

// swapSegments publishes the post-compaction snapshot: in every
// participating shard the folded segments are replaced by its new
// segment (nil when every gathered document had been deleted) and the
// consumed memtable prefix is dropped; untouched shards carry over.
// Tombstone accounting is recounted from the log. A re-clustered round
// (reassign non-nil, aligned with all) rewrites the routing table for
// every compacted document and records the mutation count it reflects.
func (le *LiveEngine) swapSegments(works []shardWork, newSegs []*liveSegment, all []docRef, reassign []int32, mutAt uint64) {
	le.mu.Lock()
	defer le.mu.Unlock()
	if reassign != nil {
		for i, ref := range all {
			le.route[ref.id] = reassign[i]
		}
		le.lastRouteMut = mutAt
	}
	cur := le.snap.Load()
	shards := make([]liveShard, len(cur.shards))
	for si := range cur.shards {
		sh := &cur.shards[si]
		w := &works[si]
		if w.fold == nil {
			shards[si] = *sh
			continue
		}
		segs := make([]*liveSegment, 0, len(sh.segs)+1)
		for _, g := range sh.segs {
			if !w.fold[g] {
				segs = append(segs, g)
			}
		}
		if newSegs[si] != nil {
			segs = append(segs, newSegs[si])
		}
		// The memtable may have grown since gather; keep the unconsumed
		// tail.
		mem := make([]memDoc, len(sh.mem)-w.memN)
		copy(mem, sh.mem[w.memN:])
		shards[si] = liveShard{segs: segs, mem: mem}
	}
	le.snap.Store(&liveSnapshot{epoch: le.epoch.Add(1), shards: shards})
	// Documents deleted between gather and here survived into the new
	// segments (the emit-time tombstone check hides them); recount dead
	// and tombs from the log so that fold decisions, the store gauges
	// and the queries' dead == 0 fast paths stay accurate.
	var tombs int64
	for si := range shards {
		for _, g := range shards[si].segs {
			var dead int64
			for _, gid := range g.ids {
				if le.log[gid].deleted {
					dead++
				}
			}
			g.dead.Store(dead)
			tombs += dead
		}
		for _, d := range shards[si].mem {
			if le.log[d.id].deleted {
				tombs++
			}
		}
	}
	le.tombs.Store(tombs)
}

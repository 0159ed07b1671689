package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/sim"
)

// refScanMemtable is the memtable scan as a per-document merge: each
// live document's ascending distinct store ids merged against the
// query's (sorted here by id), marking the query tokens it holds, then the
// marked summands idf²/(len(q)·len(d)) added in decreasing idf — the
// canonical order of core/rescore.go, sorted here rather than taken from
// Prepare's token order. The indexed scan must reproduce it bitwise.
func refScanMemtable(mem []memDoc, mq *memQuery, tau float64, del *tombstones) []Result {
	byID := make([]int, len(mq.toks))
	for i := range byID {
		byID[i] = i
	}
	sort.Slice(byID, func(a, b int) bool { return mq.toks[byID[a]].id < mq.toks[byID[b]].id })
	var out []Result
	for _, d := range mem {
		if del.has(d.id) {
			continue
		}
		var matched []float64
		for i, j := 0, 0; i < len(d.toks) && j < len(byID); {
			switch qt := mq.toks[byID[j]].id; {
			case d.toks[i] == qt:
				matched = append(matched, mq.toks[byID[j]].idfSq)
				i++
				j++
			case d.toks[i] < qt:
				i++
			default:
				j++
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(matched)))
		var score float64
		for _, w := range matched {
			score += w / (mq.qLen * d.len)
		}
		if score <= 0 {
			continue
		}
		if sim.Meets(score, tau) {
			out = append(out, Result{ID: d.id, Score: score})
		}
	}
	return out
}

// compactKeepingTail runs one compaction round with more inserts landing
// between its gather and its swap, so the swap keeps a memtable tail
// whose positions shift by the consumed prefix.
func compactKeepingTail(t *testing.T, le *LiveEngine, full bool, insert func()) {
	t.Helper()
	le.compactMu.Lock()
	defer le.compactMu.Unlock()
	works, all, needRoute, mutAt, _, ok := le.gather(full, false)
	insert()
	if !ok {
		return
	}
	r := newSegmentRound(le.tk, 1)
	r.addAll(all)
	var reassign []int32
	if needRoute {
		reassign = r.partition(le.roundIDF(r.dict), le.nShards)
	}
	le.runRound(r, works, reassign, mutAt, time.Now())
}

// TestMemtableIndexMatchesScan drives random Insert/Delete/Upsert
// histories with partial, full and tail-keeping compactions, and holds
// every memtable answer of the indexed scan — through Select over a τ
// grid and through SelectTopK — bitwise to the per-document merge over the same
// pinned snapshot. Queries are prepared both before and after later
// mutations, so old list headers are read after writers appended past
// them or replaced the index.
func TestMemtableIndexMatchesScan(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			corpus := randomDocs(1500, 51, 6)
			rng := rand.New(rand.NewSource(int64(52 + shards)))
			le := NewLive(liveTestTK, LiveConfig{
				Config:       Config{},
				NoBackground: true, FlushThreshold: 24, Shards: shards,
			})
			defer le.Close()
			var live []collection.SetID
			insert := func() {
				id, err := le.Insert(corpus[rng.Intn(len(corpus))])
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
			}
			pick := func() int { return rng.Intn(len(live)) }

			checked, tails := 0, 0
			check := func(lq LiveQuery) {
				t.Helper()
				del := le.del.Load()
				// inMem holds every pinned memtable document, tombstoned or
				// not, so an answer the reference lacks is caught too.
				ref, inMem := map[collection.SetID]float64{}, map[collection.SetID]bool{}
				for si := range lq.snap.shards {
					for _, d := range lq.snap.shards[si].mem {
						inMem[d.id] = true
					}
					for _, r := range refScanMemtable(lq.snap.shards[si].mem, &lq.mem, minPositiveTau, del) {
						ref[r.ID] = r.Score
					}
				}
				if lq.snap.memDocs() > 0 {
					checked++
				}
				for i, tau := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1} {
					alg := []Algorithm{SF, INRA, Hybrid, Naive}[i%4]
					got, _, err := le.Select(lq, tau, alg, nil)
					if err != nil && !errors.Is(err, ErrEmptyQuery) {
						t.Fatalf("%v τ=%g: %v", alg, tau, err)
					}
					var mem, want []Result
					for _, r := range got {
						if inMem[r.ID] {
							mem = append(mem, r)
						}
					}
					for id, s := range ref {
						if sim.Meets(s, tau) {
							want = append(want, Result{ID: id, Score: s})
						}
					}
					sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
					if len(mem) != len(want) {
						t.Fatalf("%v τ=%g: %d memtable answers, reference %d", alg, tau, len(mem), len(want))
					}
					for i := range want {
						if mem[i].ID != want[i].ID || math.Float64bits(mem[i].Score) != math.Float64bits(want[i].Score) {
							t.Fatalf("%v τ=%g answer %d: (%d, %x), reference (%d, %x)",
								alg, tau, i, mem[i].ID, mem[i].Score, want[i].ID, want[i].Score)
						}
					}
				}
				for _, k := range []int{1, 5, 20} {
					for _, alg := range []Algorithm{Naive, SF} {
						got, _, err := le.SelectTopK(lq, k, alg, nil)
						if err != nil && !errors.Is(err, ErrEmptyQuery) {
							t.Fatalf("top-%d %v: %v", k, alg, err)
						}
						in := map[collection.SetID]bool{}
						for _, r := range got {
							in[r.ID] = true
							if s, ok := ref[r.ID]; inMem[r.ID] && (!ok || math.Float64bits(r.Score) != math.Float64bits(s)) {
								t.Fatalf("top-%d %v id %d: score %x, reference %x (found %v)", k, alg, r.ID, r.Score, s, ok)
							}
						}
						kth := 0.0
						if len(got) == k {
							kth = got[k-1].Score
						}
						for id, s := range ref {
							if s > kth+sim.ScoreEpsilon && !in[id] {
								t.Fatalf("top-%d %v: memtable id %d scoring %g above the k-th %g is missing", k, alg, id, s, kth)
							}
						}
					}
				}
			}

			var pinned []LiveQuery
			for step := 0; step < 500; step++ {
				switch r := rng.Intn(100); {
				case r < 55 || len(live) == 0:
					insert()
				case r < 70:
					i := pick()
					le.Delete(live[i])
					live = append(live[:i], live[i+1:]...)
				case r < 82:
					i := pick()
					id, err := le.Upsert(live[i], corpus[rng.Intn(len(corpus))])
					if err != nil {
						t.Fatal(err)
					}
					live[i] = id
				case r < 88:
					le.compactOnce(false)
				case r < 91:
					le.Compact()
				default:
					compactKeepingTail(t, le, rng.Intn(2) == 0, func() {
						for n := 1 + rng.Intn(6); n > 0; n-- {
							insert()
						}
					})
					if le.snap.Load().memDocs() > 0 {
						tails++
					}
				}
				if step%5 == 0 {
					lq := le.Prepare(corpus[rng.Intn(len(corpus))])
					check(lq)
					pinned = append(pinned, lq)
				}
				if step%7 == 0 && len(pinned) > 0 {
					check(pinned[rng.Intn(len(pinned))])
				}
			}
			if checked < 50 || tails < 5 {
				t.Fatalf("history too thin: %d checks over a memtable, %d kept tails", checked, tails)
			}
		})
	}
}

// frozenSnapshot is what a published live snapshot held when it was
// published: its epoch, each shard's segment pointers and the ids of
// each memtable within its own slice header.
type frozenSnapshot struct {
	snap  *liveSnapshot
	epoch uint64
	segs  [][]*liveSegment
	mem   [][]collection.SetID
}

func freezeSnapshot(s *liveSnapshot) frozenSnapshot {
	f := frozenSnapshot{snap: s, epoch: s.epoch}
	for i := range s.shards {
		f.segs = append(f.segs, slices.Clone(s.shards[i].segs))
		var ids []collection.SetID
		for _, d := range s.shards[i].mem {
			ids = append(ids, d.id)
		}
		f.mem = append(f.mem, ids)
	}
	return f
}

// changed describes how the snapshot now differs from its frozen copy,
// or returns "" when it does not.
func (f *frozenSnapshot) changed() string {
	s := f.snap
	if s.epoch != f.epoch {
		return fmt.Sprintf("epoch is now %d", s.epoch)
	}
	if len(s.shards) != len(f.segs) {
		return fmt.Sprintf("has %d shards, published with %d", len(s.shards), len(f.segs))
	}
	for i := range s.shards {
		if !slices.Equal(s.shards[i].segs, f.segs[i]) {
			return fmt.Sprintf("shard %d: segments %p, published %p", i, s.shards[i].segs, f.segs[i])
		}
		mem := s.shards[i].mem
		if len(mem) != len(f.mem[i]) {
			return fmt.Sprintf("shard %d: memtable of %d documents, published with %d", i, len(mem), len(f.mem[i]))
		}
		for j, d := range mem {
			if d.id != f.mem[i][j] {
				return fmt.Sprintf("shard %d: memtable position %d holds id %d, published %d", i, j, d.id, f.mem[i][j])
			}
		}
	}
	return ""
}

// TestPublishedSnapshotsStayFrozen holds the live engine to copy-on-write
// publication: a snapshot stored in le.snap is never written again.
// Queries pin a snapshot and read it with no lock held, so a mutator
// that edits a published shard slice, segment list or memtable header in
// place changes what a running query sees. A random Insert, Delete,
// Upsert and compaction history (partial, full and tail-keeping rounds)
// runs on 1 and 3 shards; every snapshot the mutators publish is kept
// with a copy taken at publication, and after every step each kept
// snapshot must still equal its copy.
func TestPublishedSnapshotsStayFrozen(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			corpus := randomDocs(600, 81, 6)
			rng := rand.New(rand.NewSource(int64(82 + shards)))
			le := NewLive(liveTestTK, LiveConfig{NoBackground: true, FlushThreshold: 16, Shards: shards})
			defer le.Close()
			kept := []frozenSnapshot{freezeSnapshot(le.snap.Load())}
			observe := func() {
				if s := le.snap.Load(); s != kept[len(kept)-1].snap {
					kept = append(kept, freezeSnapshot(s))
				}
			}
			var live []collection.SetID
			insert := func() {
				id, err := le.Insert(corpus[rng.Intn(len(corpus))])
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
				observe()
			}
			withSegs := 0
			for step := 1; step <= 400; step++ {
				switch r := rng.Intn(100); {
				case r < 50 || len(live) == 0:
					insert()
				case r < 65:
					i := rng.Intn(len(live))
					le.Delete(live[i])
					live = append(live[:i], live[i+1:]...)
				case r < 80:
					i := rng.Intn(len(live))
					id, err := le.Upsert(live[i], corpus[rng.Intn(len(corpus))])
					if err != nil {
						t.Fatal(err)
					}
					live[i] = id
				case r < 90:
					le.compactOnce(false)
				case r < 95:
					le.Compact()
				default:
					compactKeepingTail(t, le, rng.Intn(2) == 0, func() {
						for n := 1 + rng.Intn(4); n > 0; n-- {
							insert()
						}
					})
				}
				observe()
				for i := range kept {
					if msg := kept[i].changed(); msg != "" {
						t.Fatalf("step %d: the snapshot published at epoch %d changed: %s", step, kept[i].epoch, msg)
					}
				}
				if s := le.snap.Load(); s.numSegs() > 0 && s.memDocs() > 0 {
					withSegs++
				}
			}
			if len(kept) < 200 || withSegs < 100 {
				t.Fatalf("history too thin: %d snapshots kept, %d steps with segments and a memtable", len(kept), withSegs)
			}
		})
	}
}

// TestPinnedQueryHonoursLaterDeletes: a query pinned before a compaction
// keeps running against the segments that compaction folded, which no
// later delete reaches. A document deleted after the compaction must
// still vanish from the pinned query's selection and top-k answers.
func TestPinnedQueryHonoursLaterDeletes(t *testing.T) {
	corpus := randomDocs(200, 61, 5)
	for _, shards := range []int{1, 3} {
		le := BuildLive(corpus, liveTestTK, LiveConfig{
			Config:       Config{},
			NoBackground: true, Shards: shards,
		})
		lq := le.Prepare(corpus[0])
		if _, err := le.Insert(corpus[1]); err != nil {
			t.Fatal(err)
		}
		if !le.Compact() {
			t.Fatal("Compact reported no work")
		}
		if !le.Delete(0) {
			t.Fatal("Delete(0) reported false")
		}
		for _, alg := range []Algorithm{Naive, SF} {
			sel, _, err := le.Select(lq, 0.5, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			top, _, err := le.SelectTopK(lq, 1, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(top) != 1 {
				t.Fatalf("shards=%d %v: top-1 holds %d answers", shards, alg, len(top))
			}
			for _, r := range append(sel, top...) {
				if r.ID == 0 {
					t.Fatalf("shards=%d %v: deleted id 0 answered on a query pinned before the compaction", shards, alg)
				}
			}
		}
		le.Close()
	}
}

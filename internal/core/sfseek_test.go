package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/invlist"
	"repro/internal/tokenize"
)

// seekShapes builds the shapes over the fixture corpus: the static
// engine on a MemStore and on a FileStore opened from a written list
// file (the cursor path of seekTo), routed shards at K ∈ {1, 4, 7}, and
// a live engine with segments, a memtable and tombstones.
func seekShapes(t *testing.T, docs []string) []shape {
	t.Helper()
	c := collectionOf(liveTestTK, docs)
	out := []shape{engineShape("mem", NewEngine(c, Config{}))}

	path := filepath.Join(t.TempDir(), "lists.ssidx")
	if err := invlist.WriteFile(path, c, 8); err != nil {
		t.Fatal(err)
	}
	fs, err := invlist.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	out = append(out, engineShape("file", NewEngine(c, Config{Store: fs})))

	for _, K := range []int{1, 4, 7} {
		se := BuildSharded(liveTestTK, docs, K, Config{})
		t.Cleanup(se.Close)
		out = append(out, shardedShape(fmt.Sprintf("sharded/K=%d", K), se))
	}

	// Partial compactions flush the memtable into segments kept apart
	// (FlushThreshold is the size below which one is folded again), so
	// the deletes that follow become segment tombstones.
	le := NewLive(liveTestTK, LiveConfig{
		NoBackground:   true,
		FlushThreshold: 16, DriftBound: 1e9, MaxSegments: 1 << 20,
	})
	t.Cleanup(le.Close)
	for i, s := range docs[:300] {
		if _, err := le.Insert(s); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if i == 139 || i == 219 || i == 279 {
			le.compactOnce(false)
		}
	}
	for i := 3; i < 300; i += 7 {
		le.Delete(collection.SetID(i))
	}
	if st := le.Stats(); st.Segments < 2 || st.Memtable == 0 || st.Tombstones < 40 {
		t.Fatalf("live scenario not established: %+v", st)
	}
	return append(out, liveShape("live", le))
}

// TestSFCompletionSeeks pins what seeking to candidates buys: SF's past
// µᵢ (completeSF), and iNRA's and Hybrid's once F < τ has shut the
// admission gate (seekCandidate). Their answers are the oracle's
// (TestQueryEquivalence, whose options axis runs NoSkipIndex, the
// paper's posting-by-posting reads). Here, on every engine shape and on
// both paths of seekTo, no query reads and skips more than its lists
// hold, a seek reads less where there is something to seek over, on long
// queries, and it stays cancellable inside the new loops.
func TestSFCompletionSeeks(t *testing.T) {
	docs := randomDocs(500, 1234, 6)
	// The wide class, in TestWideQueries' shape: long strings over a small
	// alphabet, so queries of 70 and more lists whose candidates qualify
	// while absent from many of them. There a Hybrid seek often lands past
	// an absent candidate and leaves its list paused, which is the case
	// the pass right after the seek exists for.
	rng := rand.New(rand.NewSource(1235))
	for i := 0; i < 60; i++ {
		var sb strings.Builder
		for j := 40 + rng.Intn(60); j > 0; j-- {
			sb.WriteByte(byte('a' + rng.Intn(5)))
		}
		docs = append(docs, sb.String())
	}
	// The long-query class: documents of 14 characters and more, whose
	// dozen lists leave SF candidates to complete in every list but the
	// first, and four wide ones.
	var queries []string
	for _, d := range docs[:500] {
		if len(d) >= 14 && len(queries) < 12 {
			queries = append(queries, d)
		}
	}
	queries = append(queries, docs[500], docs[520], docs[529], docs[559])
	paper := &Options{NoSkipIndex: true}
	taus := []float64{0.5, 0.7, 0.8, 0.95}
	ks := []int{1, 10, 1 << 20}
	algs := []Algorithm{SF, INRA, Hybrid}

	for _, sf := range seekShapes(t, docs) {
		t.Run(sf.name, func(t *testing.T) {
			selReads, selPaper := map[Algorithm]int{}, map[Algorithm]int{}
			topkReads, topkPaper := map[int]int{}, map[int]int{}
			for _, qs := range queries {
				for _, tau := range taus {
					for _, alg := range algs {
						label := fmt.Sprintf("%v %q τ=%g", alg, qs, tau)
						_, st, err := sf.sel(qs, tau, alg, nil)
						_, stPaper, errPaper := sf.sel(qs, tau, alg, paper)
						if err != nil || errPaper != nil {
							t.Fatalf("%s: %v, %v", label, err, errPaper)
						}
						if st.ElementsRead+st.ElementsSkipped > st.ListTotal {
							t.Fatalf("%s: read %d + skipped %d of %d", label, st.ElementsRead, st.ElementsSkipped, st.ListTotal)
						}
						selReads[alg] += st.ElementsRead
						selPaper[alg] += stPaper.ElementsRead
					}
				}
				for _, k := range ks {
					_, st, err := sf.topk(qs, k, SF, nil)
					_, stPaper, errPaper := sf.topk(qs, k, SF, paper)
					if err != nil || errPaper != nil {
						t.Fatalf("top-%d %q: %v, %v", k, qs, err, errPaper)
					}
					topkReads[k] += st.ElementsRead
					topkPaper[k] += stPaper.ElementsRead
				}
			}
			for _, alg := range algs {
				if sf.parts > 1 {
					// Nothing to gain here, and a gallop's last probe can
					// land past the posting the sequential scan stops at,
					// so hold the excess small.
					if selReads[alg]*100 > selPaper[alg]*102 {
						t.Errorf("%v selection on long queries read %d postings, over 2%% above the %d without seeking", alg, selReads[alg], selPaper[alg])
					}
				} else if selReads[alg] >= selPaper[alg] {
					t.Errorf("%v selection on long queries read %d postings, %d without seeking", alg, selReads[alg], selPaper[alg])
				}
			}
			if sf.parts > 1 {
				// Top-k reads of concurrent shards depend on how their
				// rising bounds interleave and are not compared.
				return
			}
			// At k = 1<<20 the bound never rises, no list is ever past µᵢ
			// and nothing is sought.
			for _, k := range []int{1, 10} {
				if topkReads[k] >= topkPaper[k] {
					t.Errorf("top-%d on long queries read %d postings, %d without seeking", k, topkReads[k], topkPaper[k])
				}
			}
			t.Logf("long queries: selection read SF %d (sequential %d), iNRA %d (%d), Hybrid %d (%d); SF top-1 %d (%d), top-10 %d (%d)",
				selReads[SF], selPaper[SF], selReads[INRA], selPaper[INRA], selReads[Hybrid], selPaper[Hybrid],
				topkReads[1], topkPaper[1], topkReads[10], topkPaper[10])
		})
	}

	// A query cancelled while completeSF runs stops there: with a
	// candidate at every third posting of a long list the loop makes
	// several thousand polls, and the canceller, started one call past a
	// poll, looks at the context for the first time well inside it. The
	// FileStore twin has one candidate behind a run of equal lengths as
	// long as the list, so its poll falls inside seekTo's walk. The same
	// holds for seekCandidate, iNRA's and Hybrid's read step once the gate
	// has shut, which polls only inside its seek: a canceller due to poll
	// on its first call stops it there with the context's error, and
	// without a cancel it lands on its candidate at the end of the list.
	t.Run("cancel", func(t *testing.T) {
		const n = 6000
		b := collection.NewBuilder(tokenize.WordTokenizer{}, true)
		for i := 0; i < n; i++ {
			b.Add("shared")
		}
		c := b.Build()
		path := filepath.Join(t.TempDir(), "ties.ssidx")
		if err := invlist.WriteFile(path, c, 0); err != nil {
			t.Fatal(err)
		}
		fs, err := invlist.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		tok := NewEngine(c, Config{}).Prepare("shared").Tokens[0]
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()

		mem := invlist.BuildMem(c, 0)
		for _, tc := range []struct {
			name  string
			store invlist.Store
			every int // a candidate at every every-th posting
		}{{"mem", mem, 3}, {"file", fs, n - 1}} {
			for _, ctx := range []context.Context{context.Background(), cancelled} {
				open := func() listState {
					l := listState{cur: tc.store.WeightCursor(tok.Token), idfSq: tok.IDFSq}
					l.attach()
					return l
				}
				l := open()
				var rest []sfCand
				for id := tc.every; id < n; id += tc.every {
					rest = append(rest, sfCand{id: collection.SetID(id), len: c.Length(collection.SetID(id))})
				}
				cc := &canceller{ctx: ctx, n: 1}
				var st Stats
				kept, done := completeSF(cc, &l, nil, rest, nil, 1, tok.IDFSq, 0, minPositiveTau, nil, nil, &st)

				last := collection.SetID(n - 1)
				rs, rl := &queryScratch{}, open()
				rs.resetOrder(1)
				rs.imp = append(rs.imp, impCand{id: last, len: c.Length(last)})
				rs.ord = append(rs.ord, 0)
				seekCC := &canceller{ctx: ctx}
				sought := rs.seekCandidate(seekCC, &rl, 0, &Stats{})
				if p, ok := rl.frontier(); ctx == cancelled && (sought || !errors.Is(seekCC.err, context.Canceled)) ||
					ctx != cancelled && (!sought || !ok || p.ID != last) {
					t.Fatalf("%s: seekCandidate returned %v with err %v, frontier %+v", tc.name, sought, seekCC.err, p)
				}

				if ctx == cancelled {
					if done || !errors.Is(cc.err, context.Canceled) {
						t.Fatalf("%s: completion ran on under a cancelled context (done=%v, err=%v)", tc.name, done, cc.err)
					}
					if st.ElementsRead+st.ElementsSkipped == 0 || st.ElementsRead+st.ElementsSkipped > cancelInterval {
						t.Errorf("%s: cancelled after %d read + %d skipped postings, want within (0, %d]",
							tc.name, st.ElementsRead, st.ElementsSkipped, cancelInterval)
					}
					continue
				}
				if !done || cc.err != nil {
					t.Fatalf("%s: completion stopped without a cancel (done=%v, err=%v)", tc.name, done, cc.err)
				}
				if len(kept) != len(rest) {
					t.Fatalf("%s: %d of %d candidates kept", tc.name, len(kept), len(rest))
				}
				for i, cand := range kept {
					if cand.id != rest[i].id || cand.lower <= 0 {
						t.Fatalf("%s: candidate %d was not completed", tc.name, rest[i].id)
					}
				}
				if st.ElementsRead+st.ElementsSkipped > n {
					t.Errorf("%s: read %d + skipped %d of %d", tc.name, st.ElementsRead, st.ElementsSkipped, n)
				}
			}
		}
	})
}

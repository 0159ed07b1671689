package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/collection"
	"repro/internal/tokenize"
)

// liveTopKOracle is the live top-k ground truth, sharing no top-k code:
// the Naive threshold selection at a threshold every match reaches,
// ordered by (score desc, id asc) and cut to k.
func liveTopKOracle(t *testing.T, le *LiveEngine, lq LiveQuery, k int) []Result {
	t.Helper()
	all, _, err := le.Select(lq, minPositiveTau, Naive, nil)
	if err != nil {
		t.Fatalf("oracle selection: %v", err)
	}
	return byScore(all)[:min(k, len(all))]
}

// TestLiveTopKTombstones: live top-k asks every segment for exactly k
// and keeps tombstoned documents out of the k-th bound, so it must stay
// exact however the deletes fall — on the very documents a segment
// would have answered with, in numbers that dwarf k, and down to fewer
// than k survivors — without a compaction in between.
func TestLiveTopKTombstones(t *testing.T) {
	for _, shards := range []int{1, 4} {
		corpus := randomDocs(300, 31, 6)
		// FlushThreshold is the size below which a partial compaction
		// folds a segment again: 16 keeps every flushed segment apart.
		le := NewLive(liveTestTK, LiveConfig{
			NoBackground:   true,
			FlushThreshold: 16, DriftBound: 1e9, MaxSegments: 1 << 20, Shards: shards,
		})
		for i, s := range corpus {
			// Ids are log positions: corpus[i] is document i.
			if id, err := le.Insert(s); err != nil || int(id) != i {
				t.Fatalf("insert %d: id %d, %v", i, id, err)
			}
			// Partial compactions flush the memtables into segments, so
			// the deletes below become segment tombstones.
			if i == 139 || i == 219 || i == 279 {
				le.compactOnce(false)
			}
		}
		check := func(lq LiveQuery, k int) {
			want := liveTopKOracle(t, le, lq, k)
			for _, alg := range []Algorithm{Naive, SF} {
				got, _, err := le.SelectTopK(lq, k, alg, nil)
				if err != nil {
					t.Fatalf("top-%d %v: %v", k, alg, err)
				}
				assertBitwise(t, fmt.Sprintf("top-%d %v", k, alg), got, want)
			}
		}
		var largest *liveSegment
		for _, sh := range le.snap.Load().shards {
			for _, g := range sh.segs {
				if largest == nil || len(g.ids) > len(largest.ids) {
					largest = g
				}
			}
		}
		if st := le.Stats(); st.Segments < 2*shards || st.Memtable == 0 {
			t.Fatalf("shards=%d: scenario not established: %+v", shards, st)
		}

		// The k best documents of the largest segment are all tombstoned:
		// its answer must come from below its old top k.
		rng := rand.New(rand.NewSource(32))
		beheaded := 0
		for trial := 0; trial < 8; trial++ {
			// Multiples of 15 survive every delete of this test, so the
			// query strings keep their tokens in the live statistics.
			lq := le.Prepare(corpus[15*rng.Intn(len(corpus)/15)])
			k := 1 + rng.Intn(6)
			killed := 0
			for _, r := range liveTopKOracle(t, le, lq, len(corpus)) {
				if killed == k {
					break
				}
				if segmentOf([]*liveSegment{largest}, r.ID) != nil && r.ID%15 != 0 {
					le.Delete(r.ID)
					killed++
				}
			}
			if killed == k {
				beheaded++
			}
			check(lq, k)
		}
		if beheaded < 4 {
			t.Fatalf("shards=%d: only %d of 8 queries lost their k best in the largest segment", shards, beheaded)
		}

		// Deletes ≫ k: keep 1 document in 15.
		for i := range corpus {
			if i%15 != 0 {
				le.Delete(collection.SetID(i))
			}
		}
		if st := le.Stats(); st.Tombstones < 250 {
			t.Fatalf("shards=%d: scenario not established: %+v", shards, st)
		}
		for trial := 0; trial < 20; trial++ {
			lq := le.Prepare(corpus[15*rng.Intn(len(corpus)/15)])
			check(lq, 1+rng.Intn(6))
			// k beyond the live count: every live match, ranked.
			check(lq, len(corpus))
		}
		le.Close()
	}
}

// TestLiveTopKDeletesAddNoWork pins what "k stays k" buys. Deleting far
// more than k documents must not make SF top-k read or admit more than
// the same store did before the deletes (asking each segment for k plus
// its tombstone count did both). The victims share no token with the
// queries, which makes the comparison exact rather than statistical: a
// victim the query does reach may legitimately cost a few reads, because
// it no longer props up the rising bound.
func TestLiveTopKDeletesAddNoWork(t *testing.T) {
	// Clusters of near-duplicates over a..l, so that the k-th score is
	// high and the bound prunes; victims over m..x, interleaved.
	bases := randomDocs(80, 41, 12)
	rng := rand.New(rand.NewSource(42))
	le := NewLive(liveTestTK, LiveConfig{
		NoBackground:   true,
		FlushThreshold: 16, DriftBound: 1e9, MaxSegments: 1 << 20,
	})
	defer le.Close()
	var queries []string
	var victims []collection.SetID
	insert := func(s string) collection.SetID {
		id, err := le.Insert(s)
		if err != nil {
			t.Fatalf("insert %q: %v", s, err)
		}
		return id
	}
	for v := 0; v < 12; v++ {
		for bi, b := range bases {
			doc := []byte(b + b)
			doc[rng.Intn(len(doc))] = byte('a' + rng.Intn(12))
			insert(string(doc))
			if v == 0 && bi%4 == 0 {
				queries = append(queries, string(doc))
			}
			victim := make([]byte, 6+rng.Intn(12))
			for i := range victim {
				victim[i] = byte('m' + rng.Intn(12))
			}
			victims = append(victims, insert(string(victim)))
		}
		if v%4 == 3 {
			le.compactOnce(false)
		}
	}
	// No memtable: its scan reads live documents only, so deletes there
	// would lower the read count and mask the segments'.
	if st := le.Stats(); st.Segments != 3 || st.Memtable != 0 {
		t.Fatalf("scenario not established: %+v", st)
	}
	work := func() (read, admitted int) {
		for _, q := range queries {
			_, st, err := le.SelectTopK(le.Prepare(q), 10, SF, nil)
			if err != nil {
				t.Fatal(err)
			}
			read += st.ElementsRead
			admitted += st.CandidatesInserted
		}
		return read, admitted
	}
	read0, admitted0 := work()
	for _, id := range victims {
		le.Delete(id)
	}
	if st := le.Stats(); st.Tombstones != len(victims) || st.Segments != 3 {
		t.Fatalf("deletes not established: %+v", st)
	}
	read1, admitted1 := work()
	if read1 > read0 || admitted1 > admitted0 {
		t.Fatalf("after %d deletes SF top-10 read %d and admitted %d; before them %d and %d",
			len(victims), read1, admitted1, read0, admitted0)
	}
}

// TestLivePrepareTokenizesOnce: LiveEngine.Prepare tokenizes the string
// once and prepares every segment from that one token slice. The queries
// it pins must equal, field for field and bit for bit, what each
// segment's own Prepare derives from the string — which is in turn
// checked against tokenize.LookupCounts and a set of the unseen tokens —
// for strings with repeated grams, unseen grams and none at all.
func TestLivePrepareTokenizesOnce(t *testing.T) {
	corpus := randomDocs(400, 51, 6)
	le := NewLive(liveTestTK, LiveConfig{NoBackground: true, FlushThreshold: 16, DriftBound: 1e9, Shards: 2})
	defer le.Close()
	for i, s := range corpus {
		if _, err := le.Insert(s); err != nil {
			t.Fatal(err)
		}
		if i == 150 || i == 300 {
			le.compactOnce(false)
		}
	}
	queries := append([]string{"", "ab", "abcabcabc", "zzzzzz", "abczzzabcqqq", "aaaaaaa"}, corpus[:40]...)
	for _, s := range queries {
		lq := le.Prepare(s)
		for si, sh := range lq.snap.shards {
			for i, g := range sh.segs {
				want := g.eng.Prepare(s)
				if got := lq.segQ[si][i]; !reflect.DeepEqual(got, want) {
					t.Fatalf("%q shard %d segment %d: pinned query %+v, segment Prepare %+v", s, si, i, got, want)
				}
				counts, _ := tokenize.LookupCounts(g.eng.c.Dict(), liveTestTK, s, nil)
				unseen := map[string]bool{}
				for _, tok := range liveTestTK.Tokens(nil, s) {
					if _, ok := g.eng.c.Dict().Lookup(tok); !ok {
						unseen[tok] = true
					}
				}
				if ref := g.eng.prepare(counts, len(unseen)); !reflect.DeepEqual(want, ref) {
					t.Fatalf("%q shard %d segment %d: Prepare %+v, reference %+v", s, si, i, want, ref)
				}
			}
		}
	}
}

// TestLiveDeleteVisibility: a delete must disappear from results
// immediately, before any compaction touches the indexes.
func TestLiveDeleteVisibility(t *testing.T) {
	le := NewLive(liveTestTK, LiveConfig{NoBackground: true})
	defer le.Close()
	id, err := le.Insert("hello world")
	if err != nil {
		t.Fatal(err)
	}
	le.Compact()
	lq := le.Prepare("hello world")
	res, _, err := le.Select(lq, 0.9, SF, nil)
	if err != nil || len(res) != 1 || res[0].ID != id {
		t.Fatalf("pre-delete: res=%v err=%v", res, err)
	}
	if !le.Delete(id) {
		t.Fatal("delete failed")
	}
	// The already-prepared query must also hide the document: tombstones
	// are consulted at emit time, not pinned in the snapshot.
	res, _, err = le.Select(lq, 0.9, SF, nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("post-delete: res=%v err=%v", res, err)
	}
	if le.Delete(id) {
		t.Fatal("double delete reported true")
	}
	if _, ok := le.Source(id); ok {
		t.Fatal("deleted doc still has live source")
	}
}

// TestLiveUpsert: the replacement is searchable, the old version gone,
// and ids are never reused.
func TestLiveUpsert(t *testing.T) {
	le := NewLive(liveTestTK, LiveConfig{NoBackground: true})
	defer le.Close()
	id, err := le.Insert("first version")
	if err != nil {
		t.Fatal(err)
	}
	nid, err := le.Upsert(id, "second version")
	if err != nil {
		t.Fatal(err)
	}
	if nid == id {
		t.Fatal("upsert reused the id")
	}
	res, _, err := le.Select(le.Prepare("second version"), 0.9, SF, nil)
	if err != nil || len(res) != 1 || res[0].ID != nid {
		t.Fatalf("upsert lookup: res=%v err=%v", res, err)
	}
	if _, ok := le.Source(id); ok {
		t.Fatal("old version still live")
	}
}

// TestLiveErrors covers the mutation-API error surface.
func TestLiveErrors(t *testing.T) {
	le := NewLive(liveTestTK, LiveConfig{NoBackground: true})
	if _, err := le.Insert(""); err != ErrNoTokens {
		t.Fatalf("empty insert: %v", err)
	}
	id, err := le.Insert("hello world")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := le.Select(le.Prepare("zzzzz"), 0.5, SF, nil); err != ErrEmptyQuery {
		t.Fatalf("unknown-token query: %v", err)
	}
	if _, _, err := le.Select(le.Prepare("hello"), 1.5, SF, nil); err != ErrBadThreshold {
		t.Fatalf("bad tau: %v", err)
	}
	le.Close()
	le.Close() // idempotent
	if _, err := le.Insert("more text"); err != ErrClosed {
		t.Fatalf("insert after close: %v", err)
	}
	if le.Delete(id) {
		t.Fatal("delete after close succeeded")
	}
	// Queries keep working after Close.
	if res, _, err := le.Select(le.Prepare("hello world"), 0.9, SF, nil); err != nil || len(res) != 1 {
		t.Fatalf("query after close: res=%v err=%v", res, err)
	}
}

// TestLiveBatchAndCancel exercises SelectBatchCtx and context
// cancellation on the live path.
func TestLiveBatchAndCancel(t *testing.T) {
	corpus := randomDocs(200, 31, 6)
	le := BuildLive(corpus, liveTestTK, LiveConfig{NoBackground: true})
	defer le.Close()
	queries := make([]LiveQuery, 10)
	for i := range queries {
		queries[i] = le.Prepare(corpus[i*7])
	}
	for i, br := range le.SelectBatch(queries, 0.5, SF, nil, 4) {
		if br.Err != nil {
			t.Fatalf("batch %d: %v", i, br.Err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, br := range le.SelectBatchCtx(ctx, queries, 0.5, SF, nil, 4) {
		if br.Err == nil {
			t.Fatal("cancelled batch query succeeded")
		}
	}
}

// TestLiveStress interleaves inserts, deletes, upserts, selections,
// top-k and compactions across goroutines, on one shard and on three,
// where the readers' fan-outs share the process's executor and each
// engine's pooled fan buffers. Its assertions are weak — no panics, no
// errors besides the expected ones — because its real job is running
// under the race detector.
func TestLiveStress(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { liveStress(t, shards) })
	}
}

func liveStress(t *testing.T, shards int) {
	corpus := randomDocs(300, 41, 6)
	le := NewLive(liveTestTK, LiveConfig{
		Config:         Config{},
		FlushThreshold: 32,
		MaxSegments:    3,
		Shards:         shards,
	})
	defer le.Close()
	for _, s := range corpus[:100] {
		if _, err := le.Insert(s); err != nil {
			t.Fatal(err)
		}
	}

	const perWorker = 300
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	// Mutators: interleaved inserts, deletes and upserts.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < perWorker; i++ {
				switch i % 3 {
				case 0:
					if _, err := le.Insert(corpus[rng.Intn(len(corpus))]); err != nil {
						errCh <- err
						return
					}
				case 1:
					le.Delete(collection.SetID(rng.Intn(le.NumDocs() + 1)))
				default:
					if _, err := le.Upsert(collection.SetID(rng.Intn(le.NumDocs()+1)), corpus[rng.Intn(len(corpus))]); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	// Readers: selections and top-k against whatever snapshot is current.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			for i := 0; i < perWorker; i++ {
				lq := le.Prepare(corpus[rng.Intn(len(corpus))])
				if i%2 == 0 {
					if _, _, err := le.Select(lq, 0.6, SF, nil); err != nil && err != ErrEmptyQuery {
						errCh <- err
						return
					}
				} else {
					// The bounded top-k path reads the tombstones the
					// mutators are setting.
					if _, _, err := le.SelectTopK(lq, 5, SF, nil); err != nil && err != ErrEmptyQuery {
						errCh <- err
						return
					}
				}
				le.Stats()
			}
		}(w)
	}
	// Explicit compactor racing the background one.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			le.Compact()
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// The store must still be coherent: a full compaction folds each
	// shard to one segment and queries answer.
	le.Compact()
	if st := le.Stats(); st.Segments > shards || st.Tombstones != 0 {
		t.Fatalf("post-stress compact: %+v", st)
	}
	if _, _, err := le.Select(le.Prepare(corpus[0]), 0.5, SF, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLiveWarmAllocations: the ISSUE's 1-alloc acceptance bound on a
// compacted single-segment LiveEngine. The live layer must add zero
// allocations over the inner engine's single result copy.
func TestLiveWarmAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	corpus := randomDocs(5000, 3, 8)
	le := BuildLive(corpus, liveTestTK, LiveConfig{NoBackground: true})
	defer le.Close()
	queries := make([]LiveQuery, 8)
	for i := range queries {
		queries[i] = le.Prepare(corpus[i*13])
	}
	algs := []Algorithm{SF, INRA, NRA, SortByID, Hybrid, TA, ITA}
	for _, alg := range algs {
		for _, lq := range queries {
			if _, _, err := le.Select(lq, 0.6, alg, nil); err != nil {
				t.Fatalf("%v warm-up: %v", alg, err)
			}
		}
	}
	for _, alg := range algs {
		alg := alg
		i := 0
		allocs := testing.AllocsPerRun(4*len(queries), func() {
			lq := queries[i%len(queries)]
			i++
			if _, _, err := le.Select(lq, 0.6, alg, nil); err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
		})
		if allocs > warmAllocBudget {
			t.Errorf("%v: %.1f allocs per warm live query, budget %.0f", alg, allocs, warmAllocBudget)
		}
	}
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/collection"
	"repro/internal/sim"
	"repro/internal/tokenize"
)

// refPrepareSegment is a segment's query preparation by the per-segment
// string path: every distinct token of sorted (a query's raw tokens,
// sorted) looked up in the segment's own dictionary, every weight
// recomputed with sim.IDF from the baked df and StatsN, and the tokens
// put in (idf desc, token asc) order by a stable sort.
func refPrepareSegment(e *Engine, sorted []string) Query {
	d := e.c.Dict()
	var counts []tokenize.Count
	unknown := 0
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		if id, ok := d.Lookup(sorted[i]); ok {
			counts = append(counts, tokenize.Count{Token: id, TF: uint32(j - i)})
		} else {
			unknown++
		}
		i = j
	}
	sort.Slice(counts, func(a, b int) bool { return counts[a].Token < counts[b].Token })
	n := e.c.StatsN()
	q := Query{Raw: counts}
	var sum sim.SumSq
	for _, c := range counts {
		w := sim.IDF(e.c.DF(c.Token), n)
		q.Tokens = append(q.Tokens, QueryToken{Token: c.Token, IDF: w, IDFSq: w * w})
		sum.Add(w * w)
	}
	w := sim.IDF(0, n)
	for range unknown {
		sum.Add(w * w)
	}
	q.Len = sum.Len()
	sort.SliceStable(q.Tokens, func(i, j int) bool {
		if q.Tokens[i].IDF != q.Tokens[j].IDF {
			return q.Tokens[i].IDF > q.Tokens[j].IDF
		}
		return q.Tokens[i].Token < q.Tokens[j].Token
	})
	return q
}

// refMemQuery is the memtable half of a query by the string path: the
// distinct query tokens with their idf² under the live df recounted from
// the document log, in decreasing idf with ties in string order, the
// query length, and for each shard of snap holding a memtable the
// ascending positions of the memtable documents holding each token.
func refMemQuery(le *LiveEngine, snap *liveSnapshot, sorted []string) (strs []string, idfSq []float64, qLen float64, lists [][]int32) {
	docToks := func(src string) map[string]bool {
		set := map[string]bool{}
		for _, t := range le.tk.Tokens(nil, src) {
			set[t] = true
		}
		return set
	}
	log := le.Log()
	df, liveN := map[string]int{}, 0
	for _, d := range log {
		if d.Deleted {
			continue
		}
		liveN++
		for t := range docToks(d.Source) {
			df[t]++
		}
	}
	strs = slices.Compact(slices.Clone(sorted))
	idfSq = make([]float64, len(strs))
	var sum sim.SumSq
	for i, t := range strs {
		w := sim.IDF(df[t], liveN)
		idfSq[i] = w * w
		sum.Add(idfSq[i])
	}
	for i := 1; i < len(strs); i++ {
		for j := i; j > 0 && idfSq[j-1] < idfSq[j]; j-- {
			strs[j-1], strs[j] = strs[j], strs[j-1]
			idfSq[j-1], idfSq[j] = idfSq[j], idfSq[j-1]
		}
	}
	if snap.memDocs() > 0 {
		lists = make([][]int32, len(snap.shards)*len(strs))
		for si := range snap.shards {
			for pos, d := range snap.shards[si].mem {
				set := docToks(log[d.id].Source)
				for i, t := range strs {
					if set[t] {
						lists[si*len(strs)+i] = append(lists[si*len(strs)+i], int32(pos))
					}
				}
			}
		}
	}
	return strs, idfSq, sum.Len(), lists
}

// requireSameQuery holds got to want field by field, every float by its
// bits.
func requireSameQuery(t *testing.T, label string, got, want Query) {
	t.Helper()
	if math.Float64bits(got.Len) != math.Float64bits(want.Len) {
		t.Fatalf("%s: len(q) %v, reference %v", label, got.Len, want.Len)
	}
	if !reflect.DeepEqual(got.Raw, want.Raw) {
		t.Fatalf("%s: Raw %v, reference %v", label, got.Raw, want.Raw)
	}
	if len(got.Tokens) != len(want.Tokens) || (got.Tokens == nil) != (want.Tokens == nil) {
		t.Fatalf("%s: %d tokens (nil %v), reference %d (nil %v)",
			label, len(got.Tokens), got.Tokens == nil, len(want.Tokens), want.Tokens == nil)
	}
	for i, w := range want.Tokens {
		g := got.Tokens[i]
		if g.Token != w.Token || math.Float64bits(g.IDF) != math.Float64bits(w.IDF) || math.Float64bits(g.IDFSq) != math.Float64bits(w.IDFSq) {
			t.Fatalf("%s token %d: %+v, reference %+v", label, i, g, w)
		}
	}
}

// checkLivePrepare prepares s on le and holds every segment's Query and
// the memtable query to the string path's, bit for bit.
func checkLivePrepare(t *testing.T, le *LiveEngine, s string) {
	t.Helper()
	lq := le.Prepare(s)
	sorted := le.tk.Tokens(nil, s)
	sort.Strings(sorted)
	for si, sh := range lq.snap.shards {
		if len(lq.segQ[si]) != len(sh.segs) {
			t.Fatalf("%q shard %d: %d segment queries for %d segments", s, si, len(lq.segQ[si]), len(sh.segs))
		}
		for i, g := range sh.segs {
			requireSameQuery(t, fmt.Sprintf("%q shard %d segment %d", s, si, i), lq.segQ[si][i], refPrepareSegment(g.eng, sorted))
		}
	}
	strs, idfSq, qLen, lists := refMemQuery(le, lq.snap, sorted)
	mq := &lq.mem
	if len(mq.toks) != len(strs) || math.Float64bits(mq.qLen) != math.Float64bits(qLen) {
		t.Fatalf("%q: memtable query of %d tokens, len(q) %v; reference %d, %v", s, len(mq.toks), mq.qLen, len(strs), qLen)
	}
	le.mu.RLock()
	defer le.mu.RUnlock()
	for i, tok := range mq.toks {
		if math.Float64bits(tok.idfSq) != math.Float64bits(idfSq[i]) {
			t.Fatalf("%q memtable token %d: idf² %v, reference %v", s, i, tok.idfSq, idfSq[i])
		}
		// A pinned id names its token until the next round over every
		// live document; none runs between Prepare and here.
		if id, ok := le.dict.lookup(strs[i]); (ok && tok.id != id) || (!ok && tok.id != noToken) {
			t.Fatalf("%q memtable token %d (%q): store id %d, dictionary %d (held %v)", s, i, strs[i], tok.id, id, ok)
		}
	}
	if (mq.lists == nil) != (lists == nil) {
		t.Fatalf("%q: memtable lists nil %v, reference nil %v", s, mq.lists == nil, lists == nil)
	}
	for j := range lists {
		if !slices.Equal(mq.lists[j], lists[j]) {
			t.Fatalf("%q: memtable list %d (shard %d, %q) %v, reference %v", s, j, j/len(strs), strs[j%len(strs)], mq.lists[j], lists[j])
		}
	}
}

// prepQueries draws queries over the corpus alphabet: corpus strings,
// pieces of them, and strings with grams no document holds.
func prepQueries(rng *rand.Rand, corpus []string, n int) []string {
	qs := []string{"", "ab", "zzzzzz", "abczzzabcqqq", "aaaaaaa"}
	for len(qs) < n {
		s := corpus[rng.Intn(len(corpus))]
		switch rng.Intn(4) {
		case 0:
			qs = append(qs, s)
		case 1:
			qs = append(qs, s[:len(s)/2]+"xyz"+s[len(s)/2:])
		default:
			qs = append(qs, s+corpus[rng.Intn(len(corpus))])
		}
	}
	return qs
}

// TestLivePrepareMatchesReference holds LiveEngine.Prepare — one store
// dictionary lookup per distinct token, then integer tables per segment
// — bitwise to the per-segment string path it replaced, on 1 and 3
// shards of five segments each with tombstones, tokens absent from some
// segments and tokens unknown to the store. The store passes through a
// round over every live document (which renumbers the store), a round
// that keeps a memtable tail across that renumbering, and flush rounds
// after it, and is checked after each.
func TestLivePrepareMatchesReference(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			corpus := randomDocs(900, 91, 7)
			rng := rand.New(rand.NewSource(int64(92 + shards)))
			le := NewLive(liveTestTK, LiveConfig{NoBackground: true, FlushThreshold: 20, DriftBound: 1e9, Shards: shards})
			defer le.Close()
			var live []collection.SetID
			next := 0
			insert := func() {
				id, err := le.Insert(corpus[next%len(corpus)])
				if err != nil {
					t.Fatal(err)
				}
				next++
				live = append(live, id)
			}
			// flushes inserts per docs documents into flush rounds, with a
			// delete for every fourth insert, and ends on a memtable.
			flushes := func(rounds, docs int) {
				for r := 0; r < rounds; r++ {
					for i := 0; i < docs; i++ {
						insert()
						if i%4 == 3 {
							k := rng.Intn(len(live))
							le.Delete(live[k])
							live = append(live[:k], live[k+1:]...)
						}
					}
					le.compactOnce(false)
				}
				for i := 0; i < 7; i++ {
					insert()
				}
			}
			check := func(phase string) {
				st := le.Stats()
				if st.Segments < 4*shards || st.Memtable == 0 || st.Tombstones == 0 {
					t.Fatalf("%s: %d segments, %d memtable documents, %d tombstones: store too thin", phase, st.Segments, st.Memtable, st.Tombstones)
				}
				for _, s := range prepQueries(rng, corpus, 60) {
					checkLivePrepare(t, le, s)
				}
			}
			flushes(5, 32*shards)
			check("flush rounds")
			le.Compact()
			flushes(4, 32*shards)
			check("after a full round")
			compactKeepingTail(t, le, true, func() {
				for i := 0; i < 9; i++ {
					insert()
				}
			})
			for _, id := range live[:len(live)/8] {
				le.Delete(id)
			}
			live = live[len(live)/8:]
			flushes(4, 32*shards)
			check("after a full round that kept a tail")
		})
	}
}

// livePrepStore builds a one-shard store of at least segs segments with
// a memtable: a bulk load, then flush rounds of 64 inserts each.
func livePrepStore(t testing.TB, segs int) *LiveEngine {
	t.Helper()
	corpus := randomDocs(3000, 95, 8)
	le := BuildLive(corpus[:2000], liveTestTK, LiveConfig{NoBackground: true, FlushThreshold: 64, DriftBound: 1e9})
	next := 2000
	for le.Stats().Segments < segs {
		for i := 0; i < 64; i++ {
			if _, err := le.Insert(corpus[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		le.compactOnce(false)
	}
	for i := 0; i < 10; i++ {
		if _, err := le.Insert(corpus[next+i]); err != nil {
			t.Fatal(err)
		}
	}
	return le
}

// livePrepareAllocs is what a warm LiveEngine.Prepare allocates when the
// store has segments and a memtable, whatever the segment count: the
// memtable tokens and lists, the per-shard segment query headers, and
// one array each for the segments' Query values, tokens and raw
// vectors.
const livePrepareAllocs = 6

// TestLivePrepareAllocations: Prepare's allocations do not grow with the
// segment count — the same at one segment as at five — and stay within
// livePrepareAllocs.
func TestLivePrepareAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	const s = "abcdefgabcdefhh"
	var got []float64
	for _, segs := range []int{1, 5} {
		le := livePrepStore(t, segs)
		if n := le.Stats().Segments; n < segs || (segs == 1 && n != 1) {
			t.Fatalf("store of %d segments, want %d", n, segs)
		}
		le.Prepare(s)
		got = append(got, testing.AllocsPerRun(50, func() { le.Prepare(s) }))
		le.Close()
	}
	if got[0] != got[1] || got[1] > livePrepareAllocs {
		t.Errorf("warm live Prepare: %.2f allocs at 1 segment, %.2f at 5; want equal and at most %d", got[0], got[1], livePrepareAllocs)
	}
}

// TestLivePrepareLooksUpOncePerToken: Prepare looks each distinct query
// token up in the store dictionary once — not once per segment or
// memtable — on a three-shard store of several segments per shard.
func TestLivePrepareLooksUpOncePerToken(t *testing.T) {
	corpus := randomDocs(600, 97, 7)
	le := NewLive(liveTestTK, LiveConfig{NoBackground: true, FlushThreshold: 30, DriftBound: 1e9, Shards: 3})
	defer le.Close()
	for i, s := range corpus {
		if _, err := le.Insert(s); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 && i < 500 {
			le.compactOnce(false)
		}
	}
	if st := le.Stats(); st.Segments < 9 || st.Memtable == 0 {
		t.Fatalf("%d segments, %d memtable documents: store too thin", st.Segments, st.Memtable)
	}
	rng := rand.New(rand.NewSource(98))
	for _, s := range prepQueries(rng, corpus, 40) {
		calls := 0
		lq := le.prepare(s, func(d *storeDict, tok string) (tokenize.Token, bool) {
			calls++
			return d.lookup(tok)
		})
		distinct := liveTestTK.Tokens(nil, s)
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		if calls != len(distinct) {
			t.Fatalf("%q: %d store dictionary lookups for %d distinct tokens", s, calls, len(distinct))
		}
		if want := le.Prepare(s); !reflect.DeepEqual(lq, want) {
			t.Fatalf("%q: counted prepare differs from Prepare", s)
		}
	}
}

// TestLivePrepareRacesRebuild runs Prepare beside Insert and Delete and
// beside full compactions — each of which replaces the store dictionary
// and renumbers the memtable — and partial ones, on 1 and 3 shards.
// Every prepared query's SF selection must equal its Naive selection bit
// for bit, up to documents deleted between the two; under -race the test
// also shows that Prepare reads the store dictionary, the df table and
// the memtable index only under the lock their writers hold.
func TestLivePrepareRacesRebuild(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			corpus := randomDocs(400, 99, 6)
			le := NewLive(liveTestTK, LiveConfig{NoBackground: true, FlushThreshold: 16, DriftBound: 1e9, Shards: shards})
			defer le.Close()
			for _, s := range corpus[:100] {
				if _, err := le.Insert(s); err != nil {
					t.Fatal(err)
				}
			}
			le.Compact()
			var wg sync.WaitGroup
			var writing atomic.Bool
			writing.Store(true)
			errCh := make(chan error, 8)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer writing.Store(false)
				rng := rand.New(rand.NewSource(100))
				for i := 0; i < 300; i++ {
					if _, err := le.Insert(corpus[rng.Intn(len(corpus))]); err != nil {
						errCh <- err
						return
					}
					if i%3 == 2 {
						le.Delete(collection.SetID(rng.Intn(le.NumDocs())))
					}
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rounds := 0; writing.Load() || rounds < 2; rounds++ {
					le.Compact()
					le.compactOnce(false)
				}
			}()
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(200 + w)))
					for i := 0; writing.Load() || i < 20; i++ {
						lq := le.Prepare(corpus[rng.Intn(len(corpus))])
						want, _, werr := le.Select(lq, 0.5, Naive, nil)
						got, _, gerr := le.Select(lq, 0.5, SF, nil)
						if werr != nil || gerr != nil {
							errCh <- fmt.Errorf("naive: %v, sf: %v", werr, gerr)
							return
						}
						// A delete that lands between the two selections hides
						// its document from the second one only.
						scores := map[collection.SetID]float64{}
						for _, r := range want {
							scores[r.ID] = r.Score
						}
						for _, r := range got {
							if s, ok := scores[r.ID]; !ok || math.Float64bits(s) != math.Float64bits(r.Score) {
								errCh <- fmt.Errorf("id %d: SF score %x, Naive %x (answered %v)", r.ID, r.Score, s, ok)
								return
							}
							delete(scores, r.ID)
						}
						for id := range scores {
							if _, live := le.Source(id); live {
								errCh <- fmt.Errorf("live id %d: Naive answers it, SF does not (SF %v, Naive %v)", id, got, want)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
		})
	}
}

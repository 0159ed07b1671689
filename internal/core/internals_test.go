package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/collection"
	"repro/internal/invlist"
)

func TestCandMask(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 129} {
		s := &queryScratch{}
		m := s.newCandMask(n)
		for i := 0; i < n; i++ {
			if m.Has(i) {
				t.Fatalf("n=%d: bit %d set in fresh mask", n, i)
			}
		}
		for i := 0; i < n; i += 3 {
			m.Set(i)
		}
		for i := 0; i < n; i++ {
			if m.Has(i) != (i%3 == 0) {
				t.Fatalf("n=%d: bit %d = %v", n, i, m.Has(i))
			}
		}
	}
}

func TestKthBound(t *testing.T) {
	b := &kthBound{}
	b.reset(3)
	if b.tau() != minPositiveTau {
		t.Fatal("empty bound not at floor")
	}
	b.offer(1, 0.5)
	b.offer(2, 0.9)
	if b.tau() != minPositiveTau {
		t.Fatal("bound rose before k distinct candidates")
	}
	b.offer(3, 0.7)
	if b.tau() != 0.5 {
		t.Fatalf("tau = %g, want 0.5", b.tau())
	}
	// Re-offering the same candidate must update, not duplicate.
	b.offer(1, 0.8)
	if b.tau() != 0.7 {
		t.Fatalf("after increase-key tau = %g, want 0.7", b.tau())
	}
	// A new stronger candidate evicts the minimum.
	b.offer(4, 1.0)
	if b.tau() != 0.8 {
		t.Fatalf("after eviction tau = %g, want 0.8", b.tau())
	}
	// Weaker offers leave the bound unchanged.
	b.offer(5, 0.1)
	if b.tau() != 0.8 {
		t.Fatalf("weak offer changed tau to %g", b.tau())
	}
}

func TestKthBoundRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(6)
		b := &kthBound{}
		b.reset(k)
		best := map[collection.SetID]float64{}
		for op := 0; op < 200; op++ {
			id := collection.SetID(rng.Intn(20))
			// Lower bounds only grow in the algorithms; emulate that. An
			// id's first offer takes offerNew, as a newcomer's does in SF.
			old, seen := best[id]
			s := old + rng.Float64()
			best[id] = s
			if seen {
				b.offer(id, s)
			} else {
				b.offerNew(id, s)
			}
			// Reference: k-th largest of best values.
			var vals []float64
			for _, v := range best {
				vals = append(vals, v)
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
			want := minPositiveTau
			if len(vals) >= k {
				want = vals[k-1]
			}
			if math.Abs(b.tau()-want) > 1e-12 && b.tau() != want {
				t.Fatalf("trial %d op %d: tau %g, want %g", trial, op, b.tau(), want)
			}
		}
	}
}

func TestSortResults(t *testing.T) {
	rs := []Result{{ID: 5}, {ID: 1}, {ID: 3}, {ID: 2}}
	sortResults(rs)
	for i := 1; i < len(rs); i++ {
		if rs[i-1].ID >= rs[i].ID {
			t.Fatalf("not sorted: %v", rs)
		}
	}
	sortResults(nil) // must not panic

	// Exercise both sides of the insertion/slices.SortFunc crossover.
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{sortResultsInsertionMax, sortResultsInsertionMax + 1, 1000} {
		rs := make([]Result, n)
		for i := range rs {
			rs[i] = Result{ID: collection.SetID(rng.Intn(1 << 20))}
		}
		sortResults(rs)
		for i := 1; i < len(rs); i++ {
			if rs[i-1].ID > rs[i].ID {
				t.Fatalf("n=%d: not sorted at %d", n, i)
			}
		}
	}
}

// benchSortResults measures sortResults on shuffled inputs of size n; the
// small sizes guard the insertion-sort fast path that motivated keeping a
// crossover instead of calling slices.SortFunc unconditionally.
func benchSortResults(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(13))
	src := make([]Result, n)
	for i := range src {
		src[i] = Result{ID: collection.SetID(rng.Intn(1 << 30))}
	}
	buf := make([]Result, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		sortResults(buf)
	}
}

func BenchmarkSortResults4(b *testing.B)     { benchSortResults(b, 4) }
func BenchmarkSortResults16(b *testing.B)    { benchSortResults(b, 16) }
func BenchmarkSortResults32(b *testing.B)    { benchSortResults(b, 32) }
func BenchmarkSortResults1000(b *testing.B)  { benchSortResults(b, 1000) }
func BenchmarkSortResults20000(b *testing.B) { benchSortResults(b, 20000) }

func TestLengthWindow(t *testing.T) {
	q := Query{Len: 10}
	lo, hi := lengthWindow(q, 0.5, &Options{})
	if lo > 5 || lo < 4.999 || hi < 20 || hi > 20.001 {
		t.Errorf("window [%g, %g], want ≈[5, 20]", lo, hi)
	}
	lo, hi = lengthWindow(q, 0.5, &Options{NoLengthBound: true})
	if lo != 0 || hi != math.MaxFloat64 {
		t.Errorf("NLB window [%g, %g]", lo, hi)
	}
	// The epsilon padding must make the window inclusive of boundaries.
	lo, hi = lengthWindow(q, 1.0, &Options{})
	if lo > 10 || hi < 10 {
		t.Errorf("τ=1 window [%g, %g] excludes len(q)", lo, hi)
	}
}

func TestBeforeOrAt(t *testing.T) {
	p := invlist.Posting{ID: 5, Len: 2.0}
	if !beforeOrAt(p, 2.5, 1) {
		t.Error("smaller length not before")
	}
	if !beforeOrAt(p, 2.0, 5) {
		t.Error("equal position not at")
	}
	if !beforeOrAt(p, 2.0, 6) {
		t.Error("same length smaller id not before")
	}
	if beforeOrAt(p, 2.0, 4) {
		t.Error("same length larger id considered before")
	}
	if beforeOrAt(p, 1.5, 99) {
		t.Error("larger length considered before")
	}
}

// TestAdmitRejectsHopeless admits postings list 0 really pops, each
// before the head order is reranked, as admit requires. Set 0 is the
// query: when list 0 pops it, no other list has moved, so every list is
// open and it is admitted at τ = 1. A posting so long that even appearing
// in every list cannot reach τ = 0.9 must be rejected.
func TestAdmitRejectsHopeless(t *testing.T) {
	e := engineFromDocs(randomDocs(300, 92, 6), Config{})
	q := e.PrepareCounts(e.c.Set(0))
	s := &queryScratch{}
	s.tbl.reset()
	lists := e.openLists(s, nil, q, 0, &Options{}, &Stats{})
	s.rankLists(lists) // the head order roundRobin keeps while admitting
	var self, long bool
	for l := &lists[0]; !l.ended(); s.rerank(lists, 0) {
		p := l.head
		l.next()
		switch {
		case p.ID == 0:
			self = true
			if slot := admit(s, lists, 0, p, q, 1); slot < 0 {
				t.Error("admit rejected the query's own set at τ = 1")
			}
		case 0.9*p.Len > q.Len:
			long = true
			if slot := admit(s, lists, 0, p, q, 0.9); slot >= 0 {
				t.Errorf("admit accepted set %d of length %g, beyond len(q)/0.9 = %g", p.ID, p.Len, q.Len/0.9)
			}
		}
	}
	if !self || !long {
		t.Fatalf("list 0 never popped the query's own set (%v) or a set beyond len(q)/0.9 (%v)", self, long)
	}
}

// TestFileStoreConcurrentReaders validates the documented claim that a
// FileStore serves concurrent cursors safely (run with -race).
func TestFileStoreConcurrentReaders(t *testing.T) {
	e := engineFromDocs(randomDocs(400, 93, 6), Config{})
	dir := t.TempDir()
	path := dir + "/lists.bin"
	if err := invlist.WriteFile(path, e.c, 8); err != nil {
		t.Fatal(err)
	}
	fs, err := invlist.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	disk := NewEngine(e.c, Config{Store: fs})

	queries := make([]Query, 30)
	rng := rand.New(rand.NewSource(94))
	for i := range queries {
		queries[i] = disk.PrepareCounts(e.c.Set(collection.SetID(rng.Intn(e.c.NumSets()))))
	}
	out := disk.SelectBatch(queries, 0.7, SF, nil, 8)
	for i, br := range out {
		if br.Err != nil {
			t.Fatalf("query %d: %v", i, br.Err)
		}
		want, _, err := e.Select(queries[i], 0.7, SF, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(br.Results) != len(want) {
			t.Fatalf("query %d: %d results, want %d", i, len(br.Results), len(want))
		}
	}
}

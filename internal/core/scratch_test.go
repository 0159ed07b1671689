package core

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/collection"
)

// freshReference runs q on a brand-new engine sharing the same lists.
// Its scratch pool is empty, so the query executes on zero-valued scratch
// state — the fresh-allocation reference the pooled path must match bit
// for bit, as both run the same arithmetic in the same order.
func freshReference(e *Engine, q Query, tau float64, alg Algorithm) ([]Result, error) {
	fresh := NewEngine(e.c, Config{Store: e.store})
	res, _, err := fresh.Select(q, tau, alg, nil)
	return res, err
}

// TestScratchReuseEquivalence reuses one engine's scratch pool across
// hundreds of queries over every algorithm and threshold mix, comparing
// each answer against the fresh-allocation reference. Any state leaking
// between queries through the pooled candidate tables, slabs, masks,
// cursors or result buffers shows up as a mismatch.
func TestScratchReuseEquivalence(t *testing.T) {
	e := engineFromDocs(randomDocs(3000, 21, 7), Config{})
	algs := []Algorithm{Naive, SortByID, SQL, TA, NRA, ITA, INRA, SF, Hybrid}
	rng := rand.New(rand.NewSource(22))
	for qi := 0; qi < 120; qi++ {
		q := e.PrepareCounts(e.c.Set(collection.SetID(rng.Intn(e.c.NumSets()))))
		tau := 0.4 + 0.55*rng.Float64()
		alg := algs[qi%len(algs)]
		got, _, err := e.Select(q, tau, alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := freshReference(e, q, tau, alg)
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, alg.String(), got, want)
	}
}

// TestScratchReuseEquivalenceTopK is the same property for the top-k
// path, whose rising-bound state (kthBound heap and position map) is also
// pooled.
func TestScratchReuseEquivalenceTopK(t *testing.T) {
	e := engineFromDocs(randomDocs(3000, 23, 7), Config{})
	rng := rand.New(rand.NewSource(24))
	for qi := 0; qi < 60; qi++ {
		q := e.PrepareCounts(e.c.Set(collection.SetID(rng.Intn(e.c.NumSets()))))
		k := 1 + rng.Intn(20)
		got, _, err := e.SelectTopK(q, k, SF, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewEngine(e.c, Config{Store: e.store})
		want, _, err := fresh.SelectTopK(q, k, SF, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, SF.String(), got, want)
	}
}

// TestScratchConcurrentBatchEquivalence drives the pool from many
// goroutines at once (run with -race): a batch of queries across workers,
// repeated so scratches migrate between goroutines, each answer checked
// against the fresh-allocation reference.
func TestScratchConcurrentBatchEquivalence(t *testing.T) {
	e := engineFromDocs(randomDocs(2000, 25, 7), Config{})
	rng := rand.New(rand.NewSource(26))
	queries := make([]Query, 48)
	for i := range queries {
		queries[i] = e.PrepareCounts(e.c.Set(collection.SetID(rng.Intn(e.c.NumSets()))))
	}
	for _, alg := range []Algorithm{SortByID, INRA, SF, Hybrid} {
		for round := 0; round < 3; round++ {
			out := e.SelectBatch(queries, 0.7, alg, nil, 8)
			for i, br := range out {
				if br.Err != nil {
					t.Fatalf("%v query %d: %v", alg, i, br.Err)
				}
				want, err := freshReference(e, queries[i], 0.7, alg)
				if err != nil {
					t.Fatal(err)
				}
				assertBitwise(t, alg.String(), br.Results, want)
			}
		}
	}
}

// TestIDTable exercises the open-addressing candidate index directly:
// insert, lookup, overwrite, growth past the load factor, and reset.
func TestIDTable(t *testing.T) {
	var tbl idTable
	tbl.reset()
	if got := tbl.get(42); got != -1 {
		t.Fatalf("empty table returned %d", got)
	}
	// Insert enough keys to force several growth cycles.
	const n = 1000
	for i := 0; i < n; i++ {
		tbl.put(collection.SetID(i*7), int32(i))
	}
	for i := 0; i < n; i++ {
		if got := tbl.get(collection.SetID(i * 7)); got != int32(i) {
			t.Fatalf("get(%d) = %d, want %d", i*7, got, i)
		}
	}
	if got := tbl.get(collection.SetID(n*7 + 1)); got != -1 {
		t.Fatalf("absent key returned %d", got)
	}
	// Overwrite must replace, not duplicate.
	tbl.put(collection.SetID(7), 9999)
	if got := tbl.get(collection.SetID(7)); got != 9999 {
		t.Fatalf("overwrite: get = %d, want 9999", got)
	}
	// Reset keeps capacity but drops every mapping.
	capBefore := len(tbl.vals)
	tbl.reset()
	if len(tbl.vals) != capBefore {
		t.Fatalf("reset changed capacity %d -> %d", capBefore, len(tbl.vals))
	}
	for i := 0; i < n; i++ {
		if got := tbl.get(collection.SetID(i * 7)); got != -1 {
			t.Fatalf("after reset get(%d) = %d", i*7, got)
		}
	}
}

// TestIDTableGrowsAtHalfLoad pins the table's load factor: no put leaves
// it half full or more, and reset keeps the grown capacity, so a warm
// table takes a query as large again without growing.
func TestIDTableGrowsAtHalfLoad(t *testing.T) {
	var tbl idTable
	tbl.reset()
	const n = 3000
	put := func(round int) (grew int) {
		for i := 0; i < n; i++ {
			size := len(tbl.vals)
			tbl.put(collection.SetID(i*13), int32(i))
			if len(tbl.vals) != size {
				grew++
			}
			if tbl.used*2 >= len(tbl.vals) {
				t.Fatalf("round %d, put %d: %d of %d cells used", round, i+1, tbl.used, len(tbl.vals))
			}
		}
		return grew
	}
	if grew := put(0); grew == 0 {
		t.Fatal("the table never grew")
	}
	size := len(tbl.vals)
	tbl.reset()
	if len(tbl.vals) != size || tbl.used != 0 {
		t.Fatalf("reset: %d cells, %d used; want %d, 0", len(tbl.vals), tbl.used, size)
	}
	if grew := put(1); grew != 0 {
		t.Fatalf("the warm table grew %d times", grew)
	}
}

// TestScratchMaskArena verifies that masks handed out before an arena
// growth stay valid: growth must abandon the old backing array, never
// copy over it. Masks for ≤ 64 lists live entirely in the inline word
// and never touch the arena, so the test uses wider masks whose
// overflow words are arena-carved.
func TestScratchMaskArena(t *testing.T) {
	s := &queryScratch{}
	first := s.newCandMask(128)
	first.Set(3)
	first.Set(100)
	// Force many growths.
	for i := 0; i < 100; i++ {
		m := s.newCandMask(256)
		m.Set(i % 256)
	}
	if !first.Has(3) || !first.Has(100) || first.Has(4) || first.Has(101) {
		t.Fatal("early mask corrupted by arena growth")
	}
}

// TestScratchStateIndependentOfHistory pins the reset discipline of the
// pooled scratch: every algorithm must reslice each scratch field it
// reads before using it, so after q₀ then q the warm scratch holds
// exactly the state q would leave once every field was reset. The
// reference is a scratch with the warm one's capacities after q₀ and
// every length zero: a truly fresh scratch is no reference for the
// overflow arena, which grows by abandoning its backing array, so its
// final length depends on the capacity it started from. The check reads
// len() of every top-level slice field and compares it on each field
// the reference run left non-empty; a missing reset shows up as q₀'s
// entries still sitting in front of q's. Each query of the list runs
// after the one before it, the first after the last. The first two span
// more than 64 lists at a low threshold, so candidate masks spill into
// the arena and one wide query follows the other.
//
// Two fields are exempt. wcurs is a cursor-reuse cache: stale cursors
// are kept on purpose and rebound by WeightCursorReuse (openLists).
// relToks is kept at full capacity and read through a local reslice
// (selectSQL).
func TestScratchStateIndependentOfHistory(t *testing.T) {
	e := engineFromDocs(randomDocs(1500, 21, 7), Config{})
	rng := rand.New(rand.NewSource(37))
	type histQuery struct {
		q   Query
		tau float64
	}
	var qs []histQuery
	for len(qs) < 2 {
		var long strings.Builder
		for long.Len() < 160 {
			long.WriteByte(byte('a' + rng.Intn(7)))
		}
		q := e.Prepare(long.String())
		if len(q.Tokens) <= 64 {
			t.Fatalf("wide query spans %d lists, want more than 64", len(q.Tokens))
		}
		qs = append(qs, histQuery{q, 0.2})
	}
	for len(qs) < 4 {
		qs = append(qs, histQuery{e.PrepareCounts(e.c.Set(collection.SetID(rng.Intn(e.c.NumSets())))), 0.6})
	}
	exempt := map[string]bool{"wcurs": true, "relToks": true}
	check := func(label string, plan func(histQuery) (queryPlan, error)) {
		run := func(s *queryScratch, hq histQuery) {
			p, err := plan(hq)
			if err != nil {
				t.Fatal(err)
			}
			e.buildFor(p.alg) // runPlan's first-use build, which runAlg skips
			if _, err := e.runAlg(s, &canceller{ctx: context.Background()}, hq.q, &p, &Stats{}, nil); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		for i, q0 := range qs {
			j := (i + 1) % len(qs)
			warm := e.getScratch()
			run(warm, q0)
			ref := &queryScratch{}
			refFields := scratchSlices(ref)
			for name, v := range scratchSlices(warm) {
				refFields[name].Set(reflect.MakeSlice(v.Type(), 0, v.Cap()))
			}
			run(warm, qs[j])
			run(ref, qs[j])
			got := scratchSlices(warm)
			for name, v := range refFields {
				if v.Len() > 0 && !exempt[name] && got[name].Len() != v.Len() {
					t.Errorf("%s, q%d after q%d: scratch field %s has len %d, reset reference %d",
						label, j, i, name, got[name].Len(), v.Len())
				}
			}
			e.putScratch(warm)
		}
	}
	for _, alg := range []Algorithm{Naive, SortByID, SQL, TA, NRA, ITA, INRA, SF, Hybrid} {
		check(alg.String(), func(hq histQuery) (queryPlan, error) { return selectPlan(hq.q, hq.tau, alg, nil) })
	}
	check("top-k sf", func(hq histQuery) (queryPlan, error) { return topkPlan(hq.q, 10, SF, nil) })
}

// scratchSlices returns every top-level slice field of s by name, as a
// settable value (the fields are unexported).
func scratchSlices(s *queryScratch) map[string]reflect.Value {
	out := map[string]reflect.Value{}
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			out[v.Type().Field(i).Name] = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		}
	}
	return out
}

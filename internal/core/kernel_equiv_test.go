package core

import (
	"math/rand"
	"testing"

	"repro/internal/collection"
	"repro/internal/tokenize"
)

// The one-score contract: every algorithm but SQL emits the canonical
// score (core/rescore.go), so its answer is Naive's on the same engine —
// same ids, same order, same float64 score bits — on every execution
// surface. The word-packed kernels (packed-bitmap probes, mask sweeps,
// the rescore's match) run on every path below; Naive, which scores every
// set by the canonical rescore, is the reference. SQL sums its stored
// partial weights in the relational engine's order and is held within
// sim.ScoreEpsilon elsewhere (TestAllAlgorithmsMatchOracle).

var kernelEquivAlgs = []Algorithm{SortByID, TA, NRA, ITA, INRA, SF, Hybrid}
var kernelEquivTaus = []float64{0.4, 0.6, 0.75, 0.9, 0.99}

// TestKernelOffEquivalence compares threshold selection of every
// algorithm with Naive's across a τ grid.
func TestKernelOffEquivalence(t *testing.T) {
	docs := randomDocs(2500, 71, 7)
	e := engineFromDocs(docs, Config{})
	rng := rand.New(rand.NewSource(72))
	for qi := 0; qi < 40; qi++ {
		q := e.PrepareCounts(e.c.Set(collection.SetID(rng.Intn(e.c.NumSets()))))
		tau := kernelEquivTaus[qi%len(kernelEquivTaus)]
		want, _, err := e.Select(q, tau, Naive, nil)
		if err != nil {
			t.Fatalf("naive: %v", err)
		}
		for _, alg := range kernelEquivAlgs {
			got, _, err := e.Select(q, tau, alg, nil)
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			assertBitwise(t, alg.String(), got, want)
		}
	}
}

// TestKernelOffEquivalenceTopK is the same property for top-k selection,
// whose rising threshold makes the candidate-scan kernels fire under a
// moving τ: the (score desc, id asc) prefix, bitwise.
func TestKernelOffEquivalenceTopK(t *testing.T) {
	docs := randomDocs(2500, 73, 7)
	e := engineFromDocs(docs, Config{})
	rng := rand.New(rand.NewSource(74))
	for qi := 0; qi < 30; qi++ {
		q := e.PrepareCounts(e.c.Set(collection.SetID(rng.Intn(e.c.NumSets()))))
		k := 1 + rng.Intn(25)
		want, _, err := e.SelectTopK(q, k, Naive, nil)
		if err != nil {
			t.Fatalf("naive: %v", err)
		}
		got, _, err := e.SelectTopK(q, k, SF, nil)
		if err != nil {
			t.Fatalf("sf: %v", err)
		}
		assertBitwise(t, "sf", got, want)
	}
}

// TestKernelOffEquivalenceBatch drives the parallel batch executor (run
// with -race) and compares every answer with Naive's batch.
func TestKernelOffEquivalenceBatch(t *testing.T) {
	docs := randomDocs(2000, 75, 7)
	e := engineFromDocs(docs, Config{})
	rng := rand.New(rand.NewSource(76))
	queries := make([]Query, 48)
	for i := range queries {
		queries[i] = e.PrepareCounts(e.c.Set(collection.SetID(rng.Intn(e.c.NumSets()))))
	}
	want := e.SelectBatch(queries, 0.7, Naive, nil, 8)
	for _, alg := range []Algorithm{SortByID, NRA, INRA, SF, Hybrid} {
		got := e.SelectBatch(queries, 0.7, alg, nil, 8)
		for i := range queries {
			if got[i].Err != nil || want[i].Err != nil {
				t.Fatalf("%v query %d: %v / %v", alg, i, got[i].Err, want[i].Err)
			}
			assertBitwise(t, alg.String(), got[i].Results, want[i].Results)
		}
	}
}

// TestKernelOffEquivalenceSharded checks the scatter-gather contract
// against the same reference: a sharded engine at every shard count, per
// algorithm, agrees bitwise with Naive on the monolithic engine.
func TestKernelOffEquivalenceSharded(t *testing.T) {
	docs := randomDocs(1500, 77, 7)
	mono := engineFromDocs(docs, Config{})
	rng := rand.New(rand.NewSource(78))
	for _, K := range shardKs {
		se := BuildSharded(tokenize.QGramTokenizer{Q: 3}, docs, false, K, Config{})
		for qi := 0; qi < 15; qi++ {
			q := se.PrepareCounts(mono.c.Set(collection.SetID(rng.Intn(mono.c.NumSets()))))
			want, _, err := mono.Select(q, 0.7, Naive, nil)
			if err != nil {
				t.Fatalf("naive: %v", err)
			}
			for _, alg := range kernelEquivAlgs {
				got, _, err := se.Select(q, 0.7, alg, nil)
				if err != nil {
					t.Fatalf("K=%d %v sharded: %v", K, alg, err)
				}
				assertBitwise(t, alg.String(), got, want)
			}
		}
		se.Close()
	}
}

// TestKernelOffEquivalenceLive runs the insert/delete/compact lifecycle
// and compares every algorithm with Naive over the same pinned query,
// selection and top-k, in the mixed state (memtable + segments + tombstones) and after full
// compaction.
func TestKernelOffEquivalenceLive(t *testing.T) {
	corpus := randomCorpus(900, 79, 7)
	// Partial compactions flush the memtable into segments kept apart,
	// baked at different statistics, and the deletes that follow fall on
	// segments and memtable alike.
	le := NewLive(liveTestTK, LiveConfig{
		NoBackground:   true,
		FlushThreshold: 64, DriftBound: 1e9, MaxSegments: 1 << 20,
	})
	t.Cleanup(le.Close)
	var gids []collection.SetID
	for i, s := range corpus {
		id, err := le.Insert(s)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		gids = append(gids, id)
		if i == 299 || i == 599 {
			le.compactOnce(false)
		}
	}
	for i := range gids {
		if i%5 == 0 {
			le.Delete(gids[i])
		}
	}
	check := func(stage string) {
		rng := rand.New(rand.NewSource(80))
		for qi := 0; qi < 20; qi++ {
			s := corpus[rng.Intn(len(corpus))]
			tau := kernelEquivTaus[qi%len(kernelEquivTaus)]
			lq := le.Prepare(s)
			want, _, err := le.Select(lq, tau, Naive, nil)
			if err != nil {
				t.Fatalf("%s naive: %v", stage, err)
			}
			for _, alg := range kernelEquivAlgs {
				got, _, err := le.Select(lq, tau, alg, nil)
				if err != nil {
					t.Fatalf("%s %v: %v", stage, alg, err)
				}
				assertBitwise(t, stage+"/"+alg.String(), got, want)
			}
			k := 1 + rng.Intn(25)
			want, _, err = le.SelectTopK(lq, k, Naive, nil)
			if err != nil {
				t.Fatalf("%s naive top-%d: %v", stage, k, err)
			}
			got, _, err := le.SelectTopK(lq, k, SF, nil)
			if err != nil {
				t.Fatalf("%s sf top-%d: %v", stage, k, err)
			}
			assertBitwise(t, stage+"/top-k/sf", got, want)
		}
	}
	check("mixed")
	if st := le.Stats(); st.Segments < 2 || st.Memtable == 0 || st.Tombstones == 0 {
		t.Fatalf("mixed state not established: %+v", st)
	}
	if !le.Compact() {
		t.Fatal("Compact reported no work")
	}
	check("compacted")
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/collection"
)

// assertTopK holds got to the oracle's top-k, Naive's: the (score desc,
// id asc) prefix of the full scan, bitwise.
func assertTopK(t *testing.T, e *Engine, q Query, k int, alg Algorithm, got []Result) {
	t.Helper()
	want, err := e.topkNaive(&queryScratch{}, nil, q, k, &liveView{})
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, fmt.Sprintf("%v k=%d", alg, k), got, want)
}

func TestTopKMatchesOracle(t *testing.T) {
	e := buildEngine(t, 700, 31, 7, Config{})
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 15; trial++ {
		qid := collection.SetID(rng.Intn(e.c.NumSets()))
		q := e.PrepareCounts(e.c.Set(qid))
		for _, k := range []int{1, 3, 10, 50} {
			got, _, err := e.SelectTopK(q, k, SF, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertTopK(t, e, q, k, SF, got)
		}
	}
}

func TestTopKModifiedQueries(t *testing.T) {
	e := buildEngine(t, 500, 33, 6, Config{})
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 10; trial++ {
		src := e.c.Source(collection.SetID(rng.Intn(e.c.NumSets())))
		q := e.Prepare(mutate(rng, src, 2))
		if len(q.Tokens) == 0 {
			continue
		}
		got, _, err := e.SelectTopK(q, 5, SF, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertTopK(t, e, q, 5, SF, got)
	}
}

func TestTopKEdgeCases(t *testing.T) {
	e := buildEngine(t, 200, 35, 6, Config{})
	q := e.PrepareCounts(e.c.Set(0))
	// k = 0 returns nothing.
	if got, _, err := e.SelectTopK(q, 0, SF, nil); err != nil || len(got) != 0 {
		t.Errorf("k=0: %v, %v", got, err)
	}
	// k larger than any candidate pool returns everything overlapping.
	got, _, err := e.SelectTopK(q, 1<<20, SF, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertTopK(t, e, q, 1<<20, SF, got)
	// Empty query errors.
	if _, _, err := e.SelectTopK(Query{}, 5, SF, nil); err != ErrEmptyQuery {
		t.Errorf("empty query err = %v", err)
	}
	// Only Naive and SF answer top-k; every other algorithm errors.
	for _, alg := range []Algorithm{SortByID, SQL, TA, NRA, ITA, INRA, Hybrid} {
		if _, _, err := e.SelectTopK(q, 5, alg, nil); err != ErrUnknownAlg {
			t.Errorf("top-k %v err = %v, want ErrUnknownAlg", alg, err)
		}
	}
	// k=1 must return the exact match for a self-query.
	one, _, err := e.SelectTopK(q, 1, SF, nil)
	if err != nil || len(one) != 1 {
		t.Fatalf("k=1: %v %v", one, err)
	}
	if one[0].ID != 0 || math.Abs(one[0].Score-1) > 1e-9 {
		t.Errorf("k=1 self query: %+v", one[0])
	}
}

func TestTopKPrunesAgainstFullScan(t *testing.T) {
	e := buildEngine(t, 4000, 37, 8, Config{})
	q := e.PrepareCounts(e.c.Set(10))
	_, st, err := e.SelectTopK(q, 5, SF, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.ElementsRead >= st.ListTotal {
		t.Errorf("SF top-k read everything: %d of %d", st.ElementsRead, st.ListTotal)
	}
	t.Logf("SF top-5 read %d of %d (%.1f%% pruned)", st.ElementsRead, st.ListTotal, st.PruningPower())
}

// TestSharedTauConcurrentRaise pins sharedTau.raise's CAS loop: the
// shared bound only ever rises. Eight goroutines raise interleaved
// increasing values, so most raises store; each goroutine checks that
// the bound never falls below a value it saw or raised before, and the
// round must end at the largest value raised. A blind Store anywhere on
// the raise path lets a stale smaller value overwrite a larger one.
func TestSharedTauConcurrentRaise(t *testing.T) {
	const rounds, workers, per = 1000, 8, 500
	for r := 0; r < rounds; r++ {
		var st sharedTau
		var drops atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				seen := 0.0
				for i := 0; i < per; i++ {
					cur := st.load()
					if cur < seen {
						drops.Add(1)
					}
					v := float64(i*workers+w+1) / (workers * per)
					st.raise(v)
					seen = max(seen, cur, v)
				}
			}()
		}
		wg.Wait()
		if n, got := drops.Load(), st.load(); n > 0 || got != 1 {
			t.Fatalf("round %d: the bound fell %d times, final %g, want 1", r, n, got)
		}
	}
}

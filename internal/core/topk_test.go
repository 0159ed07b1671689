package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

func TestTopKEdgeCases(t *testing.T) {
	e := engineFromDocs(randomDocs(200, 35, 6), Config{})
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
	all, _, err := e.Select(q, minPositiveTau, Naive, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "k=1<<20", got, byScore(all))
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
	e := engineFromDocs(randomDocs(4000, 37, 8), Config{})
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

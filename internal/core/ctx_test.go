package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/collection"
)

// lowTauQuery prepares a query whose lists carry enough volume that a
// completed run reads far more than the cancellation granularity.
func lowTauQuery(e *Engine, seed int64) Query {
	rng := rand.New(rand.NewSource(seed))
	return e.PrepareCounts(e.c.Set(collection.SetID(rng.Intn(e.c.NumSets()))))
}

// longestQuery prepares the corpus's longest set as a query, maximizing
// the combined list volume behind it.
func longestQuery(e *Engine) Query {
	var best collection.SetID
	for id := 1; id < e.c.NumSets(); id++ {
		if e.c.Length(collection.SetID(id)) > e.c.Length(best) {
			best = collection.SetID(id)
		}
	}
	return e.PrepareCounts(e.c.Set(best))
}

// TestSelectCtxPreCancelled: with an already-cancelled context every
// algorithm must return context.Canceled promptly, having read only a
// small prefix of the total list volume.
func TestSelectCtxPreCancelled(t *testing.T) {
	e := engineFromDocs(randomDocs(4000, 71, 4), Config{})
	q := longestQuery(e)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	// Establish that the workload is big enough for the assertion to
	// mean something: a full run reads much more than the granularity.
	_, full, err := e.Select(q, 0.3, SortByID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.ListTotal < 4*cancelInterval {
		t.Fatalf("corpus too small for a meaningful test: ListTotal=%d", full.ListTotal)
	}

	for _, alg := range []Algorithm{Naive, SortByID, SQL, TA, NRA, ITA, INRA, SF, Hybrid} {
		res, st, err := e.SelectCtx(ctx, q, 0.3, alg, nil)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", alg, err)
		}
		if res != nil {
			t.Errorf("%v: returned %d results on cancellation", alg, len(res))
		}
		if st.ElementsRead > st.ListTotal/2 {
			t.Errorf("%v: read %d of %d postings despite pre-cancelled ctx",
				alg, st.ElementsRead, st.ListTotal)
		}
		if st.Elapsed <= 0 {
			t.Errorf("%v: Elapsed not stamped on cancelled query", alg)
		}
	}
}

// TestSelectCtxDeadline: an expired deadline behaves like cancellation
// but surfaces context.DeadlineExceeded.
func TestSelectCtxDeadline(t *testing.T) {
	e := engineFromDocs(randomDocs(1000, 73, 6), Config{})
	q := lowTauQuery(e, 74)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, alg := range []Algorithm{SortByID, SF, Hybrid} {
		_, _, err := e.SelectCtx(ctx, q, 0.5, alg, nil)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%v: err = %v, want context.DeadlineExceeded", alg, err)
		}
	}
}

// TestSelectCtxBackground: a background context must not change results.
func TestSelectCtxBackground(t *testing.T) {
	e := engineFromDocs(randomDocs(500, 75, 6), Config{})
	q := lowTauQuery(e, 76)
	for _, alg := range []Algorithm{Naive, SortByID, SQL, TA, NRA, ITA, INRA, SF, Hybrid} {
		want, _, err := e.Select(q, 0.6, alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := e.SelectCtx(context.Background(), q, 0.6, alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("%v: ctx variant returned %d results, plain %d", alg, len(got), len(want))
		}
	}
}

// TestSelectCtxNoSkipIndexCancel: the NoSkipIndex sequential seek is an
// unbounded read loop and must also notice cancellation.
func TestSelectCtxNoSkipIndexCancel(t *testing.T) {
	e := engineFromDocs(randomDocs(3000, 77, 6), Config{})
	q := lowTauQuery(e, 78)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, st, err := e.SelectCtx(ctx, q, 0.8, SF, &Options{NoSkipIndex: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.ElementsRead > st.ListTotal/2 {
		t.Errorf("read %d of %d during cancelled seek", st.ElementsRead, st.ListTotal)
	}
}

// TestSelectTopKCtxCancelled covers the top-k variants.
func TestSelectTopKCtxCancelled(t *testing.T) {
	e := engineFromDocs(randomDocs(2000, 79, 6), Config{})
	q := lowTauQuery(e, 80)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []Algorithm{Naive, SF} {
		res, st, err := e.SelectTopKCtx(ctx, q, 10, alg, nil)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", alg, err)
		}
		if res != nil {
			t.Errorf("%v: returned results on cancellation", alg)
		}
		if st.ElementsRead > st.ListTotal/2 {
			t.Errorf("%v: read %d of %d", alg, st.ElementsRead, st.ListTotal)
		}
	}
}

// TestSelectBatchCtxCancelled: every entry of a cancelled batch carries
// the context error; none report silently-empty success.
func TestSelectBatchCtxCancelled(t *testing.T) {
	e := engineFromDocs(randomDocs(800, 81, 6), Config{})
	queries := make([]Query, 20)
	for i := range queries {
		queries[i] = lowTauQuery(e, int64(82+i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := e.SelectBatchCtx(ctx, queries, 0.5, SF, nil, 4)
	for i, r := range out {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("entry %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestParallelCtxCancelled: a cancelled batch stops the full-volume
// baselines too. Naive and SortByID read every posting when they run to
// completion, so every entry must carry the context error with no
// results and only a prefix of its list volume read, whatever the worker
// count.
func TestParallelCtxCancelled(t *testing.T) {
	e := engineFromDocs(randomDocs(2000, 83, 6), Config{})
	queries := []Query{lowTauQuery(e, 84), lowTauQuery(e, 90)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, alg := range []Algorithm{Naive, SortByID} {
		for _, workers := range []int{1, 4} {
			for i, r := range e.SelectBatchCtx(ctx, queries, 0.5, alg, nil, workers) {
				if !errors.Is(r.Err, context.Canceled) {
					t.Errorf("%v workers=%d entry %d: err = %v, want context.Canceled", alg, workers, i, r.Err)
				}
				if r.Results != nil {
					t.Errorf("%v workers=%d entry %d: results returned on cancellation", alg, workers, i)
				}
				if r.Stats.ElementsRead > r.Stats.ListTotal/2 {
					t.Errorf("%v workers=%d entry %d: read %d of %d", alg, workers, i, r.Stats.ElementsRead, r.Stats.ListTotal)
				}
			}
		}
	}
}

// TestElapsedPopulated: Stats.Elapsed must be set by every entry point —
// Select, SelectTopK, and the per-query stats of SelectBatch.
func TestElapsedPopulated(t *testing.T) {
	e := engineFromDocs(randomDocs(400, 85, 6), Config{})
	q := lowTauQuery(e, 86)

	if _, st, err := e.Select(q, 0.6, SF, nil); err != nil || st.Elapsed <= 0 {
		t.Errorf("Select: elapsed=%v err=%v", st.Elapsed, err)
	}
	if _, st, err := e.SelectTopK(q, 5, SF, nil); err != nil || st.Elapsed <= 0 {
		t.Errorf("SelectTopK(SF): elapsed=%v err=%v", st.Elapsed, err)
	}
	for i, r := range e.SelectBatch([]Query{q, q}, 0.6, SF, nil, 2) {
		if r.Err != nil || r.Stats.Elapsed <= 0 {
			t.Errorf("SelectBatch[%d]: elapsed=%v err=%v", i, r.Stats.Elapsed, r.Err)
		}
	}
}

// TestEngineMetrics: the engine's registry sees every entry point and
// classifies outcomes.
func TestEngineMetrics(t *testing.T) {
	e := engineFromDocs(randomDocs(400, 88, 6), Config{})
	q := lowTauQuery(e, 89)

	if _, _, err := e.Select(q, 0.6, SF, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.SelectTopK(q, 3, SF, nil); err != nil {
		t.Fatal(err)
	}
	if r := e.SelectBatch([]Query{q}, 0.6, SortByID, nil, 2); r[0].Err != nil {
		t.Fatal(r[0].Err)
	}
	if _, _, err := e.SelectTopK(q, 3, INRA, nil); err != ErrUnknownAlg {
		t.Fatalf("top-k INRA err = %v, want ErrUnknownAlg", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.SelectCtx(ctx, q, 0.6, SF, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled err = %v", err)
	}

	s := e.Metrics().Snapshot()
	if s.OK != 3 {
		t.Errorf("OK = %d, want 3", s.OK)
	}
	if s.Failed != 1 {
		t.Errorf("Failed = %d, want 1", s.Failed)
	}
	if s.Canceled != 1 {
		t.Errorf("Canceled = %d, want 1", s.Canceled)
	}
	if s.Latency.Count != 5 || s.Reads.Count != 5 {
		t.Errorf("histogram counts = %d, %d, want 5, 5", s.Latency.Count, s.Reads.Count)
	}
}

package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/collection"
	"repro/internal/invlist"
)

// These tests exist for `go test -race`: several engines sharing one
// inverted-list store, hammered concurrently through the batch worker
// pool, with cancellation racing against in-flight scans. They
// validate the package's documented claim that all engine indexes are
// safe for concurrent readers.

// buildSharedStoreEngines returns two engines over the same collection
// sharing one store — the deployment shape of a service running separate
// read replicas against one mapped index.
func buildSharedStoreEngines(tb testing.TB, n int, seed int64) (*Engine, *Engine) {
	tb.Helper()
	e1 := buildEngine(tb, n, seed, 6, Config{NoHashes: true, NoRelational: true})
	e2 := NewEngineWithHashes(e1.Collection(), e1.Store(), nil)
	return e1, e2
}

func TestRaceSelectBatchSharedStore(t *testing.T) {
	e1, e2 := buildSharedStoreEngines(t, 600, 91)
	rng := rand.New(rand.NewSource(92))
	queries := make([]Query, 24)
	for i := range queries {
		queries[i] = e1.PrepareCounts(e1.Collection().Set(collection.SetID(rng.Intn(e1.Collection().NumSets()))))
	}
	var wg sync.WaitGroup
	for _, e := range []*Engine{e1, e2} {
		for _, alg := range []Algorithm{Naive, SF, INRA, SortByID} {
			wg.Add(1)
			go func(e *Engine, alg Algorithm) {
				defer wg.Done()
				for _, r := range e.SelectBatch(queries, 0.6, alg, nil, 4) {
					if r.Err != nil {
						t.Errorf("%v: %v", alg, r.Err)
						return
					}
				}
			}(e, alg)
		}
	}
	wg.Wait()
}

// TestRaceCancelMidFlight cancels a context while workers are scanning;
// under -race this exercises the canceller and metrics paths against
// concurrent readers of the shared store.
func TestRaceCancelMidFlight(t *testing.T) {
	e1, e2 := buildSharedStoreEngines(t, 1500, 95)
	rng := rand.New(rand.NewSource(96))
	queries := make([]Query, 32)
	for i := range queries {
		queries[i] = e1.PrepareCounts(e1.Collection().Set(collection.SetID(rng.Intn(e1.Collection().NumSets()))))
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		e1.SelectBatchCtx(ctx, queries, 0.3, SF, nil, 4)
	}()
	go func() {
		defer wg.Done()
		// Errors (including ctx.Err) are expected once cancel fires.
		e2.SelectBatchCtx(ctx, queries, 0.3, SortByID, nil, 4)
	}()
	cancel()
	wg.Wait()
}

// TestRaceFileStoreBatch runs the batch pool against a disk-resident
// store shared by two engines (the persistent serving configuration).
func TestRaceFileStoreBatch(t *testing.T) {
	e := buildEngine(t, 400, 97, 6, Config{NoHashes: true, NoRelational: true})
	path := t.TempDir() + "/lists.bin"
	if err := invlist.WriteFile(path, e.Collection(), 8); err != nil {
		t.Fatal(err)
	}
	st, err := invlist.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d1 := NewEngineWithHashes(e.Collection(), st, nil)
	d2 := NewEngineWithHashes(e.Collection(), st, nil)
	rng := rand.New(rand.NewSource(98))
	queries := make([]Query, 16)
	for i := range queries {
		queries[i] = d1.PrepareCounts(e.Collection().Set(collection.SetID(rng.Intn(e.Collection().NumSets()))))
	}
	var wg sync.WaitGroup
	for _, d := range []*Engine{d1, d2} {
		wg.Add(1)
		go func(d *Engine) {
			defer wg.Done()
			for _, r := range d.SelectBatch(queries, 0.6, SF, nil, 3) {
				if r.Err != nil {
					t.Errorf("file-store batch: %v", r.Err)
					return
				}
			}
		}(d)
	}
	wg.Wait()
}

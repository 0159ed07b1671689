package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/collection"
	"repro/internal/invlist"
	"repro/internal/tokenize"
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
	e1 := engineFromDocs(randomDocs(n, seed, 6), Config{})
	e2 := NewEngine(e1.Collection(), Config{Store: e1.Store()})
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
	e := engineFromDocs(randomDocs(400, 97, 6), Config{})
	path := t.TempDir() + "/lists.bin"
	if err := invlist.WriteFile(path, e.Collection(), 8); err != nil {
		t.Fatal(err)
	}
	st, err := invlist.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d1 := NewEngine(e.Collection(), Config{Store: st})
	d2 := NewEngine(e.Collection(), Config{Store: st})
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

// TestConcurrentFirstUse races the first TA, iTA and SQL queries of three
// fresh engines — static, a 4-shard BuildSharded and a multi-segment
// LiveEngine — so every engine, shard and segment builds its membership
// bitmaps and relational tables while other goroutines wait on the same
// build. Under -race a second build, or a reader seeing a half-built
// slice, is reported; every answer must equal Naive's on its engine.
func TestConcurrentFirstUse(t *testing.T) {
	docs := randomDocs(900, 111, 6)
	static := engineFromDocs(docs, Config{})
	se := BuildSharded(tokenize.QGramTokenizer{Q: 3}, docs, 4, Config{})
	defer se.Close()
	le := NewLive(liveTestTK, LiveConfig{NoBackground: true, FlushThreshold: 64, DriftBound: 1e9, MaxSegments: 1 << 20})
	defer le.Close()
	for i, d := range docs {
		if _, err := le.Insert(d); err != nil {
			t.Fatal(err)
		}
		if i == 299 || i == 599 {
			le.compactOnce(false)
		}
	}
	if st := le.Stats(); st.Segments < 2 || st.Memtable == 0 {
		t.Fatalf("live engine not multi-segment: %+v", st)
	}

	type selectFn func(d string, alg Algorithm) ([]Result, error)
	const tau = 0.6
	shapes := map[string]selectFn{
		"static": func(d string, alg Algorithm) ([]Result, error) {
			res, _, err := static.Select(static.Prepare(d), tau, alg, nil)
			return res, err
		},
		"sharded": func(d string, alg Algorithm) ([]Result, error) {
			res, _, err := se.Select(se.Prepare(d), tau, alg, nil)
			return res, err
		},
		"live": func(d string, alg Algorithm) ([]Result, error) {
			res, _, err := le.Select(le.Prepare(d), tau, alg, nil)
			return res, err
		},
	}
	queries := []string{docs[5], docs[305], docs[605], docs[899]}
	algs := []Algorithm{TA, ITA, SQL}
	const perAlg = 3
	type run struct {
		shape string
		alg   Algorithm
		res   [][]Result
		err   error
	}
	var runs []*run
	start := make(chan struct{})
	var wg sync.WaitGroup
	for name, sel := range shapes {
		for _, alg := range algs {
			for g := 0; g < perAlg; g++ {
				r := &run{shape: name, alg: alg}
				runs = append(runs, r)
				wg.Add(1)
				go func(sel selectFn) {
					defer wg.Done()
					<-start
					for _, d := range queries {
						res, err := sel(d, r.alg)
						if err != nil {
							r.err = err
							return
						}
						r.res = append(r.res, res)
					}
				}(sel)
			}
		}
	}
	close(start)
	wg.Wait()

	for _, r := range runs {
		if r.err != nil {
			t.Fatalf("%s %v: %v", r.shape, r.alg, r.err)
		}
		for qi, d := range queries {
			want, err := shapes[r.shape](d, Naive)
			if err != nil {
				t.Fatal(err)
			}
			assertBitwise(t, fmt.Sprintf("%v τ=%g", r.alg, tau), r.res[qi], want)
		}
	}
}

package core

import (
	"math/rand"
	"testing"

	"repro/internal/collection"
)

func TestSelectBatchMatchesSequential(t *testing.T) {
	e := buildEngine(t, 600, 51, 7, Config{})
	rng := rand.New(rand.NewSource(52))
	queries := make([]Query, 40)
	for i := range queries {
		queries[i] = e.PrepareCounts(e.c.Set(collection.SetID(rng.Intn(e.c.NumSets()))))
	}
	for _, alg := range []Algorithm{Naive, SortByID, SF, INRA, TA} {
		batch := e.SelectBatch(queries, 0.7, alg, nil, 8)
		for i, q := range queries {
			if batch[i].Err != nil {
				t.Fatalf("%v query %d: %v", alg, i, batch[i].Err)
			}
			want, _, err := e.Select(q, 0.7, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := batch[i].Results
			if len(got) != len(want) {
				t.Fatalf("%v query %d: %d results, want %d", alg, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%v query %d result %d mismatch", alg, i, j)
				}
			}
		}
	}
}

func TestSelectBatchEmpty(t *testing.T) {
	e := buildEngine(t, 50, 53, 6, Config{})
	if out := e.SelectBatch(nil, 0.8, SF, nil, 4); len(out) != 0 {
		t.Errorf("empty batch returned %d entries", len(out))
	}
}

func TestSelectBatchPropagatesErrors(t *testing.T) {
	e := buildEngine(t, 50, 54, 6, Config{})
	queries := []Query{e.PrepareCounts(e.c.Set(0)), {}}
	out := e.SelectBatch(queries, 0.8, TA, nil, 2)
	if out[0].Err != nil {
		t.Errorf("entry 0 err = %v, want nil", out[0].Err)
	}
	if out[1].Err != ErrEmptyQuery {
		t.Errorf("entry 1 err = %v, want ErrEmptyQuery", out[1].Err)
	}
}

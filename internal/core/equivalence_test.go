package core

import (
	"math"
	"testing"

	"repro/internal/collection"
)

func TestSelfQueryAtTauOne(t *testing.T) {
	e := engineFromDocs(randomDocs(300, 99, 8), Config{})
	for id := 0; id < 20; id++ {
		q := e.PrepareCounts(e.c.Set(collection.SetID(id)))
		for _, alg := range Algorithms() {
			got, _, err := e.Select(q, 1.0, alg, nil)
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			found := false
			for _, r := range got {
				if r.ID == collection.SetID(id) {
					found = true
					if math.Abs(r.Score-1) > 1e-9 {
						t.Errorf("%v: self score %g", alg, r.Score)
					}
				}
			}
			if !found {
				t.Errorf("%v: query %d did not match itself at τ=1", alg, id)
			}
		}
	}
}

func TestSelectValidation(t *testing.T) {
	e := engineFromDocs(randomDocs(50, 1, 6), Config{})
	q := e.PrepareCounts(e.c.Set(0))
	if _, _, err := e.Select(Query{}, 0.5, SF, nil); err != ErrEmptyQuery {
		t.Errorf("empty query err = %v", err)
	}
	if _, _, err := e.Select(q, 0, SF, nil); err != ErrBadThreshold {
		t.Errorf("τ=0 err = %v", err)
	}
	if _, _, err := e.Select(q, 1.5, SF, nil); err != ErrBadThreshold {
		t.Errorf("τ=1.5 err = %v", err)
	}
	if _, _, err := e.Select(q, 0.5, Algorithm(99), nil); err != ErrUnknownAlg {
		t.Errorf("bad alg err = %v", err)
	}
}

// TestEngineWithoutOptionalIndexes holds the default engine to building
// only the inverted lists: the list-only algorithms and top-k leave TA's
// bitmaps and SQL's tables unbuilt, and the first TA, iTA or SQL query
// builds what it reads. Their answers are the oracle's.
func TestEngineWithoutOptionalIndexes(t *testing.T) {
	e := engineFromDocs(randomDocs(100, 2, 6), Config{})
	q := e.PrepareCounts(e.c.Set(0))
	run := func(algs ...Algorithm) {
		for _, alg := range algs {
			if _, _, err := e.Select(q, 0.8, alg, nil); err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
		}
	}
	run(Naive, SortByID, NRA, INRA, SF, Hybrid)
	if _, _, err := e.SelectTopK(q, 5, SF, nil); err != nil {
		t.Fatal(err)
	}
	if e.member != nil || e.rel != nil {
		t.Fatalf("list-only queries built member=%v rel=%v", e.member != nil, e.rel != nil)
	}
	run(TA, ITA, SQL)
	if e.member == nil || e.rel == nil {
		t.Fatalf("TA/SQL queries left member=%v rel=%v unbuilt", e.member != nil, e.rel != nil)
	}
}

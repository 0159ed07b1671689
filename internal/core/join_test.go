package core

import (
	"math"
	"testing"

	"repro/internal/collection"
	"repro/internal/sim"
)

// naiveJoin is the O(n²) oracle.
func naiveJoin(e *Engine, tau float64) []Pair {
	m := sim.IDFMeasure{Stats: e.c}
	var out []Pair
	n := e.c.NumSets()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			s := m.Score(e.c.Set(collection.SetID(a)), e.c.Set(collection.SetID(b)))
			if sim.Meets(s, tau) {
				out = append(out, Pair{A: collection.SetID(a), B: collection.SetID(b), Score: s})
			}
		}
	}
	return out
}

func TestSelfJoinMatchesNaive(t *testing.T) {
	e := engineFromDocs(randomDocs(250, 81, 6), Config{})
	for _, tau := range []float64{0.5, 0.7, 0.9} {
		want := naiveJoin(e, tau)
		for _, workers := range []int{1, 4} {
			got, err := e.SelfJoin(tau, SF, nil, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("τ=%g workers=%d: %d pairs, want %d", tau, workers, len(got), len(want))
			}
			for i := range got {
				if got[i].A != want[i].A || got[i].B != want[i].B {
					t.Fatalf("τ=%g pair %d: (%d,%d) want (%d,%d)",
						tau, i, got[i].A, got[i].B, want[i].A, want[i].B)
				}
				if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
					t.Fatalf("τ=%g pair %d score %g want %g",
						tau, i, got[i].Score, want[i].Score)
				}
			}
		}
	}
}

func TestSelfJoinAlgorithmsAgree(t *testing.T) {
	e := engineFromDocs(randomDocs(200, 82, 6), Config{})
	want, err := e.SelfJoin(0.7, SF, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{SortByID, INRA, Hybrid, ITA} {
		got, err := e.SelfJoin(0.7, alg, nil, 2)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d pairs, want %d", alg, len(got), len(want))
		}
	}
}

func TestSelfJoinPairsCanonical(t *testing.T) {
	e := engineFromDocs(randomDocs(150, 83, 6), Config{})
	pairs, err := e.SelfJoin(0.6, SF, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]collection.SetID]bool{}
	for i, p := range pairs {
		if p.A >= p.B {
			t.Fatalf("pair %d not canonical: %d >= %d", i, p.A, p.B)
		}
		k := [2]collection.SetID{p.A, p.B}
		if seen[k] {
			t.Fatalf("duplicate pair %v", k)
		}
		seen[k] = true
		if i > 0 && (pairs[i-1].A > p.A || (pairs[i-1].A == p.A && pairs[i-1].B >= p.B)) {
			t.Fatal("pairs not sorted")
		}
	}
}

func TestSelfJoinValidation(t *testing.T) {
	e := engineFromDocs(randomDocs(50, 84, 6), Config{})
	if _, err := e.SelfJoin(0, SF, nil, 2); err != ErrBadThreshold {
		t.Errorf("τ=0 err = %v", err)
	}
	if _, err := e.SelfJoin(0.5, Algorithm(99), nil, 2); err != ErrUnknownAlg {
		t.Errorf("unknown algorithm err = %v", err)
	}
}

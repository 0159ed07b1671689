package setsim_test

import (
	"math"
	"testing"

	"repro/setsim"
)

var corpus = []string{
	"main street",
	"maine street",
	"main st",
	"florham park",
	"park avenue",
	"wall street",
}

func TestBuildAndSelect(t *testing.T) {
	idx := setsim.Build(corpus, setsim.QGramTokenizer{Q: 3}, setsim.Config{})
	q := idx.Prepare("main street")
	res, stats, err := idx.Select(q, 0.9, setsim.SF, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || idx.Collection().Source(res[0].ID) != "main street" {
		t.Fatalf("results = %+v", res)
	}
	if math.Abs(res[0].Score-1) > 1e-9 {
		t.Errorf("exact-match score %g", res[0].Score)
	}
	if stats.ListTotal == 0 {
		t.Error("stats not populated")
	}
}

func TestAllPublicAlgorithmsAgree(t *testing.T) {
	idx := setsim.Build(corpus, setsim.QGramTokenizer{Q: 3}, setsim.Config{})
	q := idx.Prepare("maine stret")
	want, _, err := idx.Select(q, 0.5, setsim.Naive, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("oracle returned nothing; bad test fixture")
	}
	for _, alg := range setsim.Algorithms() {
		got, _, err := idx.Select(q, 0.5, alg, nil)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d results, want %d", alg, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("%v: result %d = id %d, want %d", alg, i, got[i].ID, want[i].ID)
			}
		}
	}
}

func TestTopKPublic(t *testing.T) {
	idx := setsim.Build(corpus, setsim.QGramTokenizer{Q: 3}, setsim.Config{})
	q := idx.Prepare("main street")
	res, _, err := idx.SelectTopK(q, 3, setsim.SF, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("top-3 returned %d", len(res))
	}
	if idx.Collection().Source(res[0].ID) != "main street" {
		t.Errorf("rank 1 = %q", idx.Collection().Source(res[0].ID))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Error("top-k not sorted by score")
		}
	}
}

func TestBatchPublic(t *testing.T) {
	idx := setsim.Build(corpus, setsim.QGramTokenizer{Q: 3}, setsim.Config{})
	queries := []setsim.Query{idx.Prepare("main street"), idx.Prepare("park")}
	out := idx.SelectBatch(queries, 0.5, setsim.SF, nil, 2)
	if len(out) != 2 {
		t.Fatalf("%d batch results", len(out))
	}
	for i, br := range out {
		if br.Err != nil {
			t.Errorf("query %d: %v", i, br.Err)
		}
	}
	if len(out[0].Results) == 0 {
		t.Error("batch query 0 found nothing")
	}
}

func TestWordTokenizerPublic(t *testing.T) {
	idx := setsim.Build([]string{"alpha beta gamma", "beta gamma delta"},
		setsim.WordTokenizer{}, setsim.Config{})
	q := idx.Prepare("beta gamma")
	res, _, err := idx.Select(q, 0.3, setsim.SF, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("word-token query found %d sets", len(res))
	}
}

func TestSelfJoinPublic(t *testing.T) {
	idx := setsim.Build(corpus, setsim.QGramTokenizer{Q: 3}, setsim.Config{})
	pairs, err := idx.SelfJoin(0.45, setsim.SF, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range pairs {
		a := idx.Collection().Source(p.A)
		b := idx.Collection().Source(p.B)
		if (a == "main street" && b == "maine street") ||
			(a == "maine street" && b == "main street") {
			found = true
		}
	}
	if !found {
		t.Errorf("join missed the main/maine pair: %v", pairs)
	}
}

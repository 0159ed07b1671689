package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/route"
	"repro/internal/tokenize"
)

// TestErrorPathStatsContract pins the planner's unified error path:
// every selection entry point of every engine shape answers a failed
// validation with nil results, zero-valued Stats and the planner's
// error — and an empty query outranks a bad threshold, k ≤ 0 is a
// silent empty answer. Before the pipeline each shape hand-rolled
// these rules with drifting Stats conventions.
func TestErrorPathStatsContract(t *testing.T) {
	docs := randomDocs(40, 99, 5)
	eng := engineFromDocs(docs, Config{})
	se := BuildSharded(tokenize.QGramTokenizer{Q: 3}, docs, 2, Config{})
	defer se.Close()
	le := buildPipelineLive(t, docs, 2, false)
	defer le.Close()

	check := func(name string, wantErr error, res []Result, st Stats, err error) {
		t.Helper()
		if err != wantErr {
			t.Errorf("%s: err = %v, want %v", name, err, wantErr)
		}
		if res != nil {
			t.Errorf("%s: results = %v, want nil", name, res)
		}
		if st != (Stats{}) {
			t.Errorf("%s: stats = %+v, want zero value", name, st)
		}
	}

	q, sq, lq := eng.Prepare(docs[0]), se.Prepare(docs[0]), le.Prepare(docs[0])
	empty, sempty, lempty := eng.Prepare(""), se.Prepare(""), le.Prepare("")

	for _, tau := range []float64{0, -1, 1.5} {
		name := fmt.Sprintf("tau=%g", tau)
		res, st, err := eng.Select(q, tau, SF, nil)
		check("Engine.Select/"+name, ErrBadThreshold, res, st, err)
		res, st, err = se.Select(sq, tau, SF, nil)
		check("ShardedEngine.Select/"+name, ErrBadThreshold, res, st, err)
		res, st, err = le.Select(lq, tau, SF, nil)
		check("LiveEngine.Select/"+name, ErrBadThreshold, res, st, err)
		if _, err := eng.SelfJoin(tau, SF, nil, 2); err != ErrBadThreshold {
			t.Errorf("SelfJoin/%s: err = %v, want ErrBadThreshold", name, err)
		}
	}

	// Emptiness is checked before the threshold: an empty query with a
	// bad τ still reports ErrEmptyQuery.
	res, st, err := eng.Select(empty, -1, SF, nil)
	check("Engine.Select/empty", ErrEmptyQuery, res, st, err)
	res, st, err = se.Select(sempty, -1, SF, nil)
	check("ShardedEngine.Select/empty", ErrEmptyQuery, res, st, err)
	res, st, err = le.Select(lempty, -1, SF, nil)
	check("LiveEngine.Select/empty", ErrEmptyQuery, res, st, err)
	res, st, err = le.Select(LiveQuery{}, 0.5, SF, nil)
	check("LiveEngine.Select/zero-LiveQuery", ErrEmptyQuery, res, st, err)

	// Top-k: empty query errs, k ≤ 0 answers empty with a nil error.
	res, st, err = eng.SelectTopK(empty, 5, SF, nil)
	check("Engine.SelectTopK/empty", ErrEmptyQuery, res, st, err)
	res, st, err = se.SelectTopK(sempty, 5, SF, nil)
	check("ShardedEngine.SelectTopK/empty", ErrEmptyQuery, res, st, err)
	res, st, err = le.SelectTopK(lempty, 5, SF, nil)
	check("LiveEngine.SelectTopK/empty", ErrEmptyQuery, res, st, err)
	for _, k := range []int{0, -3} {
		name := fmt.Sprintf("k=%d", k)
		res, st, err = eng.SelectTopK(q, k, SF, nil)
		check("Engine.SelectTopK/"+name, nil, res, st, err)
		res, st, err = se.SelectTopK(sq, k, SF, nil)
		check("ShardedEngine.SelectTopK/"+name, nil, res, st, err)
		res, st, err = le.SelectTopK(lq, k, SF, nil)
		check("LiveEngine.SelectTopK/"+name, nil, res, st, err)
	}

	// Batches propagate the same contract per entry, still indexed by
	// submission position.
	for i, br := range eng.SelectBatch([]Query{q, empty}, -1, SF, nil, 2) {
		want := ErrBadThreshold
		if i == 1 {
			want = ErrEmptyQuery
		}
		check(fmt.Sprintf("Engine.SelectBatch[%d]", i), want, br.Results, br.Stats, br.Err)
	}
	for i, br := range se.SelectBatch([]Query{sq, sempty}, -1, SF, nil, 2) {
		want := ErrBadThreshold
		if i == 1 {
			want = ErrEmptyQuery
		}
		check(fmt.Sprintf("ShardedEngine.SelectBatch[%d]", i), want, br.Results, br.Stats, br.Err)
	}
	for i, br := range le.SelectBatch([]LiveQuery{lq, lempty}, -1, SF, nil, 2) {
		want := ErrBadThreshold
		if i == 1 {
			want = ErrEmptyQuery
		}
		check(fmt.Sprintf("LiveEngine.SelectBatch[%d]", i), want, br.Results, br.Stats, br.Err)
	}

	// An unknown algorithm is an execute-stage error, not a planner one:
	// the error surfaces but Stats legitimately carry the accounted work.
	if _, _, err := eng.Select(q, 0.5, Algorithm(99), nil); err != ErrUnknownAlg {
		t.Errorf("Engine.Select/unknown alg: err = %v, want ErrUnknownAlg", err)
	}
	if _, _, err := eng.SelectTopK(q, 5, SortByID, nil); err != ErrUnknownAlg {
		t.Errorf("Engine.SelectTopK/non-topk alg: err = %v, want ErrUnknownAlg", err)
	}
}

// TestBatchMatchesDirect pins the one inter-query scheduler behind every
// shape's SelectBatch: whatever the worker count, position i of the
// batch answer is exactly what a one-at-a-time Select of query i
// returns — results and error — including for a query submitted twice
// and for an empty query in the middle of the batch.
func TestBatchMatchesDirect(t *testing.T) {
	docs := randomDocs(300, 7, 6)
	texts := []string{docs[0], docs[13], "", docs[26], docs[39]}
	order := []int{0, 1, 2, 0, 3, 4, 1, 0}
	const tau = 0.6

	eng := engineFromDocs(docs, Config{})
	se := BuildSharded(tokenize.QGramTokenizer{Q: 3}, docs, 4, Config{})
	defer se.Close()
	requireShardSummaries(t, se.le)
	le := buildPipelineLive(t, docs, 2, false)
	defer le.Close()

	// Each text is prepared once: a repeated query is the same prepared
	// value at two positions, not a second Prepare.
	mq, sq, lq := make([]Query, len(order)), make([]Query, len(order)), make([]LiveQuery, len(order))
	for ti, text := range texts {
		m, s, l := eng.Prepare(text), se.Prepare(text), le.Prepare(text)
		for i := range order {
			if order[i] == ti {
				mq[i], sq[i], lq[i] = m, s, l
			}
		}
	}
	shapes := []struct {
		name   string
		direct func(i int) ([]Result, Stats, error)
		batch  func(workers int) []BatchResult
	}{
		{"Engine",
			func(i int) ([]Result, Stats, error) { return eng.Select(mq[i], tau, SF, nil) },
			func(w int) []BatchResult { return eng.SelectBatch(mq, tau, SF, nil, w) }},
		{"ShardedEngine",
			func(i int) ([]Result, Stats, error) { return se.Select(sq[i], tau, SF, nil) },
			func(w int) []BatchResult { return se.SelectBatch(sq, tau, SF, nil, w) }},
		{"LiveEngine",
			func(i int) ([]Result, Stats, error) { return le.Select(lq[i], tau, SF, nil) },
			func(w int) []BatchResult { return le.SelectBatch(lq, tau, SF, nil, w) }},
	}
	for _, sh := range shapes {
		for _, workers := range []int{1, 2, len(order) + 3} {
			got := sh.batch(workers)
			if len(got) != len(order) {
				t.Fatalf("%s workers=%d: %d batch results for %d queries", sh.name, workers, len(got), len(order))
			}
			for i := range order {
				want, _, err := sh.direct(i)
				if got[i].Err != err {
					t.Errorf("%s workers=%d query %d: err = %v, direct %v", sh.name, workers, i, got[i].Err, err)
				}
				if (texts[order[i]] == "") != (err == ErrEmptyQuery) {
					t.Errorf("%s query %d: direct err = %v for text %q", sh.name, i, err, texts[order[i]])
				}
				if !reflect.DeepEqual(got[i].Results, want) {
					t.Errorf("%s workers=%d query %d: batch diverges from direct execution", sh.name, workers, i)
				}
			}
		}
	}
}

// TestShardBoundDominatesScores is the direct check that shardBound is
// an upper bound: on a shard of 40 two-word documents, every true score
// of a ten-word query stays under the summary bound (with boundMeets'
// slack).
func TestShardBoundDominatesScores(t *testing.T) {
	var docs []string
	for i := 0; i < 40; i++ {
		docs = append(docs, fmt.Sprintf("w%d w%d", 2*i, 2*i+1))
	}
	eng := NewEngine(collectionOf(tokenize.WordTokenizer{}, docs), Config{})
	q := eng.Prepare("w0 w1 w2 w3 w4 w5 w6 w7 w8 w9")
	bound := shardBound(route.Summarize(eng.Collection(), eng.Store()), q)
	res, _, err := eng.Select(q, minPositiveTau, Naive, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("query matched nothing: the bound was not exercised")
	}
	for _, r := range res {
		if r.Score > bound*(1+1e-9)+1e-12 {
			t.Fatalf("true score %g exceeds shard bound %g", r.Score, bound)
		}
	}
}

package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/collection"
	"repro/internal/tokenize"
)

// Eq. 1's two lengths are sums of idf² that sim.SumSq makes a function
// of the summands' multiset. These tests hold the two places an order
// used to leak in: the token ids a dictionary happens to assign, and
// the memtable's string order against a segment's id order.

// lengthQueries draws every seventh corpus document as a query, plus
// each of those with grams no document holds (the alphabet stops at
// 'f'), so unknown tokens lengthen the query.
func lengthQueries(docs []string) []string {
	var qs []string
	for i := 0; i < len(docs); i += 7 {
		qs = append(qs, docs[i])
		if i%21 == 0 {
			qs = append(qs, docs[i]+"xyz")
		}
	}
	return qs
}

// scoreBits renders a result list as its (id, score bits) pairs, ids
// passed through remap and the pairs sorted by id.
func scoreBits(rs []Result, remap func(collection.SetID) collection.SetID) string {
	type pair struct {
		id   collection.SetID
		bits uint64
	}
	ps := make([]pair, len(rs))
	for i, r := range rs {
		ps[i] = pair{remap(r.ID), math.Float64bits(r.Score)}
	}
	slices.SortFunc(ps, func(a, b pair) int { return cmp.Compare(a.id, b.id) })
	return fmt.Sprint(ps)
}

func TestLengthsIgnoreTokenNumbering(t *testing.T) {
	docs := pipelineDocs(500, 1234, 6)
	tk := tokenize.QGramTokenizer{Q: 3}
	a := buildPipelineCollection(docs)

	// The same sets, the same set ids, under a shuffled dictionary.
	rng := rand.New(rand.NewSource(15))
	var grams []string
	for t := 0; t < a.Dict().Len(); t++ {
		grams = append(grams, a.Dict().String(tokenize.Token(t)))
	}
	rng.Shuffle(len(grams), func(i, j int) { grams[i], grams[j] = grams[j], grams[i] })
	dict := tokenize.NewDict()
	for _, g := range grams {
		dict.Intern(g)
	}
	bld := collection.NewBuilderWithDict(dict, tk, true)
	for _, s := range docs {
		bld.Add(s)
	}
	b := bld.Build()
	moved := 0
	for id := 0; id < a.NumSets(); id++ {
		if la, lb := a.Length(collection.SetID(id)), b.Length(collection.SetID(id)); la != lb {
			moved++
		}
	}
	if moved > 0 {
		t.Errorf("renumbering tokens moved %d of %d set lengths", moved, a.NumSets())
	}

	// A live store fed the documents in another order interns its grams
	// in another order too; live id j is document perm[j].
	perm := rng.Perm(len(docs))
	le := NewLive(liveTestTK, LiveConfig{NoBackground: true, FlushThreshold: 64})
	defer le.Close()
	for _, i := range perm {
		if _, err := le.Insert(docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	le.Compact()
	fromLive := func(id collection.SetID) collection.SetID { return collection.SetID(perm[id]) }
	same := func(id collection.SetID) collection.SetID { return id }

	ea, eb := NewEngine(a, Config{}), NewEngine(b, Config{})
	answers, differ := 0, 0
	check := func(label, want, got string) {
		answers++
		if got != want {
			differ++
			if differ <= 3 {
				t.Errorf("%s:\n got %s\nwant %s", label, got, want)
			}
		}
	}
	for _, qs := range lengthQueries(docs) {
		qa, qb, ql := ea.Prepare(qs), eb.Prepare(qs), le.Prepare(qs)
		if qa.Len != qb.Len {
			t.Errorf("%q: len(q) %v under one numbering, %v under another", qs, qa.Len, qb.Len)
		}
		for _, alg := range pipelineAllAlgs() {
			for _, tau := range []float64{0.5, 0.7, 0.8, 0.95} {
				ra, _, errA := ea.Select(qa, tau, alg, nil)
				rb, _, errB := eb.Select(qb, tau, alg, nil)
				rl, _, errL := le.Select(ql, tau, alg, nil)
				if errA != nil || errB != nil || errL != nil {
					t.Fatalf("%q %v τ=%g: %v / %v / %v", qs, alg, tau, errA, errB, errL)
				}
				want := scoreBits(ra, same)
				label := fmt.Sprintf("%q %v τ=%g", qs, alg, tau)
				check(label+" shuffled dictionary", want, scoreBits(rb, same))
				check(label+" live, other insert order", want, scoreBits(rl, fromLive))
			}
		}
		for _, alg := range pipelineTopKA {
			for _, k := range pipelineKs {
				ra, _, errA := ea.SelectTopK(qa, k, alg, nil)
				rb, _, errB := eb.SelectTopK(qb, k, alg, nil)
				if errA != nil || errB != nil {
					t.Fatalf("%q top-%d %v: %v / %v", qs, k, alg, errA, errB)
				}
				check(fmt.Sprintf("%q top-%d %v shuffled dictionary", qs, k, alg), fmt.Sprint(ra), fmt.Sprint(rb))
			}
		}
	}
	if differ > 0 {
		t.Errorf("%d of %d answers changed ids or score bits", differ, answers)
	}
}

// TestFlushKeepsScoreBits inserts one document at a time into a
// compacted store, scores the document against its own text from the
// memtable, compacts fully — the segment bakes the same N and df the
// memtable scored with — and scores it again from the segment. The
// flush must not move a bit of its score, nor of len(q).
func TestFlushKeepsScoreBits(t *testing.T) {
	base := pipelineDocs(500, 1234, 6)
	extra := pipelineDocs(500, 4321, 6)
	le := NewLive(liveTestTK, LiveConfig{NoBackground: true, FlushThreshold: 1 << 20})
	defer le.Close()
	for _, s := range base {
		if _, err := le.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	le.Compact()
	score := func(q LiveQuery, id collection.SetID) (float64, bool) {
		rs, _, err := le.Select(q, 0.5, SF, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if r.ID == id {
				return r.Score, true
			}
		}
		return 0, false
	}
	moved, qlens := 0, 0
	for _, s := range extra {
		id, err := le.Insert(s)
		if err != nil {
			t.Fatal(err)
		}
		mq := le.Prepare(s)
		before, ok := score(mq, id)
		if !ok {
			t.Fatalf("%q: inserted document %d not found from the memtable", s, id)
		}
		le.Compact()
		sq := le.Prepare(s)
		after, ok := score(sq, id)
		if !ok {
			t.Fatalf("%q: document %d not found after the flush", s, id)
		}
		if math.Float64bits(before) != math.Float64bits(after) {
			moved++
			if moved <= 3 {
				t.Errorf("%q: score %v from the memtable, %v from the segment", s, before, after)
			}
		}
		if segLen := sq.segQ[0][0].Len; mq.mem.qLen != segLen {
			qlens++
			if qlens <= 3 {
				t.Errorf("%q: memtable len(q) %v, segment len(q) %v", s, mq.mem.qLen, segLen)
			}
		}
	}
	if moved > 0 || qlens > 0 {
		t.Errorf("of %d flushes, %d moved the document's score bits and %d len(q)", len(extra), moved, qlens)
	}
}

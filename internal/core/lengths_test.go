package core

import (
	"math"
	"testing"

	"repro/internal/collection"
)

// Eq. 1's two lengths are sums of idf² that sim.SumSq makes a function
// of the summands' multiset. An order used to leak in at two places: the
// token ids a dictionary happens to assign, which the oracle's shuffled
// dictionary shape holds (TestQueryEquivalence), and the memtable's
// string order against a segment's id order, held here.

// TestFlushKeepsScoreBits inserts one document at a time into a
// compacted store, scores the document against its own text from the
// memtable, compacts fully — the segment bakes the same N and df the
// memtable scored with — and scores it again from the segment. The
// flush must not move a bit of its score, nor of len(q).
func TestFlushKeepsScoreBits(t *testing.T) {
	base := randomDocs(500, 1234, 6)
	extra := randomDocs(500, 4321, 6)
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

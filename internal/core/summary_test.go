package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/collection"
	"repro/internal/invlist"
	"repro/internal/route"
	"repro/internal/tokenize"
)

// fillHeads is the reference a summary is held to: it serves, as the
// head of each token's list, a posting whose length is the least length
// over the token's sets as the collection's id lists (TokenSets) give
// them — the minimum route.Summarize computed before it read the built
// lists. It reaches route.Summarize through invlist.HeadLen's cursor
// path, not the MemStore one the builds take.
type fillHeads struct {
	invlist.Store
	min []float64 // 0: no set holds the token
}

func newFillHeads(c *collection.Collection) fillHeads {
	h := fillHeads{min: make([]float64, c.NumTokens())}
	c.TokenSets(func(t tokenize.Token, ids []collection.SetID) {
		for _, id := range ids {
			if l := c.Length(id); h.min[t] == 0 || l < h.min[t] {
				h.min[t] = l
			}
		}
	})
	return h
}

func (h fillHeads) WeightCursor(t tokenize.Token) invlist.Cursor {
	if int(t) >= len(h.min) || h.min[t] == 0 {
		return invlist.Empty()
	}
	return &headCursor{p: invlist.Posting{Len: h.min[t]}}
}

// headCursor is a one-posting list.
type headCursor struct {
	p    invlist.Posting
	done bool
}

func (c *headCursor) Valid() bool                { return !c.done }
func (c *headCursor) Posting() invlist.Posting   { return c.p }
func (c *headCursor) Next()                      { c.done = true }
func (c *headCursor) SeekLen(float64) (int, int) { return 0, 0 }
func (c *headCursor) Count() int                 { return 1 }

// requireFillSummary fails unless got is the summary the fill-based
// minimum gives c.
func requireFillSummary(t *testing.T, label string, c *collection.Collection, got *route.Summary) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no summary", label)
	}
	if want := route.Summarize(c, newFillHeads(c)); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: summary from the lists differs from the fill-based one", label)
	}
}

// summaryDocs is a word corpus of clustered topics — far more than the
// summaries' 64 hot tokens, each topic's words absent from most shards —
// plus two blocks of heavy length ties: documents of two words seen once
// each, whose lengths are all equal, and one document repeated.
func summaryDocs() []string {
	docs := clusteredDocs(10, 60, 57)
	for i := range 150 {
		docs = append(docs, fmt.Sprintf("solo%da solo%db", i, i))
	}
	for range 100 {
		docs = append(docs, "twin words here")
	}
	return docs
}

// TestSummaryFromListsMatchesFill: a summary read off the heads of the
// built lists equals the one the collection's id lists give, on every
// shape that builds one — a monolithic engine, routed builds of one, two
// and eight shards (one shard builds none, so its engine is summarized
// here), and the segments of a live store after a memtable flush and
// after a full compaction.
func TestSummaryFromListsMatchesFill(t *testing.T) {
	docs := summaryDocs()
	tk := tokenize.WordTokenizer{}

	mono := NewEngine(BuildCollection(tk, docs, true), Config{})
	if n := mono.c.NumTokens(); n <= 64 {
		t.Fatalf("corpus has %d tokens, not more than the 64 hot ones", n)
	}
	requireFillSummary(t, "monolithic", mono.c, route.Summarize(mono.c, mono.store))

	absent := false
	for _, k := range []int{1, 2, 8} {
		se := BuildSharded(tk, docs, k, Config{})
		for i := range se.NumShards() {
			sh := se.Shard(i)
			label := fmt.Sprintf("%d shards: shard %d", k, i)
			sum := route.Summarize(sh.c, sh.store)
			if k > 1 {
				sum = se.ShardSummary(i)
			}
			requireFillSummary(t, label, sh.c, sum)
			for tok := range sh.c.NumTokens() {
				absent = absent || sh.store.ListLen(tokenize.Token(tok)) == 0
			}
		}
		se.Close()
	}
	if !absent {
		t.Fatal("no shard's dictionary holds a token without sets there")
	}

	le := BuildLive(docs[:600], tk, LiveConfig{NoBackground: true, Shards: 2})
	defer le.Close()
	for _, s := range docs[600:] {
		if _, err := le.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[*liveSegment]bool{}
	requireSegments := func(stage string) {
		t.Helper()
		fresh := 0
		for si, sh := range le.snap.Load().shards {
			for gi, g := range sh.segs {
				requireFillSummary(t, fmt.Sprintf("%s: shard %d segment %d", stage, si, gi), g.eng.c, g.sum)
				if !seen[g] {
					seen[g] = true
					fresh++
				}
			}
		}
		if fresh == 0 {
			t.Fatalf("%s: no segment was built", stage)
		}
	}
	requireSegments("bulk load")
	le.compactOnce(false)
	requireSegments("after a flush")
	for id := 0; id < len(docs); id += 7 {
		le.Delete(collection.SetID(id))
	}
	if !le.Compact() {
		t.Fatal("Compact did nothing")
	}
	requireSegments("after a full compaction")
}

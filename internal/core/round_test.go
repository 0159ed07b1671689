package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/collection"
	"repro/internal/route"
	"repro/internal/tokenize"
)

// RestoreLive restores a document log through the round tokenizing its
// live documents builds — what a save stores — and is the reference the
// bulk-load tests hold the mutation path and the stored round to. A live
// document that yields no tokens fails it with an error wrapping
// ErrNoTokens.
func RestoreLive(docs []DocState, tk tokenize.Tokenizer, cfg LiveConfig) (*LiveEngine, error) {
	var live []string
	for _, d := range docs {
		if !d.Deleted {
			live = append(live, d.Source)
		}
	}
	sr, err := TokenizeRound(tk, live)
	if err != nil {
		return nil, err
	}
	return RestoreLiveRound(docs, sr, tk, cfg)
}

// summaryScalars flattens what a pruning summary exposes, nil included.
func summaryScalars(s *route.Summary) [6]float64 {
	if s == nil {
		return [6]float64{-1}
	}
	lo, hi := s.LenRange()
	slots, occ := s.SketchSlots()
	return [6]float64{float64(s.Docs()), lo, hi, float64(s.HotTokens()), float64(slots), float64(occ)}
}

// requireSameLiveEngine fails unless got is, as far as any caller can
// tell, the engine want is: same log, routing, live count, per-shard
// summaries and settled segment store, and bitwise-equal answers from
// every algorithm at two thresholds plus every top-k algorithm.
func requireSameLiveEngine(t *testing.T, label string, got, want *LiveEngine, queries []string) {
	t.Helper()
	if !reflect.DeepEqual(got.Log(), want.Log()) {
		t.Fatalf("%s: document logs differ", label)
	}
	if !reflect.DeepEqual(got.Routing(), want.Routing()) {
		t.Fatalf("%s: routing tables differ:\n got %v\nwant %v", label, got.Routing(), want.Routing())
	}
	if got.NumLive() != want.NumLive() {
		t.Fatalf("%s: %d live documents, want %d", label, got.NumLive(), want.NumLive())
	}
	gs, ws := got.ShardSummaries(), want.ShardSummaries()
	for si := range ws {
		if summaryScalars(gs[si]) != summaryScalars(ws[si]) {
			t.Fatalf("%s: shard %d summary %v, want %v", label, si, summaryScalars(gs[si]), summaryScalars(ws[si]))
		}
	}
	gst, wst := got.Stats(), want.Stats()
	if gst.Memtable != 0 || gst.Tombstones != 0 {
		t.Fatalf("%s: unsettled store: %+v", label, gst)
	}
	gst.Epoch, wst.Epoch = 0, 0 // one publication against one per mutation
	gst.LastCompaction, wst.LastCompaction = 0, 0
	if gst != wst {
		t.Fatalf("%s: stats %+v, want %+v", label, gst, wst)
	}
	for _, s := range queries {
		gq, wq := got.Prepare(s), want.Prepare(s)
		for _, alg := range Algorithms() {
			for _, tau := range []float64{0.35, 0.8} {
				g, _, gerr := got.Select(gq, tau, alg, nil)
				w, _, werr := want.Select(wq, tau, alg, nil)
				if !errors.Is(gerr, werr) {
					t.Fatalf("%s %q %v τ=%g: error %v, want %v", label, s, alg, tau, gerr, werr)
				}
				assertBitwise(t, fmt.Sprintf("%s %q %v τ=%g", label, s, alg, tau), g, w)
			}
		}
		for _, alg := range []Algorithm{Naive, SF} {
			g, _, gerr := got.SelectTopK(gq, 7, alg, nil)
			w, _, werr := want.SelectTopK(wq, 7, alg, nil)
			if !errors.Is(gerr, werr) {
				t.Fatalf("%s %q top-7 %v: error %v, want %v", label, s, alg, gerr, werr)
			}
			assertBitwise(t, fmt.Sprintf("%s %q top-7 %v", label, s, alg), g, w)
		}
	}
}

// TestBulkLoadMatchesReplay is the bulk loader's contract: over seeded
// random histories of inserts (some of strings that yield no tokens) and
// deletes, at 1 and 4 shards, the engine RestoreLive builds from the
// history's log — and, for a history without deletes, the one BuildLive
// builds from its strings — is the engine the history leaves behind when
// it runs through Insert and Delete and ends in a Compact.
func TestBulkLoadMatchesReplay(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, shards := range []int{1, 4} {
			label := fmt.Sprintf("seed %d, %d shards", seed, shards)
			cfg := LiveConfig{NoBackground: true, Shards: shards}
			rng := rand.New(rand.NewSource(seed))
			deletes := seed%2 == 1 // even seeds are insert-only: BuildLive's case
			strs := randomDocs(40+rng.Intn(260), 100+seed, 5)

			ref := NewLive(liveTestTK, cfg)
			var corpus []string
			var live []collection.SetID
			for _, s := range strs {
				if rng.Intn(12) == 0 {
					s = "" // yields no tokens: never enters the log
				}
				corpus = append(corpus, s)
				if id, err := ref.Insert(s); err == nil {
					live = append(live, id)
				} else if !errors.Is(err, ErrNoTokens) || s != "" {
					t.Fatalf("%s: insert %q: %v", label, s, err)
				}
				if deletes && len(live) > 0 && rng.Intn(3) == 0 {
					i := rng.Intn(len(live))
					if !ref.Delete(live[i]) {
						t.Fatalf("%s: delete %d did not apply", label, live[i])
					}
					live = append(live[:i], live[i+1:]...)
				}
			}
			ref.Compact()

			queries := append([]string{"", "zzzzzzz", strs[0] + "x"}, strs[1:8]...)
			bulk, err := RestoreLive(ref.Log(), liveTestTK, cfg)
			if err != nil {
				t.Fatalf("%s: RestoreLive: %v", label, err)
			}
			requireSameLiveEngine(t, label+", RestoreLive", bulk, ref, queries)
			bulk.Close()
			if !deletes {
				built := BuildLive(corpus, liveTestTK, cfg)
				requireSameLiveEngine(t, label+", BuildLive", built, ref, queries)
				built.Close()
			}
			ref.Close()
		}
	}
}

// TestRestoreLiveEdges: an empty log is an empty engine that has run no
// round; a log of tombstones only has run one that built nothing; a live
// entry that yields no tokens fails the restore with ErrNoTokens, a
// tombstoned one is never tokenized.
func TestRestoreLiveEdges(t *testing.T) {
	cfg := LiveConfig{NoBackground: true, Shards: 2}
	le, err := RestoreLive(nil, liveTestTK, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := le.Stats(); st.Compactions != 0 || st.Segments != 0 || st.Docs != 0 {
		t.Fatalf("empty log: %+v", st)
	}
	le.Close()

	ref := NewLive(liveTestTK, cfg)
	for _, s := range []string{"alpha", "beta"} {
		id, _ := ref.Insert(s)
		ref.Delete(id)
	}
	ref.Compact()
	le, err = RestoreLive([]DocState{{Source: "alpha", Deleted: true}, {Source: "beta", Deleted: true}}, liveTestTK, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameLiveEngine(t, "tombstones only", le, ref, []string{"alpha"})
	if id, err := le.Insert("gamma"); err != nil || id != 2 {
		t.Fatalf("insert after restore: id %d, err %v; want id 2", id, err)
	}
	le.Close()
	ref.Close()

	if _, err := RestoreLive([]DocState{{Source: "alpha"}, {Source: ""}}, liveTestTK, cfg); !errors.Is(err, ErrNoTokens) {
		t.Fatalf("live empty-token document: error %v, want ErrNoTokens", err)
	}
	if le, err = RestoreLive([]DocState{{Source: "alpha"}, {Source: "", Deleted: true}}, liveTestTK, cfg); err != nil {
		t.Fatalf("tombstoned empty-token document: %v", err)
	}
	le.Close()
}

// countingTokenizer counts Tokens calls: the build paths' only
// tokenization cost.
type countingTokenizer struct {
	tokenize.Tokenizer
	calls *atomic.Int64
}

func (c countingTokenizer) Tokens(dst []string, s string) []string {
	c.calls.Add(1)
	return c.Tokenizer.Tokens(dst, s)
}

// TestBuildsTokenizeOnce: every build path decomposes each document it
// indexes exactly once, with its rounds fanned out over four workers —
// the sharded static build, the monolithic build, a full compaction
// (re-clustering included) and the bulk load.
func TestBuildsTokenizeOnce(t *testing.T) {
	withWorkers(4, func() { testBuildsTokenizeOnce(t) })
}

func testBuildsTokenizeOnce(t *testing.T) {
	docs := randomDocs(300, 77, 6)
	var calls atomic.Int64
	tk := countingTokenizer{Tokenizer: liveTestTK, calls: &calls}

	se := BuildSharded(tk, docs, 4, Config{})
	se.Close()
	if n := calls.Swap(0); n != int64(len(docs)) {
		t.Errorf("BuildSharded: %d Tokens calls for %d documents", n, len(docs))
	}

	if c := BuildCollection(tk, docs, true); c.NumSets() != len(docs) {
		t.Fatalf("BuildCollection kept %d of %d documents", c.NumSets(), len(docs))
	}
	if n := calls.Swap(0); n != int64(len(docs)) {
		t.Errorf("BuildCollection: %d Tokens calls for %d documents", n, len(docs))
	}

	le := NewLive(tk, LiveConfig{NoBackground: true, Shards: 4})
	defer le.Close()
	for i, s := range docs {
		id, err := le.Insert(s)
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 1 {
			le.Delete(id)
		}
	}
	calls.Store(0)
	le.Compact()
	if n := calls.Swap(0); n != int64(le.NumLive()) {
		t.Errorf("full Compact: %d Tokens calls for %d live documents", n, le.NumLive())
	}

	bulk, err := RestoreLive(le.Log(), tk, LiveConfig{NoBackground: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer bulk.Close()
	if n := calls.Swap(0); n != int64(le.NumLive()) {
		t.Errorf("RestoreLive: %d Tokens calls for %d live documents", n, le.NumLive())
	}
	if st := bulk.Stats(); st.Compactions != 1 {
		t.Errorf("RestoreLive ran %d rounds, want 1", st.Compactions)
	}
}

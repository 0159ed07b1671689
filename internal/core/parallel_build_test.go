package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/collection"
	"repro/internal/tokenize"
)

// withWorkers runs build with every round it starts fanned out over
// workers goroutines, however small: GOMAXPROCS(workers) and no floor.
func withWorkers(workers int, build func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	defer func(floor int) { parallelFloor = floor }(parallelFloor)
	parallelFloor = 0
	build()
}

// requireSameCollection fails unless got and want hold the same
// dictionary in id order, the same token arena, offsets, TF table and
// sources, and the same df, idf and length bits.
func requireSameCollection(t *testing.T, label string, got, want *collection.Collection) {
	t.Helper()
	gd, wd := got.Dict(), want.Dict()
	if gd.Len() != wd.Len() {
		t.Fatalf("%s: dictionary of %d tokens, want %d", label, gd.Len(), wd.Len())
	}
	for i := 0; i < wd.Len(); i++ {
		if g, w := gd.String(tokenize.Token(i)), wd.String(tokenize.Token(i)); g != w {
			t.Fatalf("%s: token %d is %q, want %q", label, i, g, w)
		}
	}
	for tok := 0; tok < want.NumTokens(); tok++ {
		if g, w := math.Float64bits(got.IDFWeight(tokenize.Token(tok))), math.Float64bits(want.IDFWeight(tokenize.Token(tok))); g != w {
			t.Fatalf("%s: idf bits of token %d: %x, want %x", label, tok, g, w)
		}
	}
	for id := 0; id < want.NumSets(); id++ {
		if g, w := math.Float64bits(got.Length(collection.SetID(id))), math.Float64bits(want.Length(collection.SetID(id))); g != w {
			t.Fatalf("%s: length bits of set %d: %x, want %x", label, id, g, w)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: collections differ (arena, offsets, TF table, sources or df)", label)
	}
}

// requireSameEngine adds the posting arenas with their skip samples and
// the dense lists' bitmaps to requireSameCollection.
func requireSameEngine(t *testing.T, label string, got, want *Engine) {
	t.Helper()
	requireSameCollection(t, label, got.c, want.c)
	if !reflect.DeepEqual(got.store, want.store) {
		t.Fatalf("%s: posting arenas or skip samples differ", label)
	}
	if !reflect.DeepEqual(got.dense, want.dense) {
		t.Fatalf("%s: dense bitmaps differ", label)
	}
}

func requireSameSharded(t *testing.T, label string, got, want *ShardedEngine) {
	t.Helper()
	requireSameLive(t, label, got.le, want.le)
}

// requireSameLive compares two settled live engines segment by segment.
func requireSameLive(t *testing.T, label string, got, want *LiveEngine) {
	t.Helper()
	if !reflect.DeepEqual(got.Log(), want.Log()) || !reflect.DeepEqual(got.Routing(), want.Routing()) {
		t.Fatalf("%s: logs or routing tables differ", label)
	}
	if !reflect.DeepEqual(got.df, want.df) || got.liveN != want.liveN {
		t.Fatalf("%s: live statistics differ", label)
	}
	gs, ws := got.snap.Load().shards, want.snap.Load().shards
	for si := range ws {
		if len(gs[si].segs) != len(ws[si].segs) || len(gs[si].mem) != len(ws[si].mem) {
			t.Fatalf("%s shard %d: %d segments and %d memtable documents, want %d and %d",
				label, si, len(gs[si].segs), len(gs[si].mem), len(ws[si].segs), len(ws[si].mem))
		}
		for gi, w := range ws[si].segs {
			g := gs[si].segs[gi]
			l := fmt.Sprintf("%s shard %d segment %d", label, si, gi)
			if !reflect.DeepEqual(g.ids, w.ids) || g.builtN != w.builtN || g.builtMut != w.builtMut ||
				g.identity != w.identity || g.dead.Load() != w.dead.Load() {
				t.Fatalf("%s: segment bookkeeping differs", l)
			}
			if !reflect.DeepEqual(g.sum, w.sum) {
				t.Fatalf("%s: route summaries differ", l)
			}
			requireSameEngine(t, l, g.eng, w.eng)
		}
	}
}

// builtShapes is one build of every shape TestParallelBuildMatchesSerial
// compares.
type builtShapes struct {
	routed                  *ShardedEngine
	mono                    *collection.Collection
	engine                  *Engine     // setsim.Build's: NewEngine over BuildCollection
	built, restored, folded *LiveEngine // folded: restored, then deletes and a Compact
	// The same three live shapes at Shards: 1, whose one engine per
	// round fills its lists and bitmaps on every worker.
	built1, restored1, folded1 *LiveEngine
}

// TestParallelBuildMatchesSerial: every build path fanned out over four
// workers builds exactly what it builds on one — BuildSharded routed
// over 8 shards, the monolithic BuildCollection
// (which is also Builder.Add's collection) and the engine setsim.Build
// makes of it, BuildLive over 3 shards and over one, and RestoreLive of
// a log with tombstones followed by a full Compact, over 3 shards and
// over one. A one-engine build fills its lists, skip samples and dense
// bitmaps by token range on every worker; the skewed q-gram corpus
// gives it lists long enough for both. The corpora include documents without
// tokens, fewer documents than shards and fewer than workers, and none
// at all.
func TestParallelBuildMatchesSerial(t *testing.T) {
	words := clusteredDocs(12, 40, 91)
	grams := randomDocs(500, 92, 14)
	for i := 0; i < len(words); i += 37 {
		words[i] = "" // no tokens: left out, and the ids close up
	}
	for i := 0; i < len(grams); i += 41 {
		grams[i] = "!?"
	}
	type corpus struct {
		name string
		tk   tokenize.Tokenizer
		docs []string
	}
	corpora := []corpus{
		{"words", tokenize.WordTokenizer{}, words},
		{"grams", liveTestTK, grams},
		{"dense grams", liveTestTK, denseDocs(1500, 93)},
		{"three docs", tokenize.WordTokenizer{}, []string{"alpha beta", "", "beta gamma"}},
		{"empty", tokenize.WordTokenizer{}, nil},
	}
	for _, cp := range corpora {
		var serial, parallel builtShapes
		log := make([]DocState, len(cp.docs))
		for i, s := range cp.docs {
			log[i] = DocState{Source: s, Deleted: i%5 == 2 || s == "" || s == "!?"}
		}
		for _, run := range []struct {
			workers int
			out     *builtShapes
		}{{1, &serial}, {4, &parallel}} {
			withWorkers(run.workers, func() {
				o := run.out
				o.routed = BuildSharded(cp.tk, cp.docs, 8, Config{})
				o.mono = BuildCollection(cp.tk, cp.docs, true)
				o.engine = NewEngine(BuildCollection(cp.tk, cp.docs, true), Config{})
				o.built = BuildLive(cp.docs, cp.tk, LiveConfig{NoBackground: true, Shards: 3})
				o.built1 = BuildLive(cp.docs, cp.tk, LiveConfig{NoBackground: true, Shards: 1})
				for _, l := range []struct {
					restored, folded **LiveEngine
					shards           int
				}{{&o.restored, &o.folded, 3}, {&o.restored1, &o.folded1, 1}} {
					cfg := LiveConfig{NoBackground: true, Shards: l.shards}
					var err error
					if *l.restored, err = RestoreLive(log, cp.tk, cfg); err != nil {
						t.Fatalf("%s: RestoreLive: %v", cp.name, err)
					}
					if *l.folded, err = RestoreLive(log, cp.tk, cfg); err != nil {
						t.Fatalf("%s: RestoreLive: %v", cp.name, err)
					}
					for id, d := range log {
						if !d.Deleted && id%3 == 0 {
							(*l.folded).Delete(collection.SetID(id))
						}
					}
					(*l.folded).Compact()
				}
			})
		}
		requireSameSharded(t, cp.name+" routed", parallel.routed, serial.routed)
		requireSameCollection(t, cp.name+" monolithic", parallel.mono, serial.mono)
		requireSameEngine(t, cp.name+" monolithic engine", parallel.engine, serial.engine)
		requireSameLive(t, cp.name+" BuildLive", parallel.built, serial.built)
		requireSameLive(t, cp.name+" RestoreLive", parallel.restored, serial.restored)
		requireSameLive(t, cp.name+" RestoreLive+Compact", parallel.folded, serial.folded)
		requireSameLive(t, cp.name+" one-shard BuildLive", parallel.built1, serial.built1)
		requireSameLive(t, cp.name+" one-shard RestoreLive", parallel.restored1, serial.restored1)
		requireSameLive(t, cp.name+" one-shard RestoreLive+Compact", parallel.folded1, serial.folded1)
		if cp.name == "dense grams" {
			if e := parallel.engine; len(e.dense.tokens) == 0 || e.Sizes().SkipIndexes == 0 {
				t.Fatalf("dense grams: %d dense lists and %d bytes of skip samples: the parallel fill is not exercised",
					len(e.dense.tokens), e.Sizes().SkipIndexes)
			}
		}

		b := collection.NewBuilder(cp.tk, true)
		for _, s := range cp.docs {
			b.Add(s)
		}
		requireSameCollection(t, cp.name+" Builder.Add", parallel.mono, b.Build())

		serial.routed.Close()
		parallel.routed.Close()
		for _, le := range []*LiveEngine{serial.built, serial.restored, serial.folded, serial.built1, serial.restored1, serial.folded1,
			parallel.built, parallel.restored, parallel.folded, parallel.built1, parallel.restored1, parallel.folded1} {
			le.Close()
		}
	}
}

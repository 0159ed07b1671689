package setsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/tokenize"
)

// roundWords generates n short words over a small syllable set, so
// q-grams repeat across documents and some repeat within one (tf > 1).
func roundWords(rng *rand.Rand, n int) []string {
	syl := strings.Fields("an ber co da el fi gor ha in jo ka lu mi nor os pe")
	out := make([]string, n)
	for i := range out {
		var sb strings.Builder
		for k := 1 + rng.Intn(4); k > 0; k-- {
			sb.WriteString(syl[rng.Intn(len(syl))])
		}
		out[i] = sb.String()
	}
	return out
}

// roundStoreShape is one store the stored-round tests build: a durable
// history of inserts, some deleted, checkpointed, then optionally a WAL
// tail of further mutations.
type roundStoreShape struct {
	name    string
	shards  int  // the store's shard count
	reopen  int  // the shard count it is reopened at (0: the saved one)
	deletes bool // tombstone some checkpointed documents
	tail    bool // leave mutations past the checkpoint in the WAL
}

var roundStoreShapes = []roundStoreShape{
	{name: "1 shard", shards: 1},
	{name: "2 shards, tombstones", shards: 2, deletes: true},
	{name: "8 shards, tombstones, tail", shards: 8, deletes: true, tail: true},
	{name: "2 shards reopened at 3", shards: 2, reopen: 3, deletes: true},
	{name: "8 shards reopened at 1, tail", shards: 8, reopen: 1, tail: true},
	{name: "1 shard, tail", shards: 1, deletes: true, tail: true},
	{name: "4 shards, tombstones, tail", shards: 4, deletes: true, tail: true},
}

func (sh roundStoreShape) cfg() LiveConfig {
	return LiveConfig{NoBackground: true, Shards: sh.shards, CheckpointEvery: -1}
}

// buildRoundStore writes sh's store at path and returns its queries.
func buildRoundStore(t *testing.T, path string, sh roundStoreShape, seed int64) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	words := roundWords(rng, 400)
	le, _, err := OpenDurable(path, sh.cfg(), DurableOptions{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	var ids []SetID
	for _, w := range words[:300] {
		id, err := le.Insert(w)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if sh.deletes {
		for i := 0; i < len(ids); i += 7 {
			le.Delete(ids[i])
		}
	}
	if err := le.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if sh.tail {
		for _, w := range words[300:] {
			if _, err := le.Insert(w); err != nil {
				t.Fatal(err)
			}
		}
		for i := 3; i < len(ids); i += 11 {
			le.Delete(ids[i])
		}
	}
	le.Close()
	return append([]string{"zzzz", words[0] + "x"}, words[1:12]...)
}

// requireSameAnswers fails unless got holds the document log, routing
// and store shape of want and answers every query bitwise like it: every
// algorithm at two thresholds, top-k and a batch.
func requireSameAnswers(t *testing.T, label string, got, want *LiveEngine, queries []string) {
	t.Helper()
	if !reflect.DeepEqual(got.Log(), want.Log()) || !reflect.DeepEqual(got.Routing(), want.Routing()) {
		t.Fatalf("%s: document logs or routing differ", label)
	}
	gst, wst := got.Stats(), want.Stats()
	gst.LastCompaction, wst.LastCompaction = 0, 0
	if gst != wst {
		t.Fatalf("%s: stats %+v, want %+v", label, gst, wst)
	}
	same := func(what string, g, w []Result, gerr, werr error) {
		t.Helper()
		if !errors.Is(gerr, werr) || len(g) != len(w) {
			t.Fatalf("%s %s: %d results (%v), want %d (%v)", label, what, len(g), gerr, len(w), werr)
		}
		for i := range w {
			if g[i].ID != w[i].ID || math.Float64bits(g[i].Score) != math.Float64bits(w[i].Score) {
				t.Fatalf("%s %s result %d: {%d %.17g}, want {%d %.17g}", label, what, i, g[i].ID, g[i].Score, w[i].ID, w[i].Score)
			}
		}
	}
	var gqs, wqs []LiveQuery
	for _, s := range queries {
		gq, wq := got.Prepare(s), want.Prepare(s)
		gqs, wqs = append(gqs, gq), append(wqs, wq)
		for _, alg := range Algorithms() {
			for _, tau := range []float64{0.35, 0.8} {
				g, _, gerr := got.Select(gq, tau, alg, nil)
				w, _, werr := want.Select(wq, tau, alg, nil)
				same(fmt.Sprintf("%q %v τ=%g", s, alg, tau), g, w, gerr, werr)
			}
		}
		for _, alg := range []Algorithm{Naive, SF} {
			g, _, gerr := got.SelectTopK(gq, 5, alg, nil)
			w, _, werr := want.SelectTopK(wq, 5, alg, nil)
			same(fmt.Sprintf("%q top-5 %v", s, alg), g, w, gerr, werr)
		}
	}
	gb, wb := got.SelectBatch(gqs, 0.5, SF, nil, 2), want.SelectBatch(wqs, 0.5, SF, nil, 2)
	for i := range wb {
		same(fmt.Sprintf("batch %d", i), gb[i].Results, wb[i].Results, gb[i].Err, wb[i].Err)
	}
}

// TestRecoverFromStoredRoundMatchesTokenized: the round a store's
// packages hold is the round tokenizing its live documents builds —
// dictionary strings, vectors and offsets — and the engine recovered
// from it without tokenizing (which recounts df and rebuilds the round
// core's TestStoredRoundMatchesAddAll holds equal to addAll's) is the
// engine recovered by tokenizing the log, answer for answer: at 1, 2, 4
// and 8 shards, reopened at another shard count, with tombstones and
// with a WAL tail.
func TestRecoverFromStoredRoundMatchesTokenized(t *testing.T) {
	for i, sh := range roundStoreShapes {
		path := filepath.Join(t.TempDir(), "store.sssnap")
		queries := buildRoundStore(t, path, sh, int64(10+i))

		s, err := loadSnapshot(path)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		if s.round == nil {
			t.Fatalf("%s: the checkpoint's packages hold no round", sh.name)
		}
		want, err := core.TokenizeRound(s.tk, liveSources(s.log))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.round, want) {
			t.Fatalf("%s: stored round differs from the tokenized one:\n dict %d/%d, vecs %d/%d, off %d/%d",
				sh.name, len(s.round.Dict), len(want.Dict), len(s.round.Vecs), len(want.Vecs), len(s.round.Off), len(want.Off))
		}

		cfg := sh.cfg()
		cfg.Shards = sh.reopen
		stored, err := s.replay(path, cfg)
		if err != nil {
			t.Fatalf("%s: stored open: %v", sh.name, err)
		}
		tok, err := loadSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		tok.round = nil
		tokenized, err := tok.replay(path, cfg)
		if err != nil {
			t.Fatalf("%s: tokenizing open: %v", sh.name, err)
		}
		requireSameAnswers(t, sh.name, stored, tokenized, queries)
		stored.Close()
		tokenized.Close()
	}
}

// TestVerifyFlagsAlteredVector: a package whose checksums are valid but
// which holds one vector its source does not tokenize to is flagged by
// Verify, in that package's check, and refused by nothing else: the open
// trusts the vectors, which is why Verify re-tokenizes them.
func TestVerifyFlagsAlteredVector(t *testing.T) {
	sh := roundStoreShape{shards: 2, deletes: true}
	path := filepath.Join(t.TempDir(), "store.sssnap")
	buildRoundStore(t, path, sh, 5)
	rep, err := Verify(path)
	if err != nil || !rep.OK {
		t.Fatalf("healthy store: report %+v, err %v", rep, err)
	}

	// Rewrite shard 1's package with one document's vector changed:
	// its first token's tf raised by one. The record stays well-formed
	// and the package's checksums are computed afresh.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	ref := m.refs[len(m.refs)-1]
	name := filepath.Join(filepath.Dir(path), ref.Name)
	fr, err := openPack(name)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := readPackDocs(fr, name)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := readPackVecs(fr, name, docs, len(m.dict))
	fr.Close()
	if err != nil {
		t.Fatal(err)
	}
	for i := range docs {
		docs[i].Vec = pv.vecs[pv.off[i]:pv.off[i+1]]
	}
	docs[len(docs)/2].Vec[0].TF++
	if err := writePackFile(name, ref.Shard, m.gen, docs, m.sums[ref.Shard], m.nextID, m.liveN); err != nil {
		t.Fatal(err)
	}

	rep, err = Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatalf("altered vector: report says OK: %+v", rep)
	}
	for _, p := range rep.Packs {
		flagged := p.Err != nil
		if flagged != (p.Ref.Name == ref.Name) {
			t.Fatalf("pack %s: err %v; only %s holds the altered vector", p.Ref.Name, p.Err, ref.Name)
		}
		if flagged && !errors.Is(p.Err, collection.ErrBadCollection) {
			t.Fatalf("pack %s: err %v, want one wrapping ErrBadCollection", p.Ref.Name, p.Err)
		}
	}
	if le, _, err := OpenDurable(path, sh.cfg(), DurableOptions{Sync: SyncOff}); err != nil {
		t.Fatalf("open of the altered store: %v", err)
	} else {
		le.Close()
	}
}

// vecsFuzzDocs and vecsFuzzDict are the package the vector-record fuzz
// target decodes against: three documents, ids 2, 5 and 6, over a
// five-token dictionary.
var (
	vecsFuzzDocs = []core.DocRef{{ID: 2, Source: "ab"}, {ID: 5, Source: "cd"}, {ID: 6, Source: "ae"}}
	vecsFuzzDict = []string{"a", "b", "c", "d", "e"}
)

// vecsRecord encodes a vector record over vecsFuzzDocs' ids.
func vecsRecord(vecs ...[]tokenize.Count) []byte {
	docs := append([]core.DocRef(nil), vecsFuzzDocs...)
	for i := range docs {
		docs[i].Vec = vecs[i]
	}
	return encodePackVecs(docs)
}

// vecsCases are a valid vector record over vecsFuzzDocs and one of each
// kind the open must refuse.
func vecsCases() []struct {
	name string
	raw  []byte
} {
	type v = []tokenize.Count
	c := func(t tokenize.Token, tf uint32) tokenize.Count { return tokenize.Count{Token: t, TF: tf} }
	valid := vecsRecord(v{c(0, 1), c(1, 2)}, v{c(2, 1), c(3, 1)}, v{c(0, 3), c(4, 1)})
	otherID := append([]byte(nil), valid...)
	otherID[8] = 3 // the first document's id: 3, where the document record holds 2
	return []struct {
		name string
		raw  []byte
	}{
		{"valid", valid},
		{"truncated", valid[:len(valid)-3]},
		{"empty", nil},
		{"trailing byte", append(append([]byte(nil), valid...), 0)},
		{"token past the dictionary", vecsRecord(v{c(0, 1), c(1, 2)}, v{c(2, 1), c(3, 1)}, v{c(0, 1), c(5, 1)})},
		{"repeated token", vecsRecord(v{c(0, 1), c(1, 1), c(1, 1)}, v{c(2, 1), c(3, 1)}, v{c(0, 1), c(4, 1)})},
		{"other document id", otherID},
		{"dictionary id no document uses", vecsRecord(v{c(0, 1), c(1, 1)}, v{c(2, 1), c(3, 1)}, v{c(0, 1)})},
		{"ids not in first-appearance order", vecsRecord(v{c(0, 1), c(1, 1)}, v{c(3, 1), c(4, 1)}, v{c(0, 1), c(2, 1)})},
		{"empty vector", vecsRecord(v{c(0, 1), c(1, 1)}, nil, v{c(2, 1), c(3, 1), c(4, 1)})},
	}
}

// restoreVecs decodes raw against vecsFuzzDocs and restores an engine
// from it: nil, or the first error on the way.
func restoreVecs(raw []byte) error {
	pv, err := decodePackVecs(raw, vecsFuzzDocs, len(vecsFuzzDict))
	if err != nil {
		return err
	}
	if cap(pv.vecs) > len(raw) || len(pv.off) != len(vecsFuzzDocs)+1 {
		return fmt.Errorf("decoded %d entries (cap %d) from %d bytes, %d offsets", len(pv.vecs), cap(pv.vecs), len(raw), len(pv.off))
	}
	log := make([]core.DocState, 7)
	for i := range log {
		log[i] = core.DocState{Source: "x", Deleted: true}
	}
	for _, d := range vecsFuzzDocs {
		log[d.ID] = core.DocState{Source: d.Source}
	}
	sr := &core.StoredRound{Dict: vecsFuzzDict, Vecs: pv.vecs, Off: pv.off}
	le, err := core.RestoreLiveRound(log, sr, QGramTokenizer{Q: 1}, LiveConfig{NoBackground: true})
	if err == nil {
		le.Close()
	}
	return err
}

// TestPackVecsRefusesMalformed: the valid record restores, and every
// malformed one is refused — by the decoder or by the restore — with an
// error wrapping collection.ErrBadCollection.
func TestPackVecsRefusesMalformed(t *testing.T) {
	for _, tc := range vecsCases() {
		err := restoreVecs(tc.raw)
		if tc.name == "valid" {
			if err != nil {
				t.Errorf("valid record: %v", err)
			}
			continue
		}
		if !errors.Is(err, collection.ErrBadCollection) {
			t.Errorf("%s: error %v, want one wrapping ErrBadCollection", tc.name, err)
		}
	}
}

// FuzzPackVecs feeds arbitrary bytes to the vector-record decoder, and
// what it accepts to the stored round's restore: bad input must be
// refused with an error wrapping collection.ErrBadCollection, never a
// panic, and the decoder must allocate no more entries than the record
// has bytes. The seeds are vecsCases.
func FuzzPackVecs(f *testing.F) {
	for _, tc := range vecsCases() {
		f.Add(tc.raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := restoreVecs(raw); err != nil && !errors.Is(err, collection.ErrBadCollection) {
			t.Fatalf("error %v does not wrap ErrBadCollection", err)
		}
	})
}

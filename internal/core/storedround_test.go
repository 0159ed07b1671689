package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/collection"
	"repro/internal/tokenize"
)

// seqWAL numbers mutations and makes nothing durable: enough of a WAL
// for a compaction round to checkpoint.
type seqWAL struct{ seq atomic.Uint64 }

func (w *seqWAL) AppendInsert(string) uint64 { return w.seq.Add(1) }
func (w *seqWAL) AppendDelete(uint32) uint64 { return w.seq.Add(1) }
func (w *seqWAL) WaitDurable(uint64) error   { return nil }
func (w *seqWAL) Seq() uint64                { return w.seq.Load() }

// captureSink keeps the last checkpoint state handed to it.
type captureSink struct{ st *CheckpointState }

func (c *captureSink) Checkpoint(st *CheckpointState) error { c.st = st; return nil }

// checkpointRound reassembles the round a checkpoint state carries: its
// dictionary, and its shards' live vectors merged into id order.
func checkpointRound(st *CheckpointState) *StoredRound {
	byID := map[collection.SetID][]tokenize.Count{}
	for _, docs := range st.Live {
		for _, d := range docs {
			byID[d.ID] = d.Vec
		}
	}
	sr := &StoredRound{Dict: st.Dict, Off: []int{0}}
	for id := 0; id < st.NextID; id++ {
		if vec, ok := byID[collection.SetID(id)]; ok {
			sr.Vecs = append(sr.Vecs, vec...)
			sr.Off = append(sr.Off, len(sr.Vecs))
		}
	}
	return sr
}

// TestStoredRoundMatchesAddAll: the round a checkpoint hands its sink is
// the round TokenizeRound builds over the live documents in id order,
// and the round storedRound rebuilds from it — tokenizing nothing — is
// the one addAll builds: the same dictionary strings in id order, df,
// vectors, offsets and documents. The engines restored from the stored
// round and by tokenizing the log then answer bitwise alike. Seeded
// histories with deletes, at 1 and 4 shards, rounds on four workers.
func TestStoredRoundMatchesAddAll(t *testing.T) {
	withWorkers(4, func() {
		for seed := int64(1); seed <= 4; seed++ {
			for _, shards := range []int{1, 4} {
				label := fmt.Sprintf("seed %d, %d shards", seed, shards)
				cfg := LiveConfig{NoBackground: true, Shards: shards, CheckpointEvery: -1}
				testStoredRound(t, label, cfg, seed)
			}
		}
	})
}

func testStoredRound(t *testing.T, label string, cfg LiveConfig, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	strs := randomDocs(60+rng.Intn(200), 300+seed, 5)
	le := NewLive(liveTestTK, cfg)
	defer le.Close()
	sink := &captureSink{}
	le.SetDurable(&seqWAL{}, sink, 0)
	for _, s := range strs {
		id, err := le.Insert(s)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(4) == 0 {
			le.Delete(id)
		}
	}
	if err := le.CheckpointNow(); err != nil || sink.st == nil {
		t.Fatalf("%s: checkpoint: %v", label, err)
	}
	log := le.Log()
	_, _, refs := restoreLog(log)
	var sources []string
	for _, ref := range refs {
		sources = append(sources, ref.source)
	}
	sr, err := TokenizeRound(liveTestTK, sources)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(checkpointRound(sink.st), sr) {
		t.Fatalf("%s: the checkpoint's round differs from TokenizeRound's", label)
	}

	tok := newSegmentRound(liveTestTK, 4)
	if err := tok.addLive(append([]docRef(nil), refs...)); err != nil {
		t.Fatal(err)
	}
	stored, err := storedRound(liveTestTK, 4, append([]docRef(nil), refs...), sr)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"dictionary", stored.dictStrings(), tok.dictStrings()},
		{"df", stored.df, tok.df},
		{"vectors", stored.vecs, tok.vecs},
		{"offsets", stored.off, tok.off},
		{"documents", stored.docs, tok.docs},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s: stored round's %s differ from addAll's", label, c.what)
		}
	}

	fromStored, err := RestoreLiveRound(log, sr, liveTestTK, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fromStored.Close()
	tokenized, err := RestoreLive(log, liveTestTK, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tokenized.Close()
	queries := append([]string{"", "zzzzzzz", strs[0] + "x"}, strs[1:8]...)
	requireSameLiveEngine(t, label, fromStored, tokenized, queries)
	var gq, wq []LiveQuery
	for _, s := range queries {
		gq, wq = append(gq, fromStored.Prepare(s)), append(wq, tokenized.Prepare(s))
	}
	gb, wb := fromStored.SelectBatch(gq, 0.5, SF, nil, 2), tokenized.SelectBatch(wq, 0.5, SF, nil, 2)
	for i := range wb {
		if !errors.Is(gb[i].Err, wb[i].Err) {
			t.Fatalf("%s batch %d: error %v, want %v", label, i, gb[i].Err, wb[i].Err)
		}
		assertBitwise(t, fmt.Sprintf("%s batch %d", label, i), gb[i].Results, wb[i].Results)
	}
}

// TestRestoreLiveRoundRefusals: a stored round no checkpoint can write
// is refused with an error wrapping collection.ErrBadCollection, never a
// panic; an empty log restores from the empty round.
func TestRestoreLiveRoundRefusals(t *testing.T) {
	cfg := LiveConfig{NoBackground: true}
	le, err := RestoreLiveRound(nil, &StoredRound{Off: []int{0}}, liveTestTK, cfg)
	if err != nil {
		t.Fatalf("empty log: %v", err)
	}
	le.Close()

	log := []DocState{{Source: "ab"}, {Source: "x", Deleted: true}, {Source: "bc"}}
	c := func(t tokenize.Token, tf uint32) tokenize.Count { return tokenize.Count{Token: t, TF: tf} }
	dict := []string{"a", "b", "c"}
	for _, tc := range []struct {
		name string
		sr   StoredRound
	}{
		{"too few offsets", StoredRound{Dict: dict, Vecs: []tokenize.Count{c(0, 1), c(1, 1), c(2, 1)}, Off: []int{0, 3}}},
		{"offsets past the vectors", StoredRound{Dict: dict, Vecs: []tokenize.Count{c(0, 1), c(1, 1), c(2, 1)}, Off: []int{0, 9, 3}}},
		{"offsets short of the vectors", StoredRound{Dict: dict, Vecs: []tokenize.Count{c(0, 1), c(1, 1), c(2, 1)}, Off: []int{0, 2, 2}}},
		{"empty vector", StoredRound{Dict: dict, Vecs: []tokenize.Count{c(0, 1), c(1, 1), c(2, 1)}, Off: []int{0, 0, 3}}},
		{"repeated dictionary string", StoredRound{Dict: []string{"a", "b", "a"}, Vecs: []tokenize.Count{c(0, 1), c(1, 1), c(1, 1), c(2, 1)}, Off: []int{0, 2, 4}}},
		{"token past the dictionary", StoredRound{Dict: dict, Vecs: []tokenize.Count{c(0, 1), c(1, 1), c(1, 1), c(3, 1)}, Off: []int{0, 2, 4}}},
		{"zero tf", StoredRound{Dict: dict, Vecs: []tokenize.Count{c(0, 1), c(1, 0), c(1, 1), c(2, 1)}, Off: []int{0, 2, 4}}},
		{"tokens not ascending", StoredRound{Dict: dict, Vecs: []tokenize.Count{c(1, 1), c(0, 1), c(1, 1), c(2, 1)}, Off: []int{0, 2, 4}}},
		{"not first-appearance order", StoredRound{Dict: dict, Vecs: []tokenize.Count{c(0, 1), c(2, 1), c(1, 1), c(2, 1)}, Off: []int{0, 2, 4}}},
		{"unused dictionary id", StoredRound{Dict: []string{"a", "b", "c", "d"}, Vecs: []tokenize.Count{c(0, 1), c(1, 1), c(1, 1), c(2, 1)}, Off: []int{0, 2, 4}}},
	} {
		le, err := RestoreLiveRound(log, &tc.sr, liveTestTK, cfg)
		if !errors.Is(err, collection.ErrBadCollection) {
			t.Errorf("%s: error %v, want one wrapping ErrBadCollection", tc.name, err)
		}
		if err == nil {
			le.Close()
		}
	}
}

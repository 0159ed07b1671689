package setsim

import (
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/route"
)

// countingTokenizer counts Tokens calls. OpenLive takes its tokenizer
// from the snapshot, so the wrapper goes in between load and replay.
type countingTokenizer struct {
	Tokenizer
	calls *atomic.Int64
}

func (c countingTokenizer) Tokens(dst []string, s string) []string {
	c.calls.Add(1)
	return c.Tokenizer.Tokens(dst, s)
}

// TestOpenLiveTokenizesEachLiveDocumentOnce: recovering a checkpointed
// store tokenizes no document — its packages hold the round — and builds
// in one round.
func TestOpenLiveTokenizesEachLiveDocumentOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.sssnap")
	cfg := LiveConfig{NoBackground: true, Shards: 3}
	le := NewLive(QGramTokenizer{Q: 3}, cfg)
	for i, s := range []string{"main street", "market square", "river bank", "high street", "station road", "mill lane", "church walk"} {
		id, err := le.Insert(s)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 1 {
			le.Delete(id)
		}
	}
	if err := SaveLive(path, le); err != nil {
		t.Fatal(err)
	}
	le.Close()

	s, err := loadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	s.tk = countingTokenizer{Tokenizer: s.tk, calls: &calls}
	re, err := s.replay(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.Compactions != 1 || st.Memtable != 0 {
		t.Errorf("recovered store: %+v, want one round and no memtable", st)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("%d Tokens calls recovering a store whose packages hold the round", n)
	}
}

// TestOpenRejectsTokenlessCheckpointedDocument: a live checkpointed
// document that yields no tokens cannot have been inserted; its stored
// vector is empty, which no round can hold, and the open fails with
// collection.ErrBadCollection, wrapped, from both openers.
func TestOpenRejectsTokenlessCheckpointedDocument(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.sssnap")
	tk := QGramTokenizer{Q: 3}
	sr, err := core.TokenizeRound(tk, []string{"main street"})
	if err != nil {
		t.Fatal(err)
	}
	st := &core.CheckpointState{
		NextID: 2, LiveN: 2,
		Live:      [][]core.DocRef{{{ID: 0, Source: "main street", Vec: sr.Vecs}, {ID: 1, Source: ""}}},
		Summaries: make([]*route.Summary, 1),
		Dict:      sr.Dict,
	}
	if _, err := writeGeneration(path, tk.Name(), 1, st); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenLive(path, LiveConfig{NoBackground: true}); !errors.Is(err, collection.ErrBadCollection) {
		t.Errorf("OpenLive: error %v, want one wrapping ErrBadCollection", err)
	}
	if _, _, err := OpenDurable(path, LiveConfig{NoBackground: true}, DurableOptions{Sync: SyncOff}); !errors.Is(err, collection.ErrBadCollection) {
		t.Errorf("OpenDurable: error %v, want one wrapping ErrBadCollection", err)
	}
}

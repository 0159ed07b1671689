package setsim_test

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/setsim"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.sscol")
	orig := setsim.Build(corpus, setsim.QGramTokenizer{Q: 3}, setsim.Config{})
	if err := setsim.Save(path, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := setsim.Load(path, setsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q1 := orig.Prepare("maine stret")
	q2 := loaded.Prepare("maine stret")
	want, _, err := orig.Select(q1, 0.5, setsim.SF, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := loaded.Select(q2, 0.5, setsim.SF, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("loaded engine: %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > 1e-12 {
			t.Fatalf("result %d mismatch after reload", i)
		}
		if loaded.Collection().Source(got[i].ID) != orig.Collection().Source(want[i].ID) {
			t.Fatalf("source %d mismatch after reload", i)
		}
	}
}

// TestSaveRefusesSourcelessEngine: a store holds every document's
// source, so an engine whose collection keeps none cannot be saved, and
// the refused Save writes no file.
func TestSaveRefusesSourcelessEngine(t *testing.T) {
	b := setsim.NewBuilder(setsim.QGramTokenizer{Q: 3}, false)
	for _, s := range corpus {
		b.Add(s)
	}
	path := filepath.Join(t.TempDir(), "corpus.sssnap")
	if err := setsim.Save(path, setsim.NewEngine(b.Build(), setsim.Config{})); err == nil {
		t.Fatal("Save stored an engine whose collection keeps no sources")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("refused Save left %s behind: %v", path, err)
	}
}

func TestLoadWithLists(t *testing.T) {
	dir := t.TempDir()
	colPath := filepath.Join(dir, "corpus.sscol")
	listPath := filepath.Join(dir, "corpus.ssidx")
	orig := setsim.Build(corpus, setsim.QGramTokenizer{Q: 3}, setsim.Config{})
	if err := setsim.Save(colPath, orig); err != nil {
		t.Fatal(err)
	}
	if err := setsim.SaveLists(listPath, orig); err != nil {
		t.Fatal(err)
	}
	disk, err := setsim.LoadWithLists(colPath, listPath, setsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := disk.Prepare("main street")
	// Run every list-based algorithm against the on-disk lists and check
	// against the in-memory oracle.
	want, _, err := orig.Select(orig.Prepare("main street"), 0.6, setsim.Naive, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []setsim.Algorithm{setsim.SortByID, setsim.NRA, setsim.INRA, setsim.SF, setsim.Hybrid} {
		got, _, err := disk.Select(q, 0.6, alg, nil)
		if err != nil {
			t.Fatalf("%v on disk lists: %v", alg, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v on disk lists: %d results, want %d", alg, len(got), len(want))
		}
	}
}

// TestLoadWithListsMismatchedPair: a list file built from one corpus must
// not be served beside the collection of another — the postings would be
// scored against the wrong lengths and ids. Both directions are refused,
// including a pair with equal set counts, and the error names both files.
func TestLoadWithListsMismatchedPair(t *testing.T) {
	dir := t.TempDir()
	save := func(name string, lines []string) (col, lists string) {
		col, lists = filepath.Join(dir, name+".sscol"), filepath.Join(dir, name+".ssidx")
		e := setsim.Build(lines, setsim.QGramTokenizer{Q: 3}, setsim.Config{})
		if err := setsim.Save(col, e); err != nil {
			t.Fatal(err)
		}
		if err := setsim.SaveLists(lists, e); err != nil {
			t.Fatal(err)
		}
		return col, lists
	}
	colA, listsA := save("a", corpus)
	colB, listsB := save("b", []string{"alpha beta", "alpha gamma", "beta gamma delta"})
	colC, listsC := save("c", []string{"alpha beta", "alpha gamma", "beta gamma"})
	for _, pair := range [][2]string{{colA, listsB}, {colB, listsA}, {colB, listsC}, {colC, listsB}} {
		_, err := setsim.LoadWithLists(pair[0], pair[1], setsim.Config{})
		if err == nil {
			t.Errorf("LoadWithLists(%s, %s) served a mismatched pair", filepath.Base(pair[0]), filepath.Base(pair[1]))
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, pair[0]) || !strings.Contains(msg, pair[1]) {
			t.Errorf("mismatch error %q does not name both files", msg)
		}
	}
	if e, err := setsim.LoadWithLists(colB, listsB, setsim.Config{}); err != nil {
		t.Errorf("matching pair refused: %v", err)
	} else {
		e.Store().Close()
	}
}

// TestUnknownSnapshotVersion: a snapshot with the right magic but a
// version byte this build has no reader for — the retired versions 2–4
// as much as a future one — must be rejected with ErrUnknownVersion by
// every loader and by Verify, never misparsed.
func TestUnknownSnapshotVersion(t *testing.T) {
	for _, version := range []byte{2, 3, 4, 9} {
		path := filepath.Join(t.TempDir(), "other.sssnap")
		data := append([]byte("SSSNAP\n\x00"), version)
		data = append(data, make([]byte, 16)...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, ld := range snapshotLoaders {
			if err := ld.open(path); !errors.Is(err, setsim.ErrUnknownVersion) {
				t.Errorf("version %d: %s: %v, want ErrUnknownVersion", version, ld.name, err)
			}
		}
	}
}

// TestShardedSnapshotRoundTrip: SaveLive records the shard count,
// OpenSharded restores it by default, and the restored sharded engine
// answers bitwise-identically to a monolithic engine over the same
// snapshot.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	live := setsim.NewLive(setsim.QGramTokenizer{Q: 3}, setsim.LiveConfig{
		NoBackground: true, Shards: 4,
	})
	defer live.Close()
	var ids []setsim.SetID
	for _, s := range corpus {
		id, err := live.Insert(s)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	live.Delete(ids[1])
	path := filepath.Join(t.TempDir(), "sharded.sssnap")
	if err := setsim.SaveLive(path, live); err != nil {
		t.Fatal(err)
	}

	se, info, err := setsim.OpenSharded(path, setsim.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if info.Version != 5 || info.Shards != 4 || se.NumShards() != 4 {
		t.Fatalf("info %+v, engine shards %d; want version 5 with 4 shards restored", info, se.NumShards())
	}
	if len(info.RouteCounts) != 4 || len(info.Summaries) != 4 {
		t.Fatalf("info %+v; want routing table and summaries for 4 shards", info)
	}
	routed := 0
	for _, n := range info.RouteCounts {
		routed += n
	}
	if routed != info.Live {
		t.Fatalf("route counts %v sum to %d, want %d live docs", info.RouteCounts, routed, info.Live)
	}
	// The persisted routing table must come back verbatim: re-clustering
	// the saved live documents reproduces the saved partition.
	var wantRoute []int32
	for i, sh := range live.Routing() {
		if _, ok := live.Source(setsim.SetID(i)); ok {
			wantRoute = append(wantRoute, sh)
		}
	}
	gotRoute := se.Routing()
	if len(gotRoute) != len(wantRoute) {
		t.Fatalf("restored routing has %d entries, want %d", len(gotRoute), len(wantRoute))
	}
	for i := range gotRoute {
		if gotRoute[i] != wantRoute[i] {
			t.Fatalf("restored route[%d] = %d, want %d", i, gotRoute[i], wantRoute[i])
		}
	}
	mono, _, err := setsim.Open(path, setsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range []float64{0.3, 0.6, 0.9} {
		want, _, err := mono.Select(mono.Prepare("main street"), tau, setsim.SF, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := se.Select(se.Prepare("main street"), tau, setsim.SF, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("tau=%v: %d sharded results, want %d", tau, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID ||
				math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("tau=%v result %d: {%d %.17g}, want {%d %.17g}",
					tau, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
			}
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := setsim.Load(filepath.Join(t.TempDir(), "missing"), setsim.Config{}); err == nil {
		t.Error("Load of missing file succeeded")
	}
	// A lists file is not a collection file.
	dir := t.TempDir()
	colPath := filepath.Join(dir, "c")
	listPath := filepath.Join(dir, "l")
	e := setsim.Build(corpus, setsim.QGramTokenizer{Q: 3}, setsim.Config{})
	if err := setsim.Save(colPath, e); err != nil {
		t.Fatal(err)
	}
	if err := setsim.SaveLists(listPath, e); err != nil {
		t.Fatal(err)
	}
	if _, err := setsim.Load(listPath, setsim.Config{}); err == nil {
		t.Error("Load of a lists file succeeded")
	}
	if _, err := setsim.LoadWithLists(listPath, colPath, setsim.Config{}); err == nil {
		t.Error("LoadWithLists with swapped files succeeded")
	}
}

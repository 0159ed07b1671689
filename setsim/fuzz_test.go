package setsim_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/setsim"
)

// FuzzPersistRoundTrip opens an arbitrary manifest file with every
// loader, then builds a small corpus from arbitrary strings,
// saves it, loads it back, and demands the rebuilt engine is observably
// identical: same corpus shape, same retained sources, and bitwise-equal
// answers to a selection query. Save/Load must also never panic on any
// input, including empty and non-UTF-8 strings.
func FuzzPersistRoundTrip(f *testing.F) {
	f.Add("main street", "mian street", "main st", "main stret", []byte(nil))
	f.Add("", "a", "b", "ab", []byte(nil))
	f.Add("αβγδ", "αβγε", "xyz", "αβγ", []byte(nil))
	f.Add("\x00\xff", "\xfe\xfd", "ok", "\x00", []byte(nil))
	f.Add("repeat repeat repeat", "repeat", "unique tokens here", "repeat tokens", []byte(nil))
	for _, m := range hostileManifests() {
		f.Add("a", "b", "c", "a", m)
	}
	f.Fuzz(func(t *testing.T, a, b, c, query string, manifest []byte) {
		// Every loader refuses or opens an arbitrary manifest file, never
		// panics.
		mpath := filepath.Join(t.TempDir(), "fuzzed.sssnap")
		if err := os.WriteFile(mpath, manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, ld := range snapshotLoaders {
			ld.open(mpath)
		}

		corpus := []string{a, b, c}
		orig := setsim.Build(corpus, setsim.QGramTokenizer{Q: 2, Pad: true}, setsim.Config{})

		path := filepath.Join(t.TempDir(), "saved.sssnap")
		if err := setsim.Save(path, orig); err != nil {
			t.Fatalf("save: %v", err)
		}
		loaded, err := setsim.Load(path, setsim.Config{})
		if err != nil {
			t.Fatalf("load: %v", err)
		}

		oc, lc := orig.Collection(), loaded.Collection()
		if oc.NumSets() != lc.NumSets() {
			t.Fatalf("NumSets: %d after round trip, want %d", lc.NumSets(), oc.NumSets())
		}
		for id := 0; id < oc.NumSets(); id++ {
			sid := setsim.SetID(id)
			if oc.Source(sid) != lc.Source(sid) {
				t.Fatalf("source %d: %q after round trip, want %q", id, lc.Source(sid), oc.Source(sid))
			}
		}

		// The rebuilt indexes must answer queries identically; errors
		// (e.g. ErrEmptyQuery for token-free input) must agree too.
		r1, _, err1 := orig.Select(orig.Prepare(query), 0.5, setsim.SF, nil)
		r2, _, err2 := loaded.Select(loaded.Prepare(query), 0.5, setsim.SF, nil)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("query errors diverge after round trip: %v vs %v", err1, err2)
		}
		if len(r1) != len(r2) {
			t.Fatalf("%d results after round trip, want %d", len(r2), len(r1))
		}
		for i := range r1 {
			if r1[i].ID != r2[i].ID || r1[i].Score != r2[i].Score {
				t.Fatalf("result %d diverges after round trip: {%d %.17g} vs {%d %.17g}",
					i, r2[i].ID, r2[i].Score, r1[i].ID, r1[i].Score)
			}
		}

		// Live-snapshot round trip (version 5 manifest + segpacks): the
		// same corpus through a live engine and the snapshot format, with
		// one deletion so tombstones are persisted. The reloaded engine
		// must preserve ids and hide the deleted document.
		live := setsim.NewLive(setsim.QGramTokenizer{Q: 2, Pad: true}, setsim.LiveConfig{
			NoBackground: true,
		})
		defer live.Close()
		var ids []setsim.SetID
		for _, s := range corpus {
			if id, err := live.Insert(s); err == nil {
				ids = append(ids, id)
			}
		}
		if len(ids) > 1 {
			live.Delete(ids[0])
		}
		lpath := filepath.Join(t.TempDir(), "corpus.sssnap")
		if err := setsim.SaveLive(lpath, live); err != nil {
			t.Fatalf("save live: %v", err)
		}
		reloaded, info, err := setsim.OpenLive(lpath, setsim.LiveConfig{
			NoBackground: true,
		})
		if err != nil {
			t.Fatalf("open live: %v", err)
		}
		defer reloaded.Close()
		if info.Version != 5 || info.Docs != live.NumDocs() || info.Live != live.NumLive() {
			t.Fatalf("snapshot info %+v, want version 5, %d docs, %d live",
				info, live.NumDocs(), live.NumLive())
		}
		for _, id := range ids {
			s1, ok1 := live.Source(id)
			s2, ok2 := reloaded.Source(id)
			if ok1 != ok2 || s1 != s2 {
				t.Fatalf("doc %d diverges after live round trip: (%q,%v) vs (%q,%v)",
					id, s2, ok2, s1, ok1)
			}
		}
		l1, _, err1 := live.Select(live.Prepare(query), 0.5, setsim.SF, nil)
		l2, _, err2 := reloaded.Select(reloaded.Prepare(query), 0.5, setsim.SF, nil)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("live query errors diverge after round trip: %v vs %v", err1, err2)
		}
		if len(l1) != len(l2) {
			t.Fatalf("%d live results after round trip, want %d", len(l2), len(l1))
		}
		for i := range l1 {
			if l1[i].ID != l2[i].ID || l1[i].Score != l2[i].Score {
				t.Fatalf("live result %d diverges after round trip: {%d %.17g} vs {%d %.17g}",
					i, l2[i].ID, l2[i].Score, l1[i].ID, l1[i].Score)
			}
		}

		// The saved store must load as a live engine too, and Open must
		// accept the live snapshot as a static engine.
		if fromSaved, info, err := setsim.OpenLive(path, setsim.LiveConfig{
			NoBackground: true,
		}); err != nil {
			t.Fatalf("open live from saved store: %v", err)
		} else {
			if info.Version != 5 || info.Live != oc.NumSets() {
				t.Fatalf("saved store info %+v, want version 5 with %d live", info, oc.NumSets())
			}
			fromSaved.Close()
		}
		if _, info, err := setsim.Open(lpath, setsim.Config{}); err != nil || info.Version != 5 {
			t.Fatalf("static open of v5 snapshot: info %+v err %v", info, err)
		}

		// Durable round trip: the same script journaled into a WAL with
		// no checkpoint, recovered by replaying the log, then upgraded to
		// a checkpointed v5 store. The reference engine applies the same
		// mutations through the ordinary in-memory path (OpenDurable's
		// fresh-store tokenizer, not the q=2 one above).
		dcfg := setsim.LiveConfig{NoBackground: true, CheckpointEvery: -1}
		dpath := filepath.Join(t.TempDir(), "corpus.sssnap")
		de, _, err := setsim.OpenDurable(dpath, dcfg, setsim.DurableOptions{Sync: setsim.SyncOff})
		if err != nil {
			t.Fatalf("open durable: %v", err)
		}
		ref := setsim.NewLive(setsim.QGramTokenizer{Q: 3}, dcfg)
		defer ref.Close()
		records := 0
		var did []setsim.SetID
		for _, s := range corpus {
			idD, errD := de.Insert(s)
			idR, errR := ref.Insert(s)
			if (errD == nil) != (errR == nil) || idD != idR {
				t.Fatalf("durable insert %q: (%d,%v) vs reference (%d,%v)", s, idD, errD, idR, errR)
			}
			if errD == nil {
				did = append(did, idD)
				records++
			}
		}
		if len(did) > 1 {
			if !de.Delete(did[0]) || !ref.Delete(did[0]) {
				t.Fatalf("durable delete %d did not apply", did[0])
			}
			records++
		}
		de.Close()

		re, dinfo, err := setsim.OpenDurable(dpath, dcfg, setsim.DurableOptions{Sync: setsim.SyncOff})
		if err != nil {
			t.Fatalf("durable recovery: %v", err)
		}
		if dinfo.WALTail != records || re.NumDocs() != ref.NumDocs() || re.NumLive() != ref.NumLive() {
			t.Fatalf("durable recovery: info %+v, %d docs %d live; want %d records, %d docs, %d live",
				dinfo, re.NumDocs(), re.NumLive(), records, ref.NumDocs(), ref.NumLive())
		}
		d1, _, derr1 := ref.Select(ref.Prepare(query), 0.5, setsim.SF, nil)
		d2, _, derr2 := re.Select(re.Prepare(query), 0.5, setsim.SF, nil)
		if (derr1 == nil) != (derr2 == nil) || len(d1) != len(d2) {
			t.Fatalf("durable recovery queries diverge: (%d,%v) vs (%d,%v)", len(d2), derr2, len(d1), derr1)
		}
		for i := range d1 {
			if d1[i].ID != d2[i].ID || d1[i].Score != d2[i].Score {
				t.Fatalf("durable result %d diverges: {%d %.17g} vs {%d %.17g}",
					i, d2[i].ID, d2[i].Score, d1[i].ID, d1[i].Score)
			}
		}
		// Checkpoint upgrades the store to a manifest + packages with an
		// empty WAL tail; the static loader must agree on what survived.
		if records > 0 {
			if err := re.CheckpointNow(); err != nil {
				re.Close()
				t.Fatalf("checkpoint: %v", err)
			}
			re.Close()
			if _, cinfo, err := setsim.Open(dpath, setsim.Config{}); err != nil ||
				cinfo.Version != 5 || cinfo.WALTail != 0 || cinfo.Live != ref.NumLive() {
				t.Fatalf("post-checkpoint open: info %+v err %v, want v5 with empty tail and %d live",
					cinfo, err, ref.NumLive())
			}
		} else {
			re.Close()
		}
	})
}

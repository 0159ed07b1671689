package setsim_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/setsim"
)

// The WAL file layout the kill-point suite cuts against (mirrors
// internal/wal): a 16-byte header (7-byte magic, version byte, firstSeq
// u64) followed by frames of 9 bytes (payloadLen u32, crc u32, op u8)
// plus the payload. Insert payloads are the source bytes; delete
// payloads are the uvarint id. The suite asserts its arithmetic against
// the actual file size, so a format change fails loudly here.
const (
	walHeaderSize = 16
	walFrameHead  = 9
)

// walRec is one expected WAL record: an insert of src or a delete of id.
type walRec struct {
	del bool
	id  uint32
	src string
}

func (r walRec) frameLen() int {
	if !r.del {
		return walFrameHead + len(r.src)
	}
	var buf [10]byte
	return walFrameHead + binary.PutUvarint(buf[:], uint64(r.id))
}

// mutOp is one scripted mutation against the durable engine.
type mutOp struct {
	kind byte // 'i' insert, 'd' delete, 'u' upsert
	id   setsim.SetID
	src  string
}

// walRecs expands a script into the WAL records the engine journals:
// inserts and applied deletes are one record, an upsert of a live id is
// a delete followed by an insert.
func walRecs(ops []mutOp) []walRec {
	var recs []walRec
	for _, op := range ops {
		switch op.kind {
		case 'i':
			recs = append(recs, walRec{src: op.src})
		case 'd':
			recs = append(recs, walRec{del: true, id: uint32(op.id)})
		case 'u':
			recs = append(recs, walRec{del: true, id: uint32(op.id)}, walRec{src: op.src})
		}
	}
	return recs
}

// applyOps drives a script through the engine's public mutation API.
func applyOps(t *testing.T, le *setsim.LiveEngine, ops []mutOp) {
	t.Helper()
	for _, op := range ops {
		switch op.kind {
		case 'i':
			if _, err := le.Insert(op.src); err != nil {
				t.Fatalf("insert %q: %v", op.src, err)
			}
		case 'd':
			if !le.Delete(op.id) {
				t.Fatalf("delete %d did not apply", op.id)
			}
		case 'u':
			if _, err := le.Upsert(op.id, op.src); err != nil {
				t.Fatalf("upsert %d %q: %v", op.id, op.src, err)
			}
		}
	}
}

// applyRecs replays raw WAL records — the recovery primitive — through
// the mutation API, building the reference engine for a cut.
func applyRecs(t *testing.T, le *setsim.LiveEngine, recs []walRec) {
	t.Helper()
	for _, r := range recs {
		if r.del {
			if !le.Delete(setsim.SetID(r.id)) {
				t.Fatalf("reference delete %d did not apply", r.id)
			}
		} else if _, err := le.Insert(r.src); err != nil {
			t.Fatalf("reference insert %q: %v", r.src, err)
		}
	}
}

// killPointQueries are the probes every recovered engine must answer
// bitwise-identically to its reference.
var killPointQueries = []string{"main street 12", "market square one", "river bank walk"}

// requireBitwiseEqual fails unless got answers every probe — full
// selection at two thresholds plus top-k — bitwise-identically to want,
// and exposes the same document log (ids, sources, liveness).
func requireBitwiseEqual(t *testing.T, label string, got, want *setsim.LiveEngine) {
	t.Helper()
	if got.NumDocs() != want.NumDocs() || got.NumLive() != want.NumLive() {
		t.Fatalf("%s: recovered %d docs (%d live), want %d (%d live)",
			label, got.NumDocs(), got.NumLive(), want.NumDocs(), want.NumLive())
	}
	for id := 0; id < want.NumDocs(); id++ {
		s1, ok1 := want.Source(setsim.SetID(id))
		s2, ok2 := got.Source(setsim.SetID(id))
		if ok1 != ok2 || s1 != s2 {
			t.Fatalf("%s: doc %d is (%q,%v) after recovery, want (%q,%v)", label, id, s2, ok2, s1, ok1)
		}
	}
	for _, q := range killPointQueries {
		for _, tau := range []float64{0.4, 0.7} {
			r1, _, err1 := want.Select(want.Prepare(q), tau, setsim.SF, nil)
			r2, _, err2 := got.Select(got.Prepare(q), tau, setsim.SF, nil)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s: %q tau=%v: errors diverge: %v vs %v", label, q, tau, err2, err1)
			}
			if len(r1) != len(r2) {
				t.Fatalf("%s: %q tau=%v: %d results, want %d", label, q, tau, len(r2), len(r1))
			}
			for i := range r1 {
				if r1[i].ID != r2[i].ID ||
					math.Float64bits(r1[i].Score) != math.Float64bits(r2[i].Score) {
					t.Fatalf("%s: %q tau=%v result %d: {%d %.17g}, want {%d %.17g}",
						label, q, tau, i, r2[i].ID, r2[i].Score, r1[i].ID, r1[i].Score)
				}
			}
		}
		k1, _, err1 := want.SelectTopK(want.Prepare(q), 3, setsim.SF, nil)
		k2, _, err2 := got.SelectTopK(got.Prepare(q), 3, setsim.SF, nil)
		if (err1 == nil) != (err2 == nil) || len(k1) != len(k2) {
			t.Fatalf("%s: %q topk diverges: (%d,%v) vs (%d,%v)", label, q, len(k2), err2, len(k1), err1)
		}
		for i := range k1 {
			if k1[i].ID != k2[i].ID ||
				math.Float64bits(k1[i].Score) != math.Float64bits(k2[i].Score) {
				t.Fatalf("%s: %q topk result %d: {%d %.17g}, want {%d %.17g}",
					label, q, i, k2[i].ID, k2[i].Score, k1[i].ID, k1[i].Score)
			}
		}
	}
}

// The kill-point script: phase A is checkpointed, phase B lives only in
// the WAL. Ids are assigned densely from 0 in insert order.
var (
	killPhaseA = []mutOp{
		{kind: 'i', src: "main street 12"},    // id 0
		{kind: 'i', src: "mian street 12"},    // id 1
		{kind: 'i', src: "main st twelve"},    // id 2
		{kind: 'i', src: "south main road"},   // id 3
		{kind: 'i', src: "north main avenue"}, // id 4
		{kind: 'i', src: "market square one"}, // id 5
		{kind: 'i', src: "market sq 1"},       // id 6
		{kind: 'i', src: "old market lane"},   // id 7
		{kind: 'd', id: 1},
		{kind: 'd', id: 4},
	}
	killPhaseB = []mutOp{
		{kind: 'i', src: "river bank walk"}, // id 8
		{kind: 'i', src: "main street 13"},  // id 9
		{kind: 'd', id: 2},
		{kind: 'u', id: 6, src: "market square two"}, // delete 6 + insert id 10
		{kind: 'i', src: "river bank way"},           // id 11
		{kind: 'd', id: 9},
	}
)

func killPointConfig(shards int) setsim.LiveConfig {
	return setsim.LiveConfig{
		NoBackground: true,
		Shards:       shards, CheckpointEvery: -1,
	}
}

// buildKillPointStore runs the script against a durable store (phase A,
// forced checkpoint, phase B) and returns the WAL bytes plus the
// record boundaries of its tail.
func buildKillPointStore(t *testing.T, path string) (walBytes []byte, bounds []int, tail []walRec) {
	t.Helper()
	le, _, err := setsim.OpenDurable(path, killPointConfig(2), setsim.DurableOptions{Sync: setsim.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, le, killPhaseA)
	if err := le.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	applyOps(t, le, killPhaseB)
	le.Close()

	walBytes, err = os.ReadFile(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	// The checkpoint truncated the log, so the file holds exactly the
	// phase-B records. Cross-check the frame arithmetic against the file.
	tail = walRecs(killPhaseB)
	bounds = []int{walHeaderSize}
	for _, r := range tail {
		bounds = append(bounds, bounds[len(bounds)-1]+r.frameLen())
	}
	if bounds[len(bounds)-1] != len(walBytes) {
		t.Fatalf("frame arithmetic says the WAL is %d bytes, file is %d", bounds[len(bounds)-1], len(walBytes))
	}
	return walBytes, bounds, tail
}

// copyStoreFiles copies the manifest and every segment package (but not
// the WAL) from src's directory into dst's.
func copyStoreFiles(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Dir(src))
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Base(src)
	for _, e := range entries {
		name := e.Name()
		if name != base && !strings.HasSuffix(name, ".sspk") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(filepath.Dir(src), name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(filepath.Dir(dst), name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableKillPoints is the crash-recovery acceptance suite: the WAL
// is truncated at every byte offset — every record boundary and every
// mid-record position — and the recovered engine must answer queries
// bitwise-identically to a reference engine that replayed the surviving
// prefix (checkpointed history, a compaction, then the intact tail
// records).
func TestDurableKillPoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.sssnap")
	walBytes, bounds, tail := buildKillPointStore(t, path)

	// One reference per possible surviving-tail length.
	refs := make([]*setsim.LiveEngine, len(tail)+1)
	for k := range refs {
		ref := setsim.NewLive(setsim.QGramTokenizer{Q: 3}, killPointConfig(2))
		defer ref.Close()
		applyOps(t, ref, killPhaseA)
		ref.Compact()
		applyRecs(t, ref, tail[:k])
		refs[k] = ref
	}

	wdir := t.TempDir()
	wpath := filepath.Join(wdir, "store.sssnap")
	copyStoreFiles(t, path, wpath)
	for cut := 0; cut <= len(walBytes); cut++ {
		if err := os.WriteFile(wpath+".wal", walBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		k := 0
		for k < len(tail) && bounds[k+1] <= cut {
			k++
		}
		le, info, err := setsim.OpenLive(wpath, killPointConfig(0))
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		if info.Version != 5 || info.WALTail != k {
			t.Fatalf("cut %d: info %+v, want version 5 with %d surviving tail records", cut, info, k)
		}
		wantTorn := cut != bounds[k] && cut != 0
		if info.WALTorn != wantTorn {
			t.Fatalf("cut %d: WALTorn=%v, want %v", cut, info.WALTorn, wantTorn)
		}
		requireBitwiseEqual(t, "cut "+strconv.Itoa(cut), le, refs[k])
		le.Close()
	}

	// A missing WAL is a store with an empty tail, not an error.
	if err := os.Remove(wpath + ".wal"); err != nil {
		t.Fatal(err)
	}
	le, info, err := setsim.OpenLive(wpath, killPointConfig(0))
	if err != nil {
		t.Fatalf("recovery without WAL: %v", err)
	}
	if info.WALTail != 0 || info.WALTorn {
		t.Fatalf("recovery without WAL: info %+v", info)
	}
	requireBitwiseEqual(t, "no wal", le, refs[0])
	le.Close()
}

// TestDurableKillPointsBeforeFirstCheckpoint cuts a store that never
// checkpointed: no manifest exists and the whole history lives in the
// WAL. OpenDurable must recover the surviving prefix into an empty
// engine.
func TestDurableKillPointsBeforeFirstCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.sssnap")
	le, _, err := setsim.OpenDurable(path, killPointConfig(1), setsim.DurableOptions{Sync: setsim.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, le, killPhaseA)
	le.Close()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("manifest exists without a checkpoint (stat err %v)", err)
	}
	walBytes, err := os.ReadFile(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecs(killPhaseA)
	bounds := []int{walHeaderSize}
	for _, r := range recs {
		bounds = append(bounds, bounds[len(bounds)-1]+r.frameLen())
	}
	if bounds[len(bounds)-1] != len(walBytes) {
		t.Fatalf("frame arithmetic says the WAL is %d bytes, file is %d", bounds[len(bounds)-1], len(walBytes))
	}

	wdir := t.TempDir()
	wpath := filepath.Join(wdir, "store.sssnap")
	for cut := 0; cut <= len(walBytes); cut++ {
		if err := os.WriteFile(wpath+".wal", walBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		k := 0
		for k < len(recs) && bounds[k+1] <= cut {
			k++
		}
		ref := setsim.NewLive(setsim.QGramTokenizer{Q: 3}, killPointConfig(1))
		applyRecs(t, ref, recs[:k])
		re, info, err := setsim.OpenDurable(wpath, killPointConfig(1), setsim.DurableOptions{Sync: setsim.SyncOff})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		if info.WALTail != k {
			t.Fatalf("cut %d: info %+v, want %d surviving records", cut, info, k)
		}
		requireBitwiseEqual(t, "pre-checkpoint cut "+strconv.Itoa(cut), re, ref)
		re.Close()
		ref.Close()
	}
}

// TestDurableReopenAtBoundaries reopens the cut store through the full
// durable path at every record boundary: recovery must repair the torn
// tail, accept new mutations, and persist them across another reopen —
// with and without an intervening checkpoint.
func TestDurableReopenAtBoundaries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.sssnap")
	walBytes, bounds, tail := buildKillPointStore(t, path)

	for k := 0; k <= len(tail); k++ {
		// Also land one byte inside the next record where there is one,
		// so the durable reopen exercises in-place torn-tail truncation.
		cuts := []int{bounds[k]}
		if k < len(tail) {
			cuts = append(cuts, bounds[k]+walFrameHead/2)
		}
		for _, cut := range cuts {
			wdir := t.TempDir()
			wpath := filepath.Join(wdir, "store.sssnap")
			copyStoreFiles(t, path, wpath)
			if err := os.WriteFile(wpath+".wal", walBytes[:cut], 0o644); err != nil {
				t.Fatal(err)
			}

			ref := setsim.NewLive(setsim.QGramTokenizer{Q: 3}, killPointConfig(2))
			applyOps(t, ref, killPhaseA)
			ref.Compact()
			applyRecs(t, ref, tail[:k])

			de, _, err := setsim.OpenDurable(wpath, killPointConfig(0), setsim.DurableOptions{Sync: setsim.SyncAlways})
			if err != nil {
				t.Fatalf("cut %d: durable reopen failed: %v", cut, err)
			}
			requireBitwiseEqual(t, "durable cut "+strconv.Itoa(cut), de, ref)

			const extra = "brand new doc after recovery"
			id, err := de.Insert(extra)
			if err != nil {
				t.Fatalf("cut %d: insert after recovery: %v", cut, err)
			}
			if k%2 == 0 {
				if err := de.CheckpointNow(); err != nil {
					t.Fatalf("cut %d: checkpoint after recovery: %v", cut, err)
				}
			}
			de.Close()

			re, _, err := setsim.OpenLive(wpath, killPointConfig(0))
			if err != nil {
				t.Fatalf("cut %d: reopen after append: %v", cut, err)
			}
			if s, ok := re.Source(id); !ok || s != extra {
				t.Fatalf("cut %d: post-recovery insert lost: (%q,%v)", cut, s, ok)
			}
			if re.NumLive() != ref.NumLive()+1 {
				t.Fatalf("cut %d: %d live after append, want %d", cut, re.NumLive(), ref.NumLive()+1)
			}
			re.Close()
			ref.Close()
		}
	}
}

// TestDurableVerify checks the integrity checker over a healthy store,
// a store with a torn WAL, and a store with a corrupted package block.
func TestDurableVerify(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.sssnap")
	walBytes, bounds, tail := buildKillPointStore(t, path)

	rep, err := setsim.Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.Version != 5 || rep.WALRecords != len(tail) || rep.WALTorn {
		t.Fatalf("healthy store: report %+v", rep)
	}
	if len(rep.Packs) == 0 {
		t.Fatal("healthy store: no packages in report")
	}
	for _, p := range rep.Packs {
		if p.Err != nil || p.Blocks < 1 {
			t.Fatalf("healthy pack %s: blocks %d err %v", p.Ref.Name, p.Blocks, p.Err)
		}
	}

	// Torn WAL: fewer records, torn flag, still OK (recoverable).
	if err := os.WriteFile(path+".wal", walBytes[:bounds[2]+3], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = setsim.Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.WALRecords != 2 || !rep.WALTorn {
		t.Fatalf("torn store: report %+v", rep)
	}

	// Flip one payload byte in a package: its block checksum must fail
	// and the report must say which package.
	pack := filepath.Join(filepath.Dir(path), rep.Packs[0].Ref.Name)
	data, err := os.ReadFile(pack)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(pack, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = setsim.Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatalf("corrupted store: report says OK: %+v", rep)
	}
	bad := 0
	for _, p := range rep.Packs {
		if p.Err != nil {
			bad++
		}
	}
	if bad != 1 {
		t.Fatalf("corrupted store: %d bad packages in report, want 1: %+v", bad, rep.Packs)
	}
}

// TestOneGenerationWriter: SaveLive and a durable engine's checkpoint
// persist a settled state through the same writer, so the same history
// saved both ways yields byte-identical segment packages and manifests
// that decode to the same SnapshotInfo, apart from the WAL horizon only
// the durable store has.
func TestOneGenerationWriter(t *testing.T) {
	history := append(append([]mutOp(nil), killPhaseA...), killPhaseB...)

	saved := filepath.Join(t.TempDir(), "store.sssnap")
	le := setsim.NewLive(setsim.QGramTokenizer{Q: 3}, killPointConfig(2))
	applyOps(t, le, history)
	if err := setsim.SaveLive(saved, le); err != nil {
		t.Fatal(err)
	}
	le.Close()

	ckpt := filepath.Join(t.TempDir(), "store.sssnap")
	de, _, err := setsim.OpenDurable(ckpt, killPointConfig(2), setsim.DurableOptions{Sync: setsim.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, de, history)
	if err := de.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	de.Close()

	_, want, err := setsim.Open(saved, setsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := setsim.Open(ckpt, setsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want.WALStart != 0 || got.WALStart != uint64(len(walRecs(history))) {
		t.Fatalf("WAL horizons %d (SaveLive) and %d (checkpoint), want 0 and %d",
			want.WALStart, got.WALStart, len(walRecs(history)))
	}
	got.WALStart = 0
	got.LoadTime, want.LoadTime = 0, 0 // wall-clock, not file content
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint manifest decodes to\n%+v\nSaveLive's to\n%+v", got, want)
	}
	if len(want.Segpacks) != 2 {
		t.Fatalf("SaveLive wrote %d packages, want one per shard: %+v", len(want.Segpacks), want.Segpacks)
	}
	for _, ref := range want.Segpacks {
		a, err := os.ReadFile(filepath.Join(filepath.Dir(saved), ref.Name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(filepath.Dir(ckpt), ref.Name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("package %s differs between SaveLive and checkpoint (%d vs %d bytes)", ref.Name, len(a), len(b))
		}
	}
}

// snapshotLoaders is every entry point that opens a snapshot file, as
// the error-contract tests drive them.
var snapshotLoaders = []struct {
	name string
	open func(string) error
}{
	{"Load", func(p string) error {
		_, err := setsim.Load(p, setsim.Config{})
		return err
	}},
	{"Open", func(p string) error {
		_, _, err := setsim.Open(p, setsim.Config{})
		return err
	}},
	{"OpenSharded", func(p string) error {
		_, _, err := setsim.OpenSharded(p, setsim.Config{}, 2)
		return err
	}},
	{"OpenLive", func(p string) error {
		_, _, err := setsim.OpenLive(p, setsim.LiveConfig{NoBackground: true})
		return err
	}},
	{"OpenDurable", func(p string) error {
		le, _, err := setsim.OpenDurable(p, setsim.LiveConfig{NoBackground: true}, setsim.DurableOptions{})
		if err == nil {
			le.Close()
		}
		return err
	}},
	{"Verify", func(p string) error {
		_, err := setsim.Verify(p)
		return err
	}},
}

// TestLoaderShortFiles: zero-length, magic-only and version-only
// prefixes of the snapshot format and of the retired version-1
// collection file must fail with a wrapped ErrBadCollection or
// ErrUnknownVersion from every loader — never a raw (or wrapped) io.EOF
// — and the retired versions 2–4 with ErrUnknownVersion specifically.
// The crafted rows carry a valid checksum over a payload whose length
// fields overflow int or dwarf the file: the version-1 ones must be
// rejected as ErrBadCollection, not panic in a slice bound or make, and
// the others before their payload is looked at. A complete,
// well-checksummed version-1 file and a version-5 manifest cut before
// its dictionary section are refused with ErrBadCollection: the one
// format holds both the documents' vectors and the dictionary they
// number.
func TestLoaderShortFiles(t *testing.T) {
	const (
		colMagic  = "SSCOL1\n\x00"
		snapMagic = "SSSNAP\n\x00"
	)
	// framed appends the payload's CRC32 and the payload to a header.
	framed := func(head string, payload []byte) []byte {
		return append(binary.LittleEndian.AppendUint32([]byte(head), crc32.ChecksumIEEE(payload)), payload...)
	}
	// A v1 payload up to its first set header: tokenizer "word", a
	// one-token dictionary, one set, no sources.
	v1Head := []byte("\x04word\x01\x00\x00\x00\x01a\x01\x00\x00\x00\x00")
	// An empty store's manifest payload up to its dictionary section:
	// tokenizer "word", one shard, generation 1, WAL start 0, no ids, no
	// dead documents, one zero summary, no packages.
	v5NoDict := append([]byte("\x04word\x01\x00\x00\x00\x01"), make([]byte, 7+8+4+4+4+32+4)...)
	cases := []struct {
		name string
		data []byte
		bad  bool // must be ErrBadCollection specifically
		unk  bool // must be ErrUnknownVersion specifically
	}{
		{name: "empty", data: nil},
		{name: "collection-magic-only", data: []byte(colMagic)},
		{name: "snapshot-magic-only", data: []byte(snapMagic)},
		{name: "v2-version-only", data: append([]byte(snapMagic), 2), unk: true},
		{name: "v3-version-only", data: append([]byte(snapMagic), 3), unk: true},
		{name: "v4-version-only", data: append([]byte(snapMagic), 4), unk: true},
		{name: "v5-version-only", data: append([]byte(snapMagic), 5)},
		{name: "v5-header-no-payload", data: append([]byte(snapMagic), 5, 0xde, 0xad, 0xbe, 0xef)},
		{name: "unknown-version-only", data: append([]byte(snapMagic), 9)},
		{name: "truncated-magic", data: []byte(snapMagic[:4])},
		{name: "crafted-v1-string-len-2^63", data: framed(colMagic, binary.AppendUvarint(nil, 1<<63)), bad: true},
		{name: "crafted-v3-string-len-2^63", data: framed(snapMagic+"\x03", binary.AppendUvarint(nil, 1<<63)), unk: true},
		{name: "crafted-v1-set-size-2^62", data: framed(colMagic, binary.AppendUvarint(v1Head, 1<<62)), bad: true},
		{name: "crafted-v1-set-count-2^32", data: framed(colMagic, []byte("\x04word\x00\x00\x00\x00\xff\xff\xff\xff\x00")), bad: true},
		{name: "crafted-v2-doc-count-2^32", data: framed(snapMagic+"\x02", []byte("\x04word\xff\xff\xff\xff")), unk: true},
		{name: "complete-v1", data: framed(colMagic, append(slices.Clip(v1Head), 1, 0, 1)), bad: true},
		{name: "v5-no-dictionary", data: framed(snapMagic+"\x05", v5NoDict), bad: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "short")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, ld := range snapshotLoaders {
				err := ld.open(path)
				if err == nil {
					t.Errorf("%s accepted a %d-byte file", ld.name, len(tc.data))
					continue
				}
				isBad, isUnk := errors.Is(err, collection.ErrBadCollection), errors.Is(err, setsim.ErrUnknownVersion)
				if !isBad && !isUnk || tc.bad && !isBad || tc.unk && !isUnk {
					t.Errorf("%s: %v, want ErrBadCollection or ErrUnknownVersion (bad %v, unk %v)", ld.name, err, tc.bad, tc.unk)
				}
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					t.Errorf("%s leaked a raw EOF: %v", ld.name, err)
				}
			}
		})
	}
}

// hostileManifests are two framed v5 manifests whose counts promise far
// more than their bytes hold: an id space of 2²² with no package and no
// dead document (90 bytes), and 2³² − 1 shard summaries.
func hostileManifests() map[string][]byte {
	payload := func(shards, nextID uint32) []byte {
		b := binary.AppendUvarint(nil, uint64(len("word")))
		b = append(b, "word"...)
		b = binary.LittleEndian.AppendUint32(b, shards)
		b = binary.LittleEndian.AppendUint64(b, 1) // generation
		b = binary.LittleEndian.AppendUint64(b, 0) // WAL start
		b = binary.LittleEndian.AppendUint32(b, nextID)
		b = binary.LittleEndian.AppendUint32(b, 0) // live count
		b = binary.LittleEndian.AppendUint32(b, 0) // dead count
		b = append(b, make([]byte, 32)...)         // one shard summary
		b = binary.LittleEndian.AppendUint32(b, 0) // no packages
		return binary.LittleEndian.AppendUint32(b, 0)
	}
	framed := func(payload []byte) []byte {
		head := append([]byte("SSSNAP\n\x00"), 5)
		return append(binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(payload)), payload...)
	}
	return map[string][]byte{
		"ids-2^22":      framed(payload(1, 1<<22)),
		"shards-2^32-1": framed(payload(1<<32-1, 0)),
	}
}

// TestHostileManifestCounts: a manifest's counts are bounded by what the
// store holds before anything is sized by them. Both hostile manifests
// are refused with ErrBadCollection by every loader, each having
// allocated under 1 MB.
func TestHostileManifestCounts(t *testing.T) {
	for name, data := range hostileManifests() {
		path := filepath.Join(t.TempDir(), "store.sssnap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, ld := range snapshotLoaders {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := ld.open(path)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, collection.ErrBadCollection) {
				t.Errorf("%s %s: %v, want ErrBadCollection", name, ld.name, err)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
				t.Errorf("%s %s: allocated %d bytes before refusing", name, ld.name, d)
			}
		}
	}
}

// TestDurableSyncPolicies smoke-tests every WAL sync policy, under
// every name it parses from, through the public surface: mutations are
// durable (or at least replayable after a clean close) under each.
func TestDurableSyncPolicies(t *testing.T) {
	for _, name := range []string{"always", "group", "off"} {
		t.Run(name, func(t *testing.T) {
			pol, err := setsim.ParseSyncPolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "store.sssnap")
			le, _, err := setsim.OpenDurable(path, killPointConfig(1), setsim.DurableOptions{Sync: pol})
			if err != nil {
				t.Fatal(err)
			}
			applyOps(t, le, killPhaseA)
			le.Close()
			re, info, err := setsim.OpenDurable(path, killPointConfig(1), setsim.DurableOptions{Sync: pol})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if info.WALTail != len(walRecs(killPhaseA)) || re.NumDocs() != 8 || re.NumLive() != 6 {
				t.Fatalf("reopen under %v: info %+v, %d docs %d live", pol, info, re.NumDocs(), re.NumLive())
			}
		})
	}
	if _, err := setsim.ParseSyncPolicy("bogus"); err == nil {
		t.Error("ParseSyncPolicy accepted bogus")
	}
}

// TestDurableRecoveryIsOneRound: opening a checkpointed store with an
// empty WAL tail bulk-loads it — one build round, nothing left in a
// memtable, no background round racing the load — and the info says
// where the open spent its time.
func TestDurableRecoveryIsOneRound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.sssnap")
	cfg := killPointConfig(2)
	le, _, err := setsim.OpenDurable(path, cfg, setsim.DurableOptions{Sync: setsim.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, le, append(append([]mutOp(nil), killPhaseA...), killPhaseB...))
	if err := le.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	le.Close()

	// The background compactor stays on for the opens: with thresholds
	// out of reach it must find nothing to do after the load's round.
	cfg.NoBackground = false
	check := func(label string, re *setsim.LiveEngine, info setsim.SnapshotInfo, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		defer re.Close()
		if info.WALTail != 0 {
			t.Fatalf("%s: WAL tail of %d records, want none", label, info.WALTail)
		}
		if st := re.Stats(); st.Compactions != 1 || st.Memtable != 0 || st.Tombstones != 0 || st.Live != info.Live {
			t.Errorf("%s: %+v, want one round, no memtable, no tombstones, %d live", label, st, info.Live)
		}
		if info.LoadTime <= 0 || info.BuildTime <= 0 {
			t.Errorf("%s: load %v, build %v; want both measured", label, info.LoadTime, info.BuildTime)
		}
	}
	re, info, err := setsim.OpenLive(path, cfg)
	check("OpenLive", re, info, err)
	re, info, err = setsim.OpenDurable(path, cfg, setsim.DurableOptions{Sync: setsim.SyncOff})
	check("OpenDurable", re, info, err)
}

// TestDurableOpenCloseLeavesNoGoroutine: a recovered engine's compactor
// starts after the load's round and Close still stops and waits for it.
// A hang here is caught by the test binary's -timeout.
func TestDurableOpenCloseLeavesNoGoroutine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.sssnap")
	buildKillPointStore(t, path)
	cfg := killPointConfig(2)
	cfg.NoBackground = false
	cfg.FlushThreshold = 2 // the tail replay kicks the compactor
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		le, _, err := setsim.OpenDurable(path, cfg, setsim.DurableOptions{Sync: setsim.SyncOff})
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		le.Close()
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines before 100 open/close cycles, %d after", before, after)
	}
}

package segpack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// buildPkg writes a package into memory.
func buildPkg(t *testing.T, recs map[string][]byte, meta map[string]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	// Deterministic record order.
	names := make([]string, 0, len(recs))
	for n := range recs {
		names = append(names, n)
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, n := range names {
		if err := w.AddRecord(n, recs[n]); err != nil {
			t.Fatalf("AddRecord(%s): %v", n, err)
		}
	}
	for k, v := range meta {
		w.SetMeta(k, []byte(v))
	}
	if err := w.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 10000) // 160000 B → 3 blocks
	recs := map[string][]byte{
		"docs":  []byte("hello world"),
		"empty": {},
		"big":   big,
		"bin":   {0, 1, 2, 255, 254, 0},
	}
	meta := map[string]string{"shard": "3", "gen": "7"}
	data := buildPkg(t, recs, meta)

	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if got := r.Records(); len(got) != 4 {
		t.Fatalf("Records() = %v", got)
	}
	for name, want := range recs {
		got, err := r.ReadRecord(name)
		if err != nil {
			t.Fatalf("ReadRecord(%s): %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("ReadRecord(%s) = %d bytes, want %d", name, len(got), len(want))
		}
		if r.RecordSize(name) != int64(len(want)) {
			t.Fatalf("RecordSize(%s) = %d", name, r.RecordSize(name))
		}
	}
	if r.Blocks("big") != 3 || r.Blocks("docs") != 1 || r.Blocks("empty") != 0 {
		t.Fatalf("Blocks: big=%d docs=%d empty=%d", r.Blocks("big"), r.Blocks("docs"), r.Blocks("empty"))
	}
	for k, want := range meta {
		v, ok := r.Meta(k)
		if !ok || string(v) != want {
			t.Fatalf("Meta(%s) = %q, %v", k, v, ok)
		}
	}
	if _, ok := r.Meta("absent"); ok {
		t.Fatal("Meta(absent) found")
	}
	n, err := r.Verify()
	if err != nil || n != 5 {
		t.Fatalf("Verify = %d, %v (want 5 blocks)", n, err)
	}
	if _, err := r.ReadRecord("nope"); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("missing record: %v", err)
	}
}

// TestReadBlock: a record read block by block is the record, each block
// is verified on its own, and damage in one block leaves the others
// readable.
func TestReadBlock(t *testing.T) {
	big := make([]byte, 2*DefaultBlockSize+100)
	for i := range big {
		big[i] = byte(i * 7)
	}
	data := buildPkg(t, map[string][]byte{"big": big, "empty": {}}, nil)
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for b := 0; b < r.Blocks("big"); b++ {
		blk, err := r.ReadBlock("big", b)
		if err != nil {
			t.Fatalf("ReadBlock(big, %d): %v", b, err)
		}
		got = append(got, blk...)
	}
	if !bytes.Equal(got, big) {
		t.Fatalf("blocks concatenate to %d bytes, want the %d-byte record", len(got), len(big))
	}
	for _, b := range []int{-1, 3} {
		if _, err := r.ReadBlock("big", b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("ReadBlock(big, %d) = %v, want ErrCorrupt", b, err)
		}
	}
	if _, err := r.ReadBlock("empty", 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadBlock(empty, 0) = %v, want ErrCorrupt", err)
	}
	if _, err := r.ReadBlock("nope", 0); !errors.Is(err, ErrNoRecord) {
		t.Errorf("ReadBlock(nope, 0) = %v, want ErrNoRecord", err)
	}

	mut := append([]byte(nil), data...)
	mut[headerSize+DefaultBlockSize+9] ^= 1 // inside block 1 of "big", the first record
	r, err = NewReader(bytes.NewReader(mut), int64(len(mut)))
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		_, err := r.ReadBlock("big", b)
		if bad := errors.Is(err, ErrCorrupt); bad != (b == 1) || (err != nil && !bad) {
			t.Errorf("after a flip in block 1, ReadBlock(big, %d) = %v", b, err)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.sspk")
	fw, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.AddRecord("docs", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	fw.SetMeta("k", []byte("v"))
	if err := fw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	fr, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer fr.Close()
	got, err := fr.ReadRecord("docs")
	if err != nil || string(got) != "payload" {
		t.Fatalf("ReadRecord = %q, %v", got, err)
	}
}

func TestWriterErrors(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.AddRecord("", nil); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := w.AddRecord("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.AddRecord("a", []byte("y")); err == nil {
		t.Fatal("duplicate name accepted")
	}
	w.SetMeta("k", []byte("1"))
	w.SetMeta("k", []byte("2")) // last write wins
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Meta("k"); string(v) != "2" {
		t.Fatalf("Meta(k) = %q", v)
	}
}

// TestCorruption flips every byte of a small package in turn: the
// reader must either fail cleanly on open, fail the affected record's
// checksum, or — for bytes in unreferenced padding — still verify.
func TestCorruption(t *testing.T) {
	data := buildPkg(t,
		map[string][]byte{"a": []byte("first record"), "b": []byte("second record")},
		map[string]string{"tag": "v"})
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5A
		r, err := NewReader(bytes.NewReader(mut), int64(len(mut)))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("byte %d: unexpected open error %v", i, err)
			}
			continue
		}
		if _, err := r.Verify(); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d: unexpected verify error %v", i, err)
		}
	}
}

// checksumClaimPkg is a package of dataLen data bytes at block size 1
// whose well-checksummed 22-byte table lists one record spanning the
// whole data area and none of the dataLen block checksums it claims.
func checksumClaimPkg(dataLen int) []byte {
	b := binary.LittleEndian.AppendUint32([]byte(pkgMagic), pkgVersion)
	b = binary.LittleEndian.AppendUint32(b, 1) // block size
	b = append(b, make([]byte, dataLen)...)
	tableOff := len(b)
	tbl := binary.LittleEndian.AppendUint32(nil, 1) // one record
	tbl = append(tbl, 1, 'd')
	tbl = binary.LittleEndian.AppendUint64(tbl, uint64(headerSize))
	tbl = binary.LittleEndian.AppendUint64(tbl, uint64(dataLen))
	b = append(b, tbl...)
	b = binary.LittleEndian.AppendUint64(b, uint64(tableOff))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(tbl)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(tbl))
	return append(b, endMagic...)
}

// TestTruncation cuts the package at every length: open must fail with
// ErrCorrupt (or ErrVersion), never panic. A table cut short of the
// checksums its record claims — 8 MB at block size 1, 8 M checksums, in
// 22 bytes — fails having allocated under 1 MB: the claim is checked
// against the table before it sizes the checksum list.
func TestTruncation(t *testing.T) {
	data := buildPkg(t, map[string][]byte{"a": bytes.Repeat([]byte("x"), 300)}, nil)
	for cut := 0; cut < len(data); cut++ {
		_, err := NewReader(bytes.NewReader(data[:cut]), int64(cut))
		if err == nil {
			t.Fatalf("cut %d: truncated package opened", cut)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("cut %d: unexpected error %v", cut, err)
		}
	}

	claim := checksumClaimPkg(8 << 20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewReader(bytes.NewReader(claim), int64(len(claim)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("checksum claim: %v, want ErrCorrupt", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("checksum claim: refused after allocating %d bytes", n)
	}
}

func TestVersionGate(t *testing.T) {
	data := buildPkg(t, map[string][]byte{"a": []byte("x")}, nil)
	mut := append([]byte(nil), data...)
	mut[len(pkgMagic)] = 9 // version field
	if _, err := NewReader(bytes.NewReader(mut), int64(len(mut))); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: %v", err)
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope.sspk")); !os.IsNotExist(err) {
		t.Fatalf("missing file: %v", err)
	}
}

func TestAbort(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.sspk")
	fw, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	fw.AddRecord("a", []byte("x"))
	fw.Abort()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("aborted file still exists: %v", err)
	}
}

func TestLargeNameRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.AddRecord(strings.Repeat("n", maxNameLen+1), nil); err == nil {
		t.Fatal("oversized name accepted")
	}
}

// FuzzSegpackReader feeds arbitrary bytes to the reader: it must never
// panic or over-allocate, and valid packages must round-trip bitwise.
func FuzzSegpackReader(f *testing.F) {
	// Seeds: a valid small package, a valid empty package, a few
	// structurally interesting prefixes, and a table claiming more
	// checksums than it holds.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.AddRecord("docs", []byte("seed one two three"))
	w.AddRecord("aux", bytes.Repeat([]byte{7}, 100))
	w.SetMeta("shard", []byte("0"))
	w.Finish()
	valid := buf.Bytes()
	f.Add(valid)
	var empty bytes.Buffer
	NewWriter(&empty).Finish()
	f.Add(empty.Bytes())
	f.Add([]byte(pkgMagic))
	f.Add([]byte{})
	f.Add(append([]byte(nil), valid[:len(valid)/2]...))
	trunc := append([]byte(nil), valid...)
	trunc[len(trunc)-1] ^= 1
	f.Add(trunc)
	f.Add(checksumClaimPkg(4 << 10))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		// A structurally valid package: reading and verifying must not
		// panic, and every readable record round-trips through a rewrite.
		var out bytes.Buffer
		w := NewWriter(&out)
		readable := true
		for _, name := range r.Records() {
			rec, err := r.ReadRecord(name)
			if err != nil {
				readable = false
				continue
			}
			if int64(len(rec)) != r.RecordSize(name) {
				t.Fatalf("record %q: read %d bytes, size says %d", name, len(rec), r.RecordSize(name))
			}
			if err := w.AddRecord(name, rec); err != nil {
				t.Fatalf("re-add %q: %v", name, err)
			}
		}
		for _, k := range r.MetaKeys() {
			v, _ := r.Meta(k)
			w.SetMeta(k, v)
		}
		if err := w.Finish(); err != nil {
			t.Fatalf("rewrite: %v", err)
		}
		if !readable {
			return
		}
		// The rewritten package must parse and agree record for record.
		r2, err := NewReader(bytes.NewReader(out.Bytes()), int64(out.Len()))
		if err != nil {
			t.Fatalf("reopen rewrite: %v", err)
		}
		for _, name := range r.Records() {
			a, _ := r.ReadRecord(name)
			b, err := r2.ReadRecord(name)
			if err != nil || !bytes.Equal(a, b) {
				t.Fatalf("record %q did not round-trip: %v", name, err)
			}
		}
	})
}

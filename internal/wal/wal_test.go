package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// openT opens a log in a fresh temp dir and fails the test on error.
func openT(t *testing.T, path string, opts Options) (*Log, Info) {
	t.Helper()
	l, info, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return l, info
}

// collect replays the whole log into a slice.
func collect(t *testing.T, path string, after uint64) ([]Record, Info) {
	t.Helper()
	var recs []Record
	info, err := Replay(path, after, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs, info
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	l, info := openT(t, path, Options{})
	if info.First != 1 || info.Last != 0 || info.Records != 0 {
		t.Fatalf("fresh log info = %+v", info)
	}
	want := []Record{
		{Seq: 1, Op: OpInsert, Source: "alpha beta"},
		{Seq: 2, Op: OpDelete, ID: 0},
		{Seq: 3, Op: OpInsert, Source: ""},
		{Seq: 4, Op: OpInsert, Source: "käse \x00 binary"},
		{Seq: 5, Op: OpDelete, ID: 4294967295},
	}
	var last uint64
	for _, r := range want {
		if r.Op == OpInsert {
			last = l.AppendInsert(r.Source)
		} else {
			last = l.AppendDelete(r.ID)
		}
		if last != r.Seq {
			t.Fatalf("append returned seq %d, want %d", last, r.Seq)
		}
	}
	if err := l.WaitDurable(last); err != nil {
		t.Fatalf("WaitDurable: %v", err)
	}
	if got := l.Synced(); got < last {
		t.Fatalf("Synced() = %d after WaitDurable(%d)", got, last)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	recs, info := collect(t, path, 0)
	if info.Torn || info.First != 1 || info.Last != 5 || info.Records != 5 {
		t.Fatalf("replay info = %+v", info)
	}
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, r, want[i])
		}
	}

	// after-filtering skips the prefix but keeps sequence numbers.
	recs, _ = collect(t, path, 3)
	if len(recs) != 2 || recs[0].Seq != 4 || recs[1].Seq != 5 {
		t.Fatalf("Replay(after=3) = %+v", recs)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	l, _ := openT(t, path, Options{Sync: SyncAlways})
	l.AppendInsert("one")
	seq := l.AppendInsert("two")
	if err := l.WaitDurable(seq); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l, info := openT(t, path, Options{})
	if info.Last != 2 || info.Records != 2 || info.Torn {
		t.Fatalf("reopen info = %+v", info)
	}
	if got := l.AppendInsert("three"); got != 3 {
		t.Fatalf("append after reopen got seq %d, want 3", got)
	}
	if err := l.WaitDurable(3); err != nil {
		t.Fatal(err)
	}
	l.Close()
	recs, _ := collect(t, path, 0)
	if len(recs) != 3 || recs[2].Source != "three" {
		t.Fatalf("records after reopen = %+v", recs)
	}
}

// TestTornTailEveryOffset truncates a finished log at every byte length
// and checks that Replay reports exactly the intact prefix, that Open
// repairs the file, and that appending after repair works.
func TestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.wal")
	l, _ := openT(t, path, Options{Sync: SyncAlways})
	bounds := []int64{int64(headerSize)} // valid lengths at record boundaries
	sources := []string{"a", "bb ccc", "dddd", "", "ee ff gg hh"}
	for i, s := range sources {
		l.AppendInsert(s)
		if i == 2 {
			l.AppendDelete(1)
		}
	}
	if err := l.WaitDurable(l.Seq()); err != nil {
		t.Fatal(err)
	}
	l.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute record boundaries from the file itself.
	off := int64(headerSize)
	for off < int64(len(full)) {
		plen := binary.LittleEndian.Uint32(full[off:])
		off += int64(frameHead) + int64(plen)
		bounds = append(bounds, off)
	}
	isBoundary := func(n int64) bool {
		for _, b := range bounds {
			if b == n {
				return true
			}
		}
		return false
	}
	wantRecords := func(n int64) int {
		c := 0
		for _, b := range bounds[1:] {
			if b <= n {
				c++
			}
		}
		return c
	}

	for cut := int64(0); cut <= int64(len(full)); cut++ {
		tpath := filepath.Join(dir, fmt.Sprintf("cut%d.wal", cut))
		if err := os.WriteFile(tpath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, info := collect(t, tpath, 0)
		if cut < int64(headerSize) {
			if info.Records != 0 || (cut > 0) != info.Torn {
				t.Fatalf("cut %d: info = %+v", cut, info)
			}
		} else {
			if info.Records != wantRecords(cut) || len(recs) != info.Records {
				t.Fatalf("cut %d: got %d records, want %d", cut, info.Records, wantRecords(cut))
			}
			if info.Torn == isBoundary(cut) {
				t.Fatalf("cut %d: torn = %v at boundary = %v", cut, info.Torn, isBoundary(cut))
			}
			for i, r := range recs {
				if r.Seq != uint64(i+1) {
					t.Fatalf("cut %d: record %d has seq %d", cut, i, r.Seq)
				}
			}
		}

		// Open must repair the tail and support further appends.
		l2, oinfo := openT(t, tpath, Options{Sync: SyncAlways})
		if oinfo.Records != wantRecords(cut) && cut >= int64(headerSize) {
			t.Fatalf("cut %d: open info = %+v", cut, oinfo)
		}
		next := l2.AppendInsert("recovered")
		if err := l2.WaitDurable(next); err != nil {
			t.Fatalf("cut %d: WaitDurable: %v", cut, err)
		}
		l2.Close()
		recs2, info2 := collect(t, tpath, 0)
		if info2.Torn {
			t.Fatalf("cut %d: still torn after repair", cut)
		}
		if len(recs2) != oinfo.Records+1 || recs2[len(recs2)-1].Source != "recovered" {
			t.Fatalf("cut %d: post-repair records = %+v", cut, recs2)
		}
		os.Remove(tpath)
	}
}

// TestCorruptBody flips a payload byte so the CRC fails: the scan must
// stop there, treating the rest as torn.
func TestCorruptBody(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	l, _ := openT(t, path, Options{Sync: SyncAlways})
	l.AppendInsert("first record")
	l.AppendInsert("second record")
	l.WaitDurable(l.Seq())
	l.Close()
	data, _ := os.ReadFile(path)
	data[headerSize+frameHead+3] ^= 0xFF // inside the first payload
	os.WriteFile(path, data, 0o644)
	recs, info := collect(t, path, 0)
	if len(recs) != 0 || !info.Torn {
		t.Fatalf("corrupt first record: recs=%d info=%+v", len(recs), info)
	}
}

// TestOversizedLengthIsTornTail: a frame whose length field claims more
// bytes than the file has left — maxPayload itself, or just past the end
// of a file under 1 KB — ends the scan as a torn tail after the intact
// records, and is refused before its payload buffer is allocated.
func TestOversizedLengthIsTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.wal")
	l, _ := openT(t, path, Options{Sync: SyncAlways})
	for _, s := range []string{"first record", "second record", "third record"} {
		l.AppendInsert(s)
	}
	if err := l.WaitDurable(l.Seq()); err != nil {
		t.Fatal(err)
	}
	l.Close()
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		plen uint32
	}{
		{"maxPayload", maxPayload},
		{"past the end", 1024},
	} {
		frame := make([]byte, frameHead+16)
		binary.LittleEndian.PutUint32(frame[0:], tc.plen)
		frame[8] = OpInsert
		data := append(append([]byte(nil), intact...), frame...)
		if len(data) >= 1024 {
			t.Fatalf("%s: file of %d bytes, want under 1 KB", tc.name, len(data))
		}
		tpath := filepath.Join(dir, tc.name+".wal")
		if err := os.WriteFile(tpath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, info := collect(t, tpath, 0)
		runtime.ReadMemStats(&after)
		if len(recs) != 3 || info.Records != 3 || !info.Torn || info.TornAt != int64(len(intact)) {
			t.Fatalf("%s: %d records, info %+v; want 3 intact records and a torn tail at %d",
				tc.name, len(recs), info, len(intact))
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: replay allocated %d bytes", tc.name, n)
		}
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.wal")
	os.WriteFile(bad, []byte("NOTAWAL\x00AAAAAAAA"), 0o644)
	if _, err := Replay(bad, 0, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v", err)
	}
	ver := filepath.Join(dir, "ver.wal")
	hdr := make([]byte, headerSize)
	copy(hdr, logMagic)
	hdr[len(logMagic)] = 99
	binary.LittleEndian.PutUint64(hdr[len(logMagic)+1:], 1)
	os.WriteFile(ver, hdr, 0o644)
	if _, err := Replay(ver, 0, nil); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: err = %v", err)
	}
	if _, _, err := Open(ver, Options{}); !errors.Is(err, ErrVersion) {
		t.Fatalf("Open future version: err = %v", err)
	}
	if _, err := Replay(filepath.Join(dir, "missing.wal"), 0, nil); !os.IsNotExist(err) {
		t.Fatalf("missing file: err = %v", err)
	}
}

func TestTruncateThrough(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	l, _ := openT(t, path, Options{Sync: SyncAlways})
	for i := 1; i <= 10; i++ {
		l.AppendInsert(fmt.Sprintf("doc %d", i))
	}
	if err := l.WaitDurable(10); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateThrough(4); err != nil {
		t.Fatalf("TruncateThrough: %v", err)
	}
	// Sequence numbering continues across the rotation.
	if got := l.AppendInsert("doc 11"); got != 11 {
		t.Fatalf("append after rotate got seq %d, want 11", got)
	}
	if err := l.WaitDurable(11); err != nil {
		t.Fatal(err)
	}
	// Truncating before the start is a no-op.
	if err := l.TruncateThrough(2); err != nil {
		t.Fatalf("no-op TruncateThrough: %v", err)
	}
	l.Close()

	recs, info := collect(t, path, 0)
	if info.First != 5 || info.Last != 11 || info.Records != 7 {
		t.Fatalf("rotated info = %+v", info)
	}
	if recs[0].Seq != 5 || recs[0].Source != "doc 5" || recs[6].Source != "doc 11" {
		t.Fatalf("rotated records = %+v", recs)
	}

	// Reopen after rotation: sequences still continue.
	l, info = openT(t, path, Options{})
	if info.First != 5 || info.Last != 11 {
		t.Fatalf("reopen rotated info = %+v", info)
	}
	if got := l.AppendInsert("doc 12"); got != 12 {
		t.Fatalf("append got %d, want 12", got)
	}
	l.WaitDurable(12)
	l.Close()
}

func TestTruncateThroughEverything(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	l, _ := openT(t, path, Options{Sync: SyncAlways})
	for i := 1; i <= 5; i++ {
		l.AppendInsert("x")
	}
	l.WaitDurable(5)
	if err := l.TruncateThrough(5); err != nil {
		t.Fatal(err)
	}
	l.Close()
	recs, info := collect(t, path, 0)
	if len(recs) != 0 || info.First != 6 || info.Last != 5 {
		t.Fatalf("fully truncated: recs=%d info=%+v", len(recs), info)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, name := range []string{"always", "group", "off"} {
		t.Run(name, func(t *testing.T) {
			pol, err := ParsePolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "x.wal")
			l, _ := openT(t, path, Options{Sync: pol})
			for i := 0; i < 20; i++ {
				seq := l.AppendInsert(fmt.Sprintf("doc %d", i))
				if err := l.WaitDurable(seq); err != nil {
					t.Fatalf("WaitDurable: %v", err)
				}
				if pol != SyncOff && l.Synced() < seq {
					t.Fatalf("policy %v: WaitDurable(%d) returned at horizon %d", pol, seq, l.Synced())
				}
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			// Close flushes even unsynced tails, so all policies read back.
			recs, info := collect(t, path, 0)
			if len(recs) != 20 || info.Torn {
				t.Fatalf("policy %v: %d records, info=%+v", pol, len(recs), info)
			}
		})
	}
}

// TestSyncOffCloseSyncs: under SyncOff the kicks write without fsyncing,
// so by Close the buffer is usually empty; Close must still fsync what
// those kicks wrote.
func TestSyncOffCloseSyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	l, _ := openT(t, path, Options{Sync: SyncOff})
	var seq uint64
	for i := 0; i < 5; i++ {
		seq = l.AppendInsert(fmt.Sprintf("doc %d", i))
		if err := l.WaitDurable(seq); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the committer to have written every record, so Close finds
	// an empty buffer; the horizon is published under smu after dirty is
	// set, which orders the read below.
	l.smu.Lock()
	for l.synced < seq {
		l.cond.Wait()
	}
	l.smu.Unlock()
	if !l.dirty {
		t.Fatal("SyncOff kicks fsynced: the log is clean before Close")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.dirty {
		t.Fatal("Close left written records unsynced")
	}
	if recs, info := collect(t, path, 0); len(recs) != 5 || info.Torn {
		t.Fatalf("%d records, info=%+v", len(recs), info)
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"always": SyncAlways, "group": SyncGroup, "off": SyncOff, "": SyncGroup,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy(bogus) succeeded")
	}
}

// TestConcurrentAppends: under the default policy every acknowledged
// record replays after Close, densely numbered and in each writer's own
// order, whether the writers outnumber the flushes 8 or 16 to one.
func TestConcurrentAppends(t *testing.T) {
	for _, G := range []int{8, 16} {
		t.Run(fmt.Sprintf("writers=%d", G), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x.wal")
			l, _ := openT(t, path, Options{})
			const per = 50
			var wg sync.WaitGroup
			errs := make([]error, G)
			for g := 0; g < G; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						seq := l.AppendInsert(fmt.Sprintf("%d %d", g, i))
						if err := l.WaitDurable(seq); err != nil {
							errs[g] = err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Fatalf("goroutine %d: %v", g, err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			recs, info := collect(t, path, 0)
			if len(recs) != G*per || info.Torn {
				t.Fatalf("got %d records, want %d (info=%+v)", len(recs), G*per, info)
			}
			next := make([]int, G)
			for i, r := range recs {
				if r.Seq != uint64(i+1) {
					t.Fatalf("record %d has seq %d", i, r.Seq)
				}
				var g, n int
				if _, err := fmt.Sscanf(r.Source, "%d %d", &g, &n); err != nil || g < 0 || g >= G {
					t.Fatalf("record %d: unexpected source %q", i, r.Source)
				}
				if n != next[g] {
					t.Fatalf("writer %d: record %d replayed where %d was due", g, n, next[g])
				}
				next[g]++
			}
		})
	}
}

func TestWaitAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	l, _ := openT(t, path, Options{})
	seq := l.AppendInsert("x")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The record was flushed by Close, so the wait succeeds...
	if err := l.WaitDurable(seq); err != nil {
		t.Fatalf("WaitDurable after clean close: %v", err)
	}
	// ...but a never-reserved sequence reports the closed log instead of
	// hanging.
	if err := l.WaitDurable(seq + 10); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitDurable(beyond) after close = %v, want ErrClosed", err)
	}
	if err := l.TruncateThrough(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("TruncateThrough after close = %v, want ErrClosed", err)
	}
}

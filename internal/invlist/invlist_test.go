package invlist

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/segpack"
	"repro/internal/tokenize"
)

// randomBuilder holds n random strings of 3 to 3+spread-1 letters over
// the first alphabet letters, tokenized into 3-grams.
func randomBuilder(n int, seed int64, alphabet, spread int) *collection.Builder {
	rng := rand.New(rand.NewSource(seed))
	b := collection.NewBuilder(tokenize.QGramTokenizer{Q: 3}, false)
	for i := 0; i < n; i++ {
		ln := 3 + rng.Intn(spread)
		var sb strings.Builder
		for j := 0; j < ln; j++ {
			sb.WriteByte(byte('a' + rng.Intn(alphabet)))
		}
		b.Add(sb.String())
	}
	return b
}

func buildCollection(t testing.TB, n int, seed int64) *collection.Collection {
	t.Helper()
	return randomBuilder(n, seed, 8, 12).Build()
}

func drain(c Cursor) []Posting {
	var out []Posting
	for ; c.Valid(); c.Next() {
		out = append(out, c.Posting())
	}
	return out
}

func TestMemStoreOrders(t *testing.T) {
	c := buildCollection(t, 300, 1)
	st := BuildMem(c, 0)
	defer st.Close()
	for tok := 0; tok < c.NumTokens(); tok++ {
		tk := tokenize.Token(tok)
		w := drain(st.WeightCursor(tk))
		ids := drain(st.IDCursor(tk))
		if len(w) != len(ids) || len(w) != st.ListLen(tk) || len(w) != c.DF(tk) {
			t.Fatalf("token %d list length mismatch: %d %d %d %d",
				tok, len(w), len(ids), st.ListLen(tk), c.DF(tk))
		}
		for i := 1; i < len(w); i++ {
			if w[i-1].Len > w[i].Len ||
				(w[i-1].Len == w[i].Len && w[i-1].ID >= w[i].ID) {
				t.Fatalf("token %d weight list not (len,id)-sorted at %d", tok, i)
			}
		}
		for i := 1; i < len(ids); i++ {
			if ids[i-1].ID >= ids[i].ID {
				t.Fatalf("token %d id list not sorted at %d", tok, i)
			}
		}
		for _, p := range w {
			if p.Len != c.Length(p.ID) {
				t.Fatalf("posting length %g != collection length %g", p.Len, c.Length(p.ID))
			}
		}
	}
}

func TestMemSeekLen(t *testing.T) {
	c := buildCollection(t, 500, 2)
	st := BuildMem(c, 4) // small skip interval to exercise jumps
	for tok := 0; tok < c.NumTokens(); tok++ {
		tk := tokenize.Token(tok)
		full := drain(st.WeightCursor(tk))
		if len(full) == 0 {
			continue
		}
		for _, frac := range []float64{0, 0.5, 1.0, 1.5} {
			min := full[0].Len + frac*(full[len(full)-1].Len-full[0].Len)
			cur := st.WeightCursor(tk)
			skipped, walked := cur.SeekLen(min)
			if skipped < 0 || walked < 0 {
				t.Fatal("negative seek accounting")
			}
			got := drain(cur)
			var want []Posting
			for _, p := range full {
				if p.Len >= min {
					want = append(want, p)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("token %d SeekLen(%g): got %d postings, want %d",
					tok, min, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("token %d SeekLen(%g): posting %d mismatch", tok, min, i)
				}
			}
		}
	}
}

func TestSeekLenSkipsAreReal(t *testing.T) {
	c := buildCollection(t, 2000, 3)
	st := BuildMem(c, 8)
	anySkip := false
	longLists := 0
	for tok := 0; tok < c.NumTokens(); tok++ {
		tk := tokenize.Token(tok)
		if st.ListLen(tk) < 20 {
			continue
		}
		longLists++
		full := drain(st.WeightCursor(tk))
		mid := full[len(full)/2].Len
		cur := st.WeightCursor(tk)
		if skipped, _ := cur.SeekLen(mid); skipped > 0 {
			anySkip = true
		}
	}
	if longLists == 0 {
		t.Fatal("test corpus produced no long lists")
	}
	if !anySkip {
		t.Error("SeekLen never skipped via the skip index on long lists")
	}
}

func TestSeekLenForwardOnly(t *testing.T) {
	c := buildCollection(t, 200, 4)
	st := BuildMem(c, 4)
	for tok := 0; tok < c.NumTokens(); tok++ {
		tk := tokenize.Token(tok)
		if st.ListLen(tk) < 10 {
			continue
		}
		cur := st.WeightCursor(tk)
		full := drain(st.WeightCursor(tk))
		cur.SeekLen(full[7].Len)
		before := cur.Posting()
		cur.SeekLen(0) // backward seek must not move the cursor
		if cur.Posting() != before {
			t.Fatal("backward SeekLen moved the cursor")
		}
		break
	}
}

func TestEmptyCursor(t *testing.T) {
	c := buildCollection(t, 10, 5)
	st := BuildMem(c, 0)
	cur := st.WeightCursor(tokenize.Token(c.NumTokens() + 5))
	sk, wk := cur.SeekLen(1)
	if cur.Valid() || cur.Count() != 0 || sk != 0 || wk != 0 {
		t.Error("unknown token cursor not empty")
	}
	defer func() {
		if recover() == nil {
			t.Error("Posting on empty cursor did not panic")
		}
	}()
	cur.Posting()
}

func TestSizesPopulated(t *testing.T) {
	c := buildCollection(t, 300, 6)
	st := BuildMem(c, 2)
	z := st.Sizes()
	if z.WeightLists <= 0 || z.SkipIndexes <= 0 {
		t.Errorf("sizes not populated: %+v", z)
	}
	if z.Total() != z.WeightLists+z.SkipIndexes {
		t.Errorf("Total mismatch")
	}
	// One 8-byte sampled length per skip entry, every 2nd posting after
	// the first: no estimate of pointers or towers.
	var entries int64
	for tok := 0; tok < c.NumTokens(); tok++ {
		if n := st.ListLen(tokenize.Token(tok)); n > 0 {
			entries += int64((n - 1) / 2)
		}
	}
	if z.SkipIndexes != 8*entries {
		t.Errorf("skip index accounted as %d bytes, want 8 × %d entries", z.SkipIndexes, entries)
	}
	if z.SkipIndexes >= z.WeightLists {
		t.Errorf("skip index %d should be far smaller than lists %d",
			z.SkipIndexes, z.WeightLists)
	}
}

func TestFileRoundTrip(t *testing.T) {
	c := buildCollection(t, 400, 7)
	path := filepath.Join(t.TempDir(), "idx.bin")
	if err := WriteFile(path, c, 4); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ms := BuildMem(c, 4)
	for tok := 0; tok < c.NumTokens(); tok++ {
		tk := tokenize.Token(tok)
		if fs.ListLen(tk) != ms.ListLen(tk) {
			t.Fatalf("token %d ListLen: file %d mem %d", tok, fs.ListLen(tk), ms.ListLen(tk))
		}
		fw, mw := drain(fs.WeightCursor(tk)), drain(ms.WeightCursor(tk))
		if len(fw) != len(mw) {
			t.Fatalf("token %d weight list sizes differ", tok)
		}
		for i := range fw {
			if fw[i] != mw[i] {
				t.Fatalf("token %d weight posting %d: file %+v mem %+v", tok, i, fw[i], mw[i])
			}
		}
	}
	if names := fs.pack.Records(); !slices.Equal(names, []string{recWeight, recOff, recSkips, recSkipOff}) {
		t.Fatalf("list file records %q, want the four of the package layout", names)
	}
}

// TestOpenFileWithByIDRecord refuses a list file laid out as builds that
// kept an id-sorted copy wrote it — five records, weight, byid, off, skips
// and skipoff — with an error wrapping ErrCorrupt that names the retired
// record, while the same file without it opens.
func TestOpenFileWithByIDRecord(t *testing.T) {
	c := buildCollection(t, 400, 7)
	ms := BuildMem(c, 8)
	byID := make([]Posting, 0, len(ms.ids))
	c.TokenSets(func(_ tokenize.Token, ids []collection.SetID) {
		for _, id := range ids {
			byID = append(byID, Posting{ID: id, Len: c.Length(id)})
		}
	})
	write := func(name string, withByID bool) string {
		path := filepath.Join(t.TempDir(), name)
		w, err := segpack.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range [4]int{ms.interval, c.NumSets(), c.NumTokens(), len(ms.ids)} {
			w.SetMeta(metaKeys[i], []byte(strconv.Itoa(v)))
		}
		w.AddRecord(recWeight, encodePostings(ms.ids, ms.lens))
		if withByID {
			w.AddRecord(recByID, encodePostings(idColumns(byID)))
		}
		w.AddRecord(recOff, encodeTable(ms.off))
		w.AddRecord(recSkips, encodeTable(ms.skips))
		w.AddRecord(recSkipOff, encodeTable(ms.skipOff))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}

	fs, err := OpenFile(write("old.bin", true))
	if err == nil {
		fs.Close()
		t.Fatal("a file with a byid record opened")
	}
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), `"byid"`) {
		t.Fatalf("error %q does not wrap ErrCorrupt and name the byid record", err)
	}
	fs, err = OpenFile(write("new.bin", false))
	if err != nil {
		t.Fatalf("the same file without byid: %v", err)
	}
	fs.Close()
}

func TestFileSeekLenMatchesMem(t *testing.T) {
	c := buildCollection(t, 600, 8)
	path := filepath.Join(t.TempDir(), "idx.bin")
	if err := WriteFile(path, c, 8); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ms := BuildMem(c, 8)
	for tok := 0; tok < c.NumTokens(); tok += 3 {
		tk := tokenize.Token(tok)
		full := drain(ms.WeightCursor(tk))
		if len(full) < 5 {
			continue
		}
		min := full[len(full)/3].Len
		fc, mc := fs.WeightCursor(tk), ms.WeightCursor(tk)
		fc.SeekLen(min)
		mc.SeekLen(min)
		fgot, mgot := drain(fc), drain(mc)
		if len(fgot) != len(mgot) {
			t.Fatalf("token %d: file %d postings, mem %d after seek", tok, len(fgot), len(mgot))
		}
		for i := range fgot {
			if fgot[i] != mgot[i] {
				t.Fatalf("token %d seek posting %d mismatch", tok, i)
			}
		}
		if err := Err(fc); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileCursorCrossesChecksumBlocks covers what short lists never do: a
// list longer than one checksum block, a SeekLen that lands in a later
// block than the one the cursor started in, and a drain across the block
// boundary — all equal to the MemStore posting for posting and in the
// seek's skipped and walked counts.
func TestFileCursorCrossesChecksumBlocks(t *testing.T) {
	c := randomBuilder(12000, 14, 2, 12).Build() // 8 distinct 3-grams: long lists
	path := filepath.Join(t.TempDir(), "idx.bin")
	if err := WriteFile(path, c, 8); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ms := BuildMem(c, 8)
	var tk tokenize.Token
	for tok := 0; tok < c.NumTokens(); tok++ {
		if ms.ListLen(tokenize.Token(tok)) > ms.ListLen(tk) {
			tk = tokenize.Token(tok)
		}
	}
	if ms.ListLen(tk) <= perBlock {
		t.Fatalf("longest list has %d postings, need more than a block's %d", ms.ListLen(tk), perBlock)
	}
	// List position of the first posting past the list's first block
	// boundary, which falls at a multiple of perBlock in arena positions.
	base := int(ms.off[tk])
	past := (base/perBlock+1)*perBlock - base
	full := drain(ms.WeightCursor(tk))
	// Seek to the first length that begins in a later block, and to the
	// last length of the list.
	first := past
	for full[first].Len == full[past-1].Len {
		first++
	}
	for _, target := range []int{first, len(full) - 1} {
		fc, mc := fs.WeightCursor(tk), ms.WeightCursor(tk)
		fsk, fwk := fc.SeekLen(full[target].Len)
		msk, mwk := mc.SeekLen(full[target].Len)
		if fsk != msk || fwk != mwk || msk+mwk < past || msk == 0 {
			t.Fatalf("SeekLen to posting %d: file skipped %d walked %d, mem skipped %d walked %d (block boundary at %d)",
				target, fsk, fwk, msk, mwk, past)
		}
		if got, want := drain(fc), drain(mc); !slices.Equal(got, want) {
			t.Fatalf("after SeekLen to posting %d: file and mem postings differ", target)
		}
	}
	if !slices.Equal(drain(fs.WeightCursor(tk)), full) {
		t.Fatal("weight list drained across the block boundary differs from mem")
	}
	if st := fs.CacheStats(); st.Misses < 2 {
		t.Fatalf("cache stats %+v: expected reads of more than one block", st)
	}
}

func TestFileSizes(t *testing.T) {
	c := buildCollection(t, 300, 9)
	path := filepath.Join(t.TempDir(), "idx.bin")
	if err := WriteFile(path, c, 0); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	// The file holds the MemStore's slices, so it accounts for them alike.
	if got, want := fs.Sizes(), BuildMem(c, 0).Sizes(); got != want || got.Total() <= 0 {
		t.Errorf("file sizes %+v, want the MemStore's %+v", got, want)
	}
}

func TestOpenFileCorruption(t *testing.T) {
	c := buildCollection(t, 100, 10)
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.bin")
	if err := WriteFile(path, c, 0); err != nil {
		t.Fatal(err)
	}

	check := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bad := filepath.Join(dir, name)
		if err := os.WriteFile(bad, mutate(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFile(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: OpenFile error = %v, want ErrCorrupt", name, err)
		}
	}

	// Package layout: 16-byte header, records, record table, 24-byte
	// footer locating and checksumming the table.
	const header, footer = 16, 24
	check("badmagic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	check("badtable", func(b []byte) []byte { b[len(b)-footer-3] ^= 0xff; return b })
	check("badtablecrc", func(b []byte) []byte { b[len(b)-footer+13] ^= 0xff; return b })
	check("truncated", func(b []byte) []byte { return b[:header/2] })
	check("shortfooter", func(b []byte) []byte { return b[:len(b)-footer/2] })
	check("empty", func(b []byte) []byte { return nil })
	// A list file of the format older builds wrote is refused, not read.
	check("oldformat", func(b []byte) []byte { return append([]byte("SSIDX1\n\x00"), b[8:]...) })
}

func TestFileTruncatedData(t *testing.T) {
	c := buildCollection(t, 200, 11)
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.bin")
	if err := WriteFile(path, c, 0); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the last 40% of the file: the record table and footer go with
	// it, so Open must fail.
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "cut.bin")
	if err := os.WriteFile(bad, raw[:len(raw)*6/10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated data: err = %v, want ErrCorrupt", err)
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := OpenFile(filepath.Join(t.TempDir(), "nope.bin")); err == nil {
		t.Error("OpenFile on missing file succeeded")
	}
}

func BenchmarkMemCursorScan(b *testing.B) {
	c := buildCollection(b, 3000, 12)
	st := BuildMem(c, 0)
	// Find the longest list.
	var best tokenize.Token
	for tok := 0; tok < c.NumTokens(); tok++ {
		if st.ListLen(tokenize.Token(tok)) > st.ListLen(best) {
			best = tokenize.Token(tok)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for cur := st.WeightCursor(best); cur.Valid(); cur.Next() {
			_ = cur.Posting()
		}
	}
}

func BenchmarkFileCursorScan(b *testing.B) {
	c := buildCollection(b, 3000, 12)
	path := filepath.Join(b.TempDir(), "idx.bin")
	if err := WriteFile(path, c, 0); err != nil {
		b.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	var best tokenize.Token
	for tok := 0; tok < c.NumTokens(); tok++ {
		if fs.ListLen(tokenize.Token(tok)) > fs.ListLen(best) {
			best = tokenize.Token(tok)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for cur := fs.WeightCursor(best); cur.Valid(); cur.Next() {
			_ = cur.Posting()
		}
	}
}

func TestBlockCacheBehaviour(t *testing.T) {
	// Eviction is per shard; collect three keys that hash to the same
	// shard so the capacity-2 LRU behaviour is deterministic.
	c := newBlockCache(2 * cacheShardCount) // per-shard capacity 2
	var keys []int
	want := c.shardFor(1)
	for blk := 1; len(keys) < 3; blk++ {
		if c.shardFor(blk) == want {
			keys = append(keys, blk)
		}
	}
	k1, k2, k3 := keys[0], keys[1], keys[2]
	if _, ok := c.get(k1); ok {
		t.Fatal("empty cache hit")
	}
	c.put(k1, []Posting{{ID: 1}})
	c.put(k2, []Posting{{ID: 2}})
	if blk, ok := c.get(k1); !ok || blk[0].ID != 1 {
		t.Fatal("k1 missing")
	}
	// k1 is now most recent; inserting k3 must evict k2.
	c.put(k3, []Posting{{ID: 3}})
	if _, ok := c.get(k2); ok {
		t.Fatal("LRU did not evict k2")
	}
	if _, ok := c.get(k1); !ok {
		t.Fatal("k1 evicted despite recency")
	}
	st := c.stats()
	if st.Blocks != 2 || st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Disabled cache never stores.
	d := newBlockCache(0)
	d.put(k1, nil)
	if _, ok := d.get(k1); ok {
		t.Fatal("disabled cache stored")
	}
	// nil cache is inert.
	var nc *blockCache
	nc.put(k1, nil)
	if _, ok := nc.get(k1); ok {
		t.Fatal("nil cache hit")
	}
	if nc.stats() != (CacheStats{}) {
		t.Fatal("nil cache stats")
	}
}

func TestBlockCacheSharding(t *testing.T) {
	// Keys spread over shards; total stats aggregate across them.
	c := newBlockCache(64)
	for tok := 0; tok < 32; tok++ {
		c.put(tok, []Posting{{ID: collection.SetID(tok)}})
	}
	for tok := 0; tok < 32; tok++ {
		blk, ok := c.get(tok)
		if !ok || blk[0].ID != collection.SetID(tok) {
			t.Fatalf("token %d missing after spread insert", tok)
		}
	}
	st := c.stats()
	if st.Hits != 32 || st.Misses != 0 || st.Blocks != 32 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFileStoreCacheHits(t *testing.T) {
	c := buildCollection(t, 800, 13)
	path := filepath.Join(t.TempDir(), "idx.bin")
	if err := WriteFile(path, c, 8); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	var longest tokenize.Token
	for tok := 0; tok < c.NumTokens(); tok++ {
		if fs.ListLen(tokenize.Token(tok)) > fs.ListLen(longest) {
			longest = tokenize.Token(tok)
		}
	}
	// First scan: misses; second scan of the same list: hits.
	drain(fs.WeightCursor(longest))
	after1 := fs.CacheStats()
	drain(fs.WeightCursor(longest))
	after2 := fs.CacheStats()
	if after1.Misses == 0 {
		t.Fatal("first scan produced no misses")
	}
	if after2.Hits <= after1.Hits {
		t.Fatalf("second scan produced no hits: %+v -> %+v", after1, after2)
	}
	if after2.Misses != after1.Misses {
		t.Fatalf("second scan missed: %+v -> %+v", after1, after2)
	}
	// Cached and uncached stores must agree.
	raw, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.cache = newBlockCache(0)
	a, b := drain(fs.WeightCursor(longest)), drain(raw.WeightCursor(longest))
	if len(a) != len(b) {
		t.Fatal("cached and uncached scans differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("cached and uncached postings differ")
		}
	}
}

// idColumns splits postings into the arena's id and length columns.
func idColumns(ps []Posting) (PostingIDs, PostingLens) {
	ids, lens := make(PostingIDs, len(ps)), make(PostingLens, len(ps))
	for i, p := range ps {
		ids[i], lens[i] = uint32(p.ID), p.Len
	}
	return ids, lens
}

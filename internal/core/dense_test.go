package core

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/invlist"
	"repro/internal/tokenize"
)

// TestDenseListResidency pins what the lists of an engine cost: 12 bytes
// a posting (a 4-byte id beside its 8-byte length) plus 4 bytes a token
// for each of the two offset tables, and ⌈n/64⌉ words for the bitmap of
// each list with at least max(64, n/64) of the n sets — holding exactly
// that list's ids. An engine over a list file builds the same bitmaps.
func TestDenseListResidency(t *testing.T) {
	docs := denseDocs(3000, 8401)
	e := engineFromDocs(docs, Config{})
	n, tokens := e.c.NumSets(), e.c.NumTokens()
	minLen := max(64, n/64)
	var postings, bitmaps int64
	dense := 0
	for tk := range tokens {
		ln := e.store.ListLen(tokenize.Token(tk))
		postings += int64(ln)
		b := e.dense.of(tokenize.Token(tk))
		if ln < minLen {
			if b != nil {
				t.Fatalf("token %d: %d postings, below %d, has a bitmap", tk, ln, minLen)
			}
			continue
		}
		dense++
		bitmaps += int64((n+63)/64) * 8
		ones := 0
		for _, w := range b {
			ones += bits.OnesCount64(w)
		}
		cur := e.store.WeightCursor(tokenize.Token(tk))
		for ; cur.Valid(); cur.Next() {
			if !has(b, cur.Posting().ID) {
				t.Fatalf("token %d: bitmap misses set %d", tk, cur.Posting().ID)
			}
		}
		if ones != ln {
			t.Fatalf("token %d: bitmap holds %d sets, list %d", tk, ones, ln)
		}
	}
	if dense == 0 || dense == tokens {
		t.Fatalf("%d of %d lists dense: the corpus does not exercise the threshold", dense, tokens)
	}
	z := e.Sizes()
	if want := 12*postings + 8*int64(tokens+1); z.WeightLists != want {
		t.Errorf("WeightLists = %d bytes, want 12 × %d postings + 8 × %d offsets = %d", z.WeightLists, postings, tokens+1, want)
	}
	if z.Bitmaps != bitmaps {
		t.Errorf("Bitmaps = %d bytes, want %d for %d dense lists of %d sets", z.Bitmaps, bitmaps, dense, n)
	}
	if z.Total() != z.WeightLists+z.SkipIndexes+z.Bitmaps {
		t.Errorf("Total %d is not the sum of %+v", z.Total(), z)
	}

	path := t.TempDir() + "/lists"
	if err := invlist.WriteFile(path, e.c, 0); err != nil {
		t.Fatal(err)
	}
	fs, err := invlist.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	fe := NewEngine(e.c, Config{Store: fs})
	if got := fe.Sizes(); got != z {
		t.Errorf("file-backed engine sizes %+v, want the in-memory engine's %+v", got, z)
	}
	if !slices.Equal(fe.dense.tokens, e.dense.tokens) || !slices.Equal(fe.dense.bits, e.dense.bits) {
		t.Error("file-backed engine's bitmaps differ from the in-memory engine's")
	}
}

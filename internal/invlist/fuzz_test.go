package invlist

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/collection"
	"repro/internal/tokenize"
)

// FuzzOpenFile hardens the index-file parser: arbitrary bytes must open
// with an error or yield cursors that can be drained without panicking.
func FuzzOpenFile(f *testing.F) {
	b := collection.NewBuilder(tokenize.QGramTokenizer{Q: 3}, false)
	b.Add("alpha")
	b.Add("alphabet")
	b.Add("beta")
	c := b.Build()
	dir, err := os.MkdirTemp("", "fuzzidx")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	seedPath := filepath.Join(dir, "seed.bin")
	if err := WriteFile(seedPath, c, 2); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)*2/3])
	// One flip inside the record table (which ends 24 bytes from the end)
	// and one inside the first arena record (which starts at byte 16).
	for _, at := range []int{len(valid) - 24 - 5, 16 + 5} {
		mut := append([]byte(nil), valid...)
		mut[at] ^= 0xff
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		st, err := OpenFile(path)
		if err != nil {
			return
		}
		defer st.Close()
		// Drain a few cursors; errors are fine, panics are not.
		for tok := 0; tok < 8; tok++ {
			cur := st.WeightCursor(tokenize.Token(tok))
			for i := 0; cur.Valid() && i < 1000; i++ {
				_ = cur.Posting()
				cur.Next()
			}
			sc := st.WeightCursor(tokenize.Token(tok))
			sc.SeekLen(1.5)
			for i := 0; sc.Valid() && i < 1000; i++ {
				_ = sc.Posting()
				sc.Next()
			}
		}
	})
}

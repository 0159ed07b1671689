package collection

import (
	"bytes"
	"testing"

	"repro/internal/tokenize"
)

// FuzzRead hardens the binary collection parser: arbitrary input must
// produce either a valid collection or an error — never a panic — whose
// every Tokens run is its Set's tokens with no spare capacity, and a
// valid round-trip must re-serialize identically.
func FuzzRead(f *testing.F) {
	// Seed with a genuine serialized collection and mutations thereof.
	b := NewBuilder(tokenize.QGramTokenizer{Q: 3}, true)
	b.Add("main street")
	b.Add("maine st")
	b.Add("mainmain") // a gram with TF > 1
	var buf bytes.Buffer
	if err := Write(&buf, b.Build()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/2] ^= 0x55
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := c.Validate(); verr != nil {
			t.Fatalf("Read accepted an inconsistent collection: %v", verr)
		}
		for id := range c.NumSets() {
			toks, set := c.Tokens(SetID(id)), c.Set(SetID(id))
			if len(toks) != len(set) || cap(toks) != len(toks) {
				t.Fatalf("set %d: Tokens has len %d cap %d for %d entries", id, len(toks), cap(toks), len(set))
			}
			for i, cnt := range set {
				if toks[i] != cnt.Token {
					t.Fatalf("set %d: Tokens %v disagree with Set %v", id, toks, set)
				}
			}
		}
		var out bytes.Buffer
		if err := Write(&out, c); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		c2, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if c2.NumSets() != c.NumSets() || c2.NumTokens() != c.NumTokens() {
			t.Fatal("round-trip changed shape")
		}
		var again bytes.Buffer
		if err := Write(&again, c2); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		if !bytes.Equal(again.Bytes(), out.Bytes()) {
			t.Fatal("round-trip changed the bytes")
		}
	})
}

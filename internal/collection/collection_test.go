package collection

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/tokenize"
)

func buildWords(t *testing.T, keepSource bool, strs ...string) *Collection {
	t.Helper()
	b := NewBuilder(tokenize.WordTokenizer{}, keepSource)
	for _, s := range strs {
		b.Add(s)
	}
	c := b.Build()
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return c
}

func TestBuildBasics(t *testing.T) {
	c := buildWords(t, true, "main st main", "main st maine", "florham park")
	if c.NumSets() != 3 {
		t.Fatalf("NumSets = %d", c.NumSets())
	}
	mainTok, ok := c.Dict().Lookup("main")
	if !ok {
		t.Fatal("token main missing")
	}
	if got := c.DF(mainTok); got != 2 {
		t.Errorf("DF(main) = %d, want 2", got)
	}
	maineTok, _ := c.Dict().Lookup("maine")
	if got := c.DF(maineTok); got != 1 {
		t.Errorf("DF(maine) = %d, want 1", got)
	}
	// Rare token weighs more.
	if c.IDFWeight(maineTok) <= c.IDFWeight(mainTok) {
		t.Errorf("idf(maine)=%g not above idf(main)=%g",
			c.IDFWeight(maineTok), c.IDFWeight(mainTok))
	}
	if c.Source(1) != "main st maine" {
		t.Errorf("Source(1) = %q", c.Source(1))
	}
}

func TestAddEmpty(t *testing.T) {
	b := NewBuilder(tokenize.WordTokenizer{}, false)
	if b.Add("...") {
		t.Error("Add of token-free string reported true")
	}
	if !b.Add("word") {
		t.Error("Add of real string reported false")
	}
	if b.Len() != 1 {
		t.Errorf("Len = %d, want 1", b.Len())
	}
}

func TestLengthMatchesDefinition(t *testing.T) {
	c := buildWords(t, false, "a b", "a c", "a b c d")
	for id := 0; id < c.NumSets(); id++ {
		var sum float64
		for _, cnt := range c.Set(SetID(id)) {
			w := sim.IDF(c.DF(cnt.Token), c.NumSets())
			if math.Abs(w-c.IDFWeight(cnt.Token)) > 1e-12 {
				t.Fatalf("stored idf mismatch for token %d", cnt.Token)
			}
			sum += w * w
		}
		if math.Abs(c.Length(SetID(id))-math.Sqrt(sum)) > 1e-12 {
			t.Errorf("len(%d) = %g, want %g", id, c.Length(SetID(id)), math.Sqrt(sum))
		}
	}
}

func TestSourcePanicsWithoutKeep(t *testing.T) {
	c := buildWords(t, false, "a b")
	if c.HasSource() {
		t.Fatal("HasSource true without keepSource")
	}
	defer func() {
		if recover() == nil {
			t.Error("Source did not panic")
		}
	}()
	c.Source(0)
}

func TestTokenSets(t *testing.T) {
	c := buildWords(t, false, "a b", "b c", "a b c")
	got := map[string][]SetID{}
	c.TokenSets(func(tok tokenize.Token, ids []SetID) {
		cp := append([]SetID(nil), ids...)
		got[c.Dict().String(tok)] = cp
	})
	want := map[string][]SetID{
		"a": {0, 2},
		"b": {0, 1, 2},
		"c": {1, 2},
	}
	for tok, ids := range want {
		g := got[tok]
		if len(g) != len(ids) {
			t.Fatalf("token %q ids %v, want %v", tok, g, ids)
		}
		for i := range ids {
			if g[i] != ids[i] {
				t.Fatalf("token %q ids %v, want %v", tok, g, ids)
			}
		}
	}
}

func TestTokenSetsAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewBuilder(tokenize.QGramTokenizer{Q: 2}, false)
	for i := 0; i < 200; i++ {
		n := 2 + rng.Intn(10)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteByte(byte('a' + rng.Intn(6)))
		}
		b.Add(sb.String())
	}
	c := b.Build()
	c.TokenSets(func(tok tokenize.Token, ids []SetID) {
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				t.Fatalf("token %d ids not strictly ascending: %v", tok, ids)
			}
		}
		if len(ids) != c.DF(tok) {
			t.Fatalf("token %d list length %d != df %d", tok, len(ids), c.DF(tok))
		}
	})
}

func TestAvgTokens(t *testing.T) {
	c := buildWords(t, false, "a a b", "c") // 3 + 1 token occurrences
	if got := c.AvgTokens(); math.Abs(got-2) > 1e-12 {
		t.Errorf("AvgTokens = %g, want 2", got)
	}
}

func TestSelfSimilarityOne(t *testing.T) {
	c := buildWords(t, false, "alpha beta", "beta gamma", "alpha gamma delta")
	m := sim.IDFMeasure{Stats: c}
	for id := 0; id < c.NumSets(); id++ {
		s := c.Set(SetID(id))
		if got := m.Score(s, s); math.Abs(got-1) > 1e-12 {
			t.Errorf("self similarity of set %d = %g", id, got)
		}
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	c := buildWords(t, false, "a b", "b c")
	c.df[0]++ // corrupt
	if err := c.Validate(); err == nil {
		t.Error("Validate missed a df corruption")
	}
}

func BenchmarkBuild(b *testing.B) {
	words := make([]string, 1000)
	rng := rand.New(rand.NewSource(1))
	for i := range words {
		n := 4 + rng.Intn(10)
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = byte('a' + rng.Intn(26))
		}
		words[i] = string(buf)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(tokenize.QGramTokenizer{Q: 3}, false)
		for _, w := range words {
			bld.Add(w)
		}
		bld.Build()
	}
}

package tokenize

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestWordTokenizer(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"Main St., Main", []string{"main", "st", "main"}},
		{"", nil},
		{"   ", nil},
		{"hello", []string{"hello"}},
		{"Hello, World!", []string{"hello", "world"}},
		{"a-b_c", []string{"a", "b", "c"}},
		{"R2D2 unit 42", []string{"r2d2", "unit", "42"}},
		{"naïve café", []string{"naïve", "café"}},
		{"trailing space ", []string{"trailing", "space"}},
		{"...punct...only...", []string{"punct", "only"}},
	}
	var tk WordTokenizer
	for _, tc := range tests {
		got := tk.Tokens(nil, tc.in)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tokens(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestQGramTokenizerUnpadded(t *testing.T) {
	tk := QGramTokenizer{Q: 3}
	tests := []struct {
		in   string
		want []string
	}{
		{"main", []string{"mai", "ain"}},
		{"abc", []string{"abc"}},
		{"ab", []string{"ab"}}, // shorter than Q: whole string as one token
		{"", nil},
		{"Maine", []string{"mai", "ain", "ine"}},
	}
	for _, tc := range tests {
		got := tk.Tokens(nil, tc.in)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tokens(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestQGramTokenizerPadded(t *testing.T) {
	tk := QGramTokenizer{Q: 3, Pad: true}
	got := tk.Tokens(nil, "ab")
	want := []string{"##a", "#ab", "ab$", "b$$"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("padded Tokens(ab) = %v, want %v", got, want)
	}
	if got := tk.Tokens(nil, ""); len(got) != 0 {
		// Padding an empty string yields only pad runes; we still emit the
		// pad-only grams, which is the conventional behaviour.
		want := []string{"##$", "#$$"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("padded Tokens(\"\") = %v, want %v or empty", got, want)
		}
	}
}

func TestQGramTokenizerUnicode(t *testing.T) {
	tk := QGramTokenizer{Q: 2}
	got := tk.Tokens(nil, "héllo")
	want := []string{"hé", "él", "ll", "lo"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens(héllo) = %v, want %v", got, want)
	}
}

func TestQGramInvalidQ(t *testing.T) {
	tk := QGramTokenizer{Q: 0}
	if got := tk.Tokens(nil, "abc"); len(got) != 0 {
		t.Errorf("Q=0 should produce no tokens, got %v", got)
	}
}

func TestTokenizerNames(t *testing.T) {
	if got := (WordTokenizer{}).Name(); got != "word" {
		t.Errorf("WordTokenizer.Name = %q", got)
	}
	if got := (QGramTokenizer{Q: 3}).Name(); got != "qgram(3)" {
		t.Errorf("QGramTokenizer.Name = %q", got)
	}
	if got := (QGramTokenizer{Q: 4, Pad: true}).Name(); got != "qgram(4,padded)" {
		t.Errorf("padded QGramTokenizer.Name = %q", got)
	}
}

func TestQGramCount(t *testing.T) {
	// n runes with Q=3 unpadded must yield n-2 grams for n >= 3.
	tk := QGramTokenizer{Q: 3}
	for n := 3; n < 30; n++ {
		s := strings.Repeat("ab", n)[:n]
		if got := len(tk.Tokens(nil, s)); got != n-2 {
			t.Errorf("len=%d: got %d grams, want %d", n, got, n-2)
		}
	}
}

func TestDictIntern(t *testing.T) {
	d := NewDict()
	a := d.Intern("alpha")
	b := d.Intern("beta")
	a2 := d.Intern("alpha")
	if a != a2 {
		t.Errorf("re-interning produced a new id: %d vs %d", a, a2)
	}
	if a == b {
		t.Errorf("distinct strings share an id")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if d.String(a) != "alpha" || d.String(b) != "beta" {
		t.Errorf("String round-trip failed")
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Errorf("Lookup(gamma) unexpectedly found")
	}
	if id, ok := d.Lookup("beta"); !ok || id != b {
		t.Errorf("Lookup(beta) = %d,%v", id, ok)
	}
}

func TestDictDenseIDs(t *testing.T) {
	d := NewDict()
	for i := 0; i < 100; i++ {
		id := d.Intern(strings.Repeat("x", i+1))
		if id != Token(i) {
			t.Fatalf("id %d assigned for %dth string", id, i)
		}
	}
}

func TestCounts(t *testing.T) {
	d := NewDict()
	counts := Counts(nil, d, WordTokenizer{}, "Main St., Main", nil)
	if len(counts) != 2 {
		t.Fatalf("got %d distinct tokens, want 2 (counts=%v)", len(counts), counts)
	}
	// Sorted by token id; "main" interned first (id 0), then "st" (id 1).
	if counts[0].Token != 0 || counts[0].TF != 2 {
		t.Errorf("counts[0] = %+v, want {0 2}", counts[0])
	}
	if counts[1].Token != 1 || counts[1].TF != 1 {
		t.Errorf("counts[1] = %+v, want {1 1}", counts[1])
	}
}

func TestCountsEmpty(t *testing.T) {
	d := NewDict()
	if got := Counts(nil, d, WordTokenizer{}, "!!!", nil); got != nil {
		t.Errorf("Counts of punctuation-only = %v, want nil", got)
	}
}

func TestCountsSorted(t *testing.T) {
	d := NewDict()
	// Pre-intern in an order that differs from appearance order below.
	d.Intern("zz")
	d.Intern("aa")
	counts := Counts(nil, d, WordTokenizer{}, "aa bb zz aa", nil)
	for i := 1; i < len(counts); i++ {
		if counts[i-1].Token >= counts[i].Token {
			t.Fatalf("counts not strictly sorted: %v", counts)
		}
	}
}

func TestLookupCounts(t *testing.T) {
	d := NewDict()
	Counts(nil, d, WordTokenizer{}, "alpha beta", nil)
	counts, unknown := LookupCounts(d, WordTokenizer{}, "alpha gamma alpha", nil)
	if unknown != 1 {
		t.Errorf("unknown = %d, want 1", unknown)
	}
	if len(counts) != 1 || counts[0].TF != 2 {
		t.Errorf("counts = %v, want one entry with TF=2", counts)
	}
	if d.Len() != 2 {
		t.Errorf("LookupCounts mutated the dictionary: len=%d", d.Len())
	}
}

func TestLookupCountsAllUnknown(t *testing.T) {
	d := NewDict()
	counts, unknown := LookupCounts(d, WordTokenizer{}, "x y z", nil)
	if counts != nil || unknown != 3 {
		t.Errorf("got %v,%d want nil,3", counts, unknown)
	}
}

func TestSortTokensQuick(t *testing.T) {
	f := func(vals []uint32) bool {
		a := make([]Token, len(vals))
		for i, v := range vals {
			a[i] = Token(v)
		}
		sortTokens(a)
		return sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCountsQuickTFSum(t *testing.T) {
	// Property: sum of TFs equals the number of word tokens emitted.
	rng := rand.New(rand.NewSource(7))
	words := []string{"a", "bb", "ccc", "dd", "e", "ff"}
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(12)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = words[rng.Intn(len(words))]
		}
		s := strings.Join(parts, " ")
		d := NewDict()
		counts := Counts(nil, d, WordTokenizer{}, s, nil)
		sum := 0
		for _, c := range counts {
			sum += int(c.TF)
		}
		if sum != n {
			t.Fatalf("TF sum %d != token count %d for %q", sum, n, s)
		}
	}
}

func BenchmarkQGramTokens(b *testing.B) {
	tk := QGramTokenizer{Q: 3}
	var scratch []string
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scratch = tk.Tokens(scratch[:0], "approximately fourteen chars")
	}
}

func BenchmarkCounts(b *testing.B) {
	d := NewDict()
	tk := QGramTokenizer{Q: 3}
	var sc Scratch
	var dst []Count
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = Counts(dst[:0], d, tk, "benchmark string with words", &sc)
	}
}

func TestParseName(t *testing.T) {
	for _, tk := range []Tokenizer{
		WordTokenizer{},
		QGramTokenizer{Q: 3},
		QGramTokenizer{Q: 4, Pad: true},
	} {
		got, err := ParseName(tk.Name())
		if err != nil {
			t.Fatalf("ParseName(%q): %v", tk.Name(), err)
		}
		if got.Name() != tk.Name() {
			t.Errorf("round trip %q -> %q", tk.Name(), got.Name())
		}
		// Behavioural equality on a sample string.
		a := tk.Tokens(nil, "hello world")
		b := got.Tokens(nil, "hello world")
		if len(a) != len(b) {
			t.Errorf("%q: tokenizers disagree", tk.Name())
		}
	}
	for _, bad := range []string{"", "qgram(0)", "qgram(-1)", "bogus", "qgram(x)"} {
		if _, err := ParseName(bad); err == nil {
			t.Errorf("ParseName(%q) succeeded", bad)
		}
	}
}

// refQGrams is the []rune window loop QGramTokenizer.Tokens ran before
// its windows became substrings: the reference the byte-offset walk must
// reproduce gram for gram.
func refQGrams(t QGramTokenizer, dst []string, s string) []string {
	q := t.Q
	if q <= 0 {
		return dst
	}
	runes := []rune(strings.ToLower(s))
	if t.Pad {
		padded := make([]rune, 0, len(runes)+2*(q-1))
		for i := 0; i < q-1; i++ {
			padded = append(padded, '#')
		}
		padded = append(padded, runes...)
		for i := 0; i < q-1; i++ {
			padded = append(padded, '$')
		}
		runes = padded
	}
	if len(runes) < q {
		if len(runes) > 0 {
			dst = append(dst, string(runes))
		}
		return dst
	}
	for i := 0; i+q <= len(runes); i++ {
		dst = append(dst, string(runes[i:i+q]))
	}
	return dst
}

// checkAgainstRef requires tk's grams of s to equal the reference's.
func checkAgainstRef(t *testing.T, tk QGramTokenizer, s string) {
	t.Helper()
	got, want := tk.Tokens(nil, s), refQGrams(tk, nil, s)
	if !slices.Equal(got, want) {
		t.Fatalf("%s of %q:\n got %q\nwant %q", tk.Name(), s, got, want)
	}
}

// qgramRefInputs are the shapes the substring walk could get wrong:
// ASCII, multi-byte runes, mixed case, runes whose lower-casing changes
// their byte length (İ is 2 bytes and lowers to the 3-byte i̇; Ⱥ is 2
// bytes and lowers to the 3-byte ⱥ), invalid UTF-8, and inputs shorter
// than Q.
var qgramRefInputs = []string{
	"", "a", "ab", "abc", "main street", "Main Street", "MAIN",
	"héllo wörld", "ααααα βββ 123", "日本語のテキスト", "İstanbul", "ȺȾ mixed Ⱥ", "aİ",
	"\x00\xff\xfe", "ok\xffok", "é", "éé",
}

func TestQGramMatchesRuneReference(t *testing.T) {
	for _, s := range qgramRefInputs {
		for q := 1; q <= 5; q++ {
			checkAgainstRef(t, QGramTokenizer{Q: q}, s)
			checkAgainstRef(t, QGramTokenizer{Q: q, Pad: true}, s)
		}
	}
}

// TestTokensAllocations pins the tokenizers to the allocations their
// inputs force: none for a lower-case ASCII word into a warm dst (the
// tokens are substrings of the input), one when strings.ToLower has to
// build the lowered copy.
func TestTokensAllocations(t *testing.T) {
	for _, tk := range []Tokenizer{QGramTokenizer{Q: 3}, WordTokenizer{}} {
		dst := tk.Tokens(nil, "approximately")
		for _, c := range []struct {
			in   string
			want float64
		}{{"approximately", 0}, {"Approximately", 1}} {
			got := testing.AllocsPerRun(100, func() { dst = tk.Tokens(dst[:0], c.in) })
			if got != c.want {
				t.Errorf("%s.Tokens(%q): %v allocs per run, want %v", tk.Name(), c.in, got, c.want)
			}
		}
	}
}

// TestCountsKeepsScratch: the token buffer grown by one call serves the
// next, and Intern does not retain the document a new token came from.
func TestCountsKeepsScratch(t *testing.T) {
	d := NewDict()
	var sc Scratch
	doc := "approximately"
	Counts(nil, d, QGramTokenizer{Q: 3}, doc, &sc)
	if cap(sc.strs) < len(doc)-2 || cap(sc.ids) < len(doc)-2 {
		t.Fatalf("scratch capacities %d, %d after a call that produced %d grams", cap(sc.strs), cap(sc.ids), len(doc)-2)
	}
	if g := d.String(0); unsafe.StringData(g) == unsafe.StringData(doc) {
		t.Fatal("interned token aliases the document it was cut from")
	}
}

// TestCountsAppends: Counts extends dst without touching its prefix,
// and a warm call on interned tokens into a warm dst allocates nothing.
func TestCountsAppends(t *testing.T) {
	d := NewDict()
	var sc Scratch
	head := Count{Token: 9, TF: 3}
	dst := Counts([]Count{head}, d, WordTokenizer{}, "b a b", &sc)
	want := []Count{head, {Token: 0, TF: 2}, {Token: 1, TF: 1}}
	if len(dst) != len(want) {
		t.Fatalf("Counts = %v, want %v", dst, want)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Counts = %v, want %v", dst, want)
		}
	}
	if got := testing.AllocsPerRun(100, func() { dst = Counts(dst[:1], d, WordTokenizer{}, "b a b", &sc) }); got != 0 {
		t.Errorf("warm Counts: %v allocs per run, want 0", got)
	}
}

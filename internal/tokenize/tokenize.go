// Package tokenize decomposes strings into token multisets — words or
// positional q-grams — and maintains a dictionary mapping token strings to
// dense integer ids.
//
// The paper (§II, §VIII) tokenizes tuples into words and converts each word
// into a set of 3-grams; both tokenizers are provided here, along with the
// padded q-gram variant common in approximate string matching.
package tokenize

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a dense integer identifier for a token string, assigned by a Dict.
type Token uint32

// A Tokenizer decomposes a string into an ordered list of token strings.
// The output may contain duplicates; callers that need set semantics
// deduplicate downstream (see Counts).
type Tokenizer interface {
	// Tokens appends the tokens of s to dst and returns the extended slice.
	Tokens(dst []string, s string) []string
	// Name identifies the tokenizer, e.g. "word" or "qgram(3)".
	Name() string
}

// WordTokenizer splits a string into lowercase words on any run of
// non-letter, non-digit characters.
type WordTokenizer struct{}

// Name implements Tokenizer.
func (WordTokenizer) Name() string { return "word" }

// Tokens implements Tokenizer.
func (WordTokenizer) Tokens(dst []string, s string) []string {
	start := -1
	lower := strings.ToLower(s)
	for i, r := range lower {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			dst = append(dst, lower[start:i])
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, lower[start:])
	}
	return dst
}

// QGramTokenizer decomposes a string into overlapping substrings of Q bytes.
// If Pad is true the string is extended with Q-1 leading and trailing pad
// runes ('#' and '$' respectively), so that every character participates in
// exactly Q grams and strings shorter than Q still produce tokens.
type QGramTokenizer struct {
	Q   int
	Pad bool
}

// Name implements Tokenizer.
func (t QGramTokenizer) Name() string {
	if t.Pad {
		return "qgram(" + itoa(t.Q) + ",padded)"
	}
	return "qgram(" + itoa(t.Q) + ")"
}

// Tokens implements Tokenizer. Gram boundaries respect UTF-8 rune
// boundaries: each gram is a window of Q runes, not Q bytes. The grams
// are substrings of the lowered (and padded) string — strings.ToLower
// returns valid UTF-8 for any input that is not plain lower-case ASCII,
// so walking rune widths by byte offset yields exactly the windows a
// []rune conversion would — and cost no allocation of their own; they
// pin that string for as long as they are retained (Dict.Intern clones).
func (t QGramTokenizer) Tokens(dst []string, s string) []string {
	q := t.Q
	if q <= 0 {
		return dst
	}
	s = strings.ToLower(s)
	if t.Pad {
		s = strings.Repeat("#", q-1) + s + strings.Repeat("$", q-1)
	}
	end := 0
	for n := 0; n < q; n++ {
		if end == len(s) {
			// Fewer than Q runes: the whole string is the one gram.
			if len(s) > 0 {
				dst = append(dst, s)
			}
			return dst
		}
		end += runeWidth(s, end)
	}
	for start := 0; ; start += runeWidth(s, start) {
		dst = append(dst, s[start:end])
		if end == len(s) {
			return dst
		}
		end += runeWidth(s, end)
	}
}

// runeWidth is the byte width of the rune starting at s[i].
func runeWidth(s string, i int) int {
	if s[i] < utf8.RuneSelf {
		return 1
	}
	_, w := utf8.DecodeRuneInString(s[i:])
	return w
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// ParseName reconstructs a Tokenizer from its Name() string — the
// inverse used when loading a serialized collection.
func ParseName(name string) (Tokenizer, error) {
	if name == "word" {
		return WordTokenizer{}, nil
	}
	var q int
	if n, err := fmt.Sscanf(name, "qgram(%d,padded)", &q); err == nil && n == 1 && q > 0 {
		return QGramTokenizer{Q: q, Pad: true}, nil
	}
	if n, err := fmt.Sscanf(name, "qgram(%d)", &q); err == nil && n == 1 && q > 0 {
		return QGramTokenizer{Q: q}, nil
	}
	return nil, fmt.Errorf("tokenize: unknown tokenizer %q", name)
}

// Dict interns token strings, assigning each distinct string a dense Token
// id in first-seen order. The zero value is not usable; call NewDict.
type Dict struct {
	ids     map[string]Token
	strings []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]Token)}
}

// Intern returns the Token for s, assigning a fresh id if s is new. A new
// string is cloned: tokenizers return substrings of the document, and the
// dictionary must not pin every document that introduced a token.
func (d *Dict) Intern(s string) Token {
	if id, ok := d.ids[s]; ok {
		return id
	}
	s = strings.Clone(s)
	id := Token(len(d.strings))
	d.ids[s] = id
	d.strings = append(d.strings, s)
	return id
}

// Lookup returns the Token for s and whether s has been interned.
func (d *Dict) Lookup(s string) (Token, bool) {
	id, ok := d.ids[s]
	return id, ok
}

// String returns the string for a previously interned token. It panics if
// t was not produced by this dictionary.
func (d *Dict) String(t Token) string { return d.strings[t] }

// Len reports the number of distinct tokens interned.
func (d *Dict) Len() int { return len(d.strings) }

// A Count pairs a token with its multiplicity within one set.
type Count struct {
	Token Token
	TF    uint32
}

// Scratch holds the buffers Counts reuses from one call to the next: the
// string tokens and their interned ids. The zero value is ready to use;
// its contents are garbage between calls.
type Scratch struct {
	strs []string
	ids  []Token
}

// Counts tokenizes s with tk, interns every token in d, and appends the
// token-frequency pairs, sorted by ascending Token, to dst. It returns
// dst unchanged when s has no tokens. sc, if non-nil, keeps the grown
// intermediate buffers for the next call, so a warm caller appending
// into a warm dst allocates nothing for a string whose tokens are all
// interned.
func Counts(dst []Count, d *Dict, tk Tokenizer, s string, sc *Scratch) []Count {
	if sc == nil {
		sc = new(Scratch)
	}
	sc.strs = tk.Tokens(sc.strs[:0], s)
	sc.ids = sc.ids[:0]
	for _, t := range sc.strs {
		sc.ids = append(sc.ids, d.Intern(t))
	}
	return appendRuns(dst, sc.ids)
}

// LookupCounts is like Counts but never mutates the dictionary: tokens of s
// that were never interned are dropped. It additionally reports the number
// of token occurrences (with multiplicity) that were unknown.
func LookupCounts(d *Dict, tk Tokenizer, s string, scratch []string) (counts []Count, unknown int) {
	toks := tk.Tokens(scratch[:0], s)
	if len(toks) == 0 {
		return nil, 0
	}
	ids := make([]Token, 0, len(toks))
	for _, t := range toks {
		if id, ok := d.Lookup(t); ok {
			ids = append(ids, id)
		} else {
			unknown++
		}
	}
	if len(ids) == 0 {
		return nil, unknown
	}
	return appendRuns(make([]Count, 0, len(ids)), ids), unknown
}

// appendRuns sorts ids in place and appends one Count per distinct id,
// its TF the id's multiplicity.
func appendRuns(dst []Count, ids []Token) []Count {
	sortTokens(ids)
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[i] {
			j++
		}
		dst = append(dst, Count{Token: ids[i], TF: uint32(j - i)})
		i = j
	}
	return dst
}

// sortTokens sorts a small token slice in place (insertion sort for short
// inputs, which dominate in this workload; shell gaps otherwise).
func sortTokens(a []Token) {
	if len(a) < 2 {
		return
	}
	// Shell sort with Ciura gaps — avoids pulling in sort for a hot path
	// dominated by very small slices.
	gaps := [...]int{701, 301, 132, 57, 23, 10, 4, 1}
	for _, gap := range gaps {
		if gap >= len(a) {
			continue
		}
		for i := gap; i < len(a); i++ {
			v := a[i]
			j := i
			for j >= gap && a[j-gap] > v {
				a[j] = a[j-gap]
				j -= gap
			}
			a[j] = v
		}
	}
}

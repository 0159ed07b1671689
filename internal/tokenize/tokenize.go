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
//
// Tokens must be safe for concurrent use: concurrent queries prepare
// through it, and a build tokenizes its corpus in chunks side by side.
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

// Tokens implements Tokenizer. Plain lower-case ASCII, which
// strings.ToLower would return as it is, is split in the same pass that
// checks it; anything else is lowered first.
func (WordTokenizer) Tokens(dst []string, s string) []string {
	start, n := -1, len(dst)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z' || '0' <= c && c <= '9':
			if start < 0 {
				start = i
			}
		case c >= utf8.RuneSelf || 'A' <= c && c <= 'Z':
			return lowerWords(dst[:n], strings.ToLower(s))
		case start >= 0:
			dst = append(dst, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// lowerWords appends the words of a lowered string.
func lowerWords(dst []string, lower string) []string {
	start := -1
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
	return d.add(strings.Clone(s))
}

// add interns s, which is not yet interned and pins nothing.
func (d *Dict) add(s string) Token {
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

// A Chunk tokenizes a run of documents against token numbers of its
// own, so that several chunks of one corpus can tokenize side by side
// and then enter one Dict. Add each document; Intern the chunks into the
// Dict one after another in corpus order; Count each chunk (side by side
// again); then Fill each chunk's share of one arena. Intern enters a
// chunk's tokens in order of their first appearance in the run, so
// interning the chunks in corpus order gives every token the id a single
// Counts pass over the whole corpus would have given it, and the vectors
// Fill writes are what Counts would have appended, document by document.
// The zero value is ready to use. A Chunk keeps its token table and
// buffers across Reset, so tokenizing a run over the same vocabulary
// again allocates nothing.
type Chunk struct {
	slots   map[string]Token // token string (a clone) → slot, kept across runs
	strs    []string         // slot → token string
	seen    []uint32         // slot → the last run it appeared in
	run     uint32           // the current run, from 1
	order   []Token          // the run's slots in order of first appearance
	toks    []Token          // every document's tokens back to back: slots, sorted Dict ids after Count
	docs    []int            // document i's tokens are toks[docs[i]:docs[i+1]]
	remap   []Token          // slot → Dict id, for the run's slots
	entries []int            // entries[i]: document i's distinct tokens, after Count
	total   int              // the sum of entries
	scratch []string
}

// Reset empties the chunk for another run of documents.
func (c *Chunk) Reset() {
	if c.slots == nil {
		c.slots = make(map[string]Token)
	}
	clear(c.scratch) // the substrings pin their documents
	c.run++
	c.order, c.toks, c.docs = c.order[:0], c.toks[:0], append(c.docs[:0], 0)
}

// Add tokenizes s with tk and appends it as the chunk's next document.
// A token string is cloned the first time the chunk meets it: a table
// keyed by substrings of documents scattered over the heap costs a cache
// miss per lookup.
func (c *Chunk) Add(tk Tokenizer, s string) {
	if c.run == 0 {
		c.Reset()
	}
	c.scratch = tk.Tokens(c.scratch[:0], s)
	for _, t := range c.scratch {
		slot, ok := c.slots[t]
		if !ok {
			slot = Token(len(c.strs))
			t = strings.Clone(t)
			c.slots[t] = slot
			c.strs = append(c.strs, t)
			c.seen = append(c.seen, 0)
		}
		if c.seen[slot] != c.run {
			c.seen[slot] = c.run
			c.order = append(c.order, slot)
		}
		c.toks = append(c.toks, slot)
	}
	c.docs = append(c.docs, len(c.toks))
}

// Len reports the number of documents added since the last Reset.
func (c *Chunk) Len() int { return max(0, len(c.docs)-1) }

// Intern enters the run's token strings into d in order of first
// appearance. Chunks of one corpus must be interned one at a time, in
// corpus order.
func (c *Chunk) Intern(d *Dict) {
	if n := len(c.strs); len(c.remap) < n {
		c.remap = append(c.remap, make([]Token, n-len(c.remap))...)
	}
	for _, slot := range c.order {
		// The chunk's strings are clones already: the Dict shares them.
		id, ok := d.ids[c.strs[slot]]
		if !ok {
			id = d.add(c.strs[slot])
		}
		c.remap[slot] = id
	}
}

// Count renumbers every document's tokens to the Dict ids Intern
// assigned, sorts them, and counts the distinct ones.
func (c *Chunk) Count() {
	c.entries, c.total = c.entries[:0], 0
	for i := 0; i < c.Len(); i++ {
		ids := c.toks[c.docs[i]:c.docs[i+1]]
		for j, l := range ids {
			ids[j] = c.remap[l]
		}
		sortTokens(ids)
		n := 0
		for j := range ids {
			if j == 0 || ids[j] != ids[j-1] {
				n++
			}
		}
		c.entries = append(c.entries, n)
		c.total += n
	}
}

// Entries reports document i's vector length, after Count; it is 0 for a
// document with no tokens.
func (c *Chunk) Entries(i int) int { return c.entries[i] }

// Total reports the chunk's vector lengths summed, after Count.
func (c *Chunk) Total() int { return c.total }

// Fill writes every document's token-frequency vector, ascending by
// Token, back to back into dst, which must hold exactly Total entries.
func (c *Chunk) Fill(dst []Count) {
	dst = dst[:0:len(dst)]
	for i := 0; i < c.Len(); i++ {
		dst = appendSortedRuns(dst, c.toks[c.docs[i]:c.docs[i+1]])
	}
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
	return appendSortedRuns(dst, ids)
}

// appendSortedRuns is appendRuns for ids already sorted.
func appendSortedRuns(dst []Count, ids []Token) []Count {
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

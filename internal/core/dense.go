package core

import (
	"slices"

	"repro/internal/collection"
	"repro/internal/invlist"
	"repro/internal/par"
	"repro/internal/tokenize"
)

// denseFraction sets which lists are dense: those holding at least one
// set in denseFraction of the engine's sets, and at least denseFraction
// postings. A bitmap over the engine's set ids costs 8 bytes per 64 sets,
// so on such a list it costs at most 8 bytes per posting it shadows.
const denseFraction = 64

// denseLists holds a membership bitmap over the engine's set ids for
// every dense list. SF past µᵢ (completeSF), and iNRA and Hybrid when
// their admission gate shuts (completeDense), complete their candidates
// on a dense list with one bit test each where they would otherwise seek
// the list to every one of them: on a long list most seeks land where
// they started and few hit, and a bit test costs less than either (Ding &
// König's small-versus-large intersection).
type denseLists struct {
	tokens []tokenize.Token // the dense lists' tokens, ascending
	words  int              // words per bitmap: ⌈NumSets/64⌉
	bits   []uint64         // tokens[i]'s bitmap is bits[i·words:(i+1)·words]
}

// buildDense builds the bitmaps of c's dense lists, whose lengths store
// reports. Over a MemStore each bitmap is set from its list's ids, the
// dense tokens split between up to workers goroutines labelled
// stage=index; over another store, from one pass over the collection's
// token arena.
func buildDense(c *collection.Collection, store invlist.Store, workers int) denseLists {
	n := c.NumSets()
	minLen := max(denseFraction, n/denseFraction)
	dense := 0
	for t := range c.NumTokens() {
		if store.ListLen(tokenize.Token(t)) >= minLen {
			dense++
		}
	}
	if dense == 0 {
		return denseLists{}
	}
	d := denseLists{tokens: make([]tokenize.Token, 0, dense), words: (n + 63) / 64}
	for t := range c.NumTokens() {
		if store.ListLen(tokenize.Token(t)) >= minLen {
			d.tokens = append(d.tokens, tokenize.Token(t))
		}
	}
	d.bits = make([]uint64, len(d.tokens)*d.words)
	if ms, ok := store.(*invlist.MemStore); ok {
		par.Chunks(workers, len(d.tokens), "index", func(_, lo, hi int) {
			//ssvet:nostats engine build; no query Stats exist yet
			for r := lo; r < hi; r++ { //ssvet:nopoll engine build, not on any query path
				bits := d.bits[r*d.words : (r+1)*d.words]
				for _, id := range ms.ListIDs(d.tokens[r]) {
					bits[id>>6] |= 1 << (id & 63)
				}
			}
		})
		return d
	}
	row := make([]int32, c.NumTokens()) // token → its bitmap's index, -1 for none
	for t := range row {
		row[t] = -1
	}
	for r, t := range d.tokens {
		row[t] = int32(r)
	}
	for id := range n {
		for _, t := range c.Tokens(collection.SetID(id)) {
			if r := row[t]; r >= 0 {
				d.bits[int(r)*d.words+id>>6] |= 1 << (id & 63)
			}
		}
	}
	return d
}

// of returns token t's bitmap, or nil when its list is not dense.
func (d *denseLists) of(t tokenize.Token) []uint64 {
	i, ok := slices.BinarySearch(d.tokens, t)
	if !ok {
		return nil
	}
	return d.bits[i*d.words : (i+1)*d.words : (i+1)*d.words]
}

// has reports whether bitmap bits holds set id.
func has(bits []uint64, id collection.SetID) bool {
	return bits[id>>6]&(1<<(id&63)) != 0
}

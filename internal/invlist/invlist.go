// Package invlist implements the paper's inverted-list indexes (§III-B,
// §VIII): for every token, a list of (set id, normalized length) postings
// in one order, by ascending length (equivalently, descending per-token
// contribution wᵢ) and then id, plus a skip index per list so that Length
// Boundedness can jump directly to the first entry of a given length. The
// order is global (the paper's Order Preservation, Property 1), so the
// multiway-merge baseline merges these same lists by (length, id) instead
// of keeping a second, id-sorted copy. The skip index is static: the
// length of every SkipInterval-th posting, binary-searched.
//
// Two stores are provided. MemStore keeps the lists in memory as flat
// slices: the posting arena, held as two columns (4-byte set ids,
// PostingIDs, beside 8-byte lengths, PostingLens), its offset table, one
// arena of skip samples and its offset table. FileStore serves the same
// lists from a list file, which is one segment package (internal/segpack)
// holding them as four fixed-width little-endian records:
//
//	weight   postings × 16 B (id u64, len float64 bits), (Len, ID) order
//	off      (tokens+1) × u32 arena offsets
//	skips    float64 bits per skip sample
//	skipoff  (tokens+1) × u32 offsets into skips
//
// with the skip interval and the sets/tokens/postings counts of the
// collection as decimal metadata tags (interval, sets, tokens, postings).
// The three tables are read at open; postings are read from the arena
// record one checksum block at a time, verified before use, through a
// block cache. Both stores seek by the same rule: jump to the last
// sampled position whose length is below the target, then gallop through
// the block that follows.
package invlist

import (
	"repro/internal/collection"
	"repro/internal/tokenize"
)

// Posting is one inverted-list entry: a set and its normalized length.
// The length is all an algorithm needs to compute the set's contribution
// wᵢ = idf(qⁱ)²/(len(q)·len(s)) for any list i.
type Posting struct {
	ID  collection.SetID
	Len float64
}

// A Cursor iterates one inverted list in its stored order. Cursors are
// single-use and not safe for concurrent use.
type Cursor interface {
	// Valid reports whether the cursor is positioned at a posting.
	Valid() bool
	// Posting returns the current entry; the cursor must be Valid.
	Posting() Posting
	// Next advances to the following entry.
	Next()
	// SeekLen positions the cursor at the first posting with
	// Len ≥ min. skipped counts postings jumped over via the skip
	// index without being materialized; walked counts postings the
	// cursor had to read and discard inside the final skip block —
	// callers charge those as element reads. Only forward seeks are
	// supported. On the id-sorted cursor of MemStore.IDCursor SeekLen is
	// a no-op (that list is not length-ordered).
	SeekLen(min float64) (skipped, walked int)
	// Count returns the total number of postings in the list.
	Count() int
}

// CursorReuser is implemented by stores whose cursors can be reset and
// handed out again. Query engines keep one cursor per query-list slot
// alive across queries and pass it back as prev, making the steady-state
// cursor-open path allocation-free. prev must be a cursor previously
// returned by the same store (or nil); cursors obtained this way are
// invalidated by the next reuse call that receives them.
type CursorReuser interface {
	// WeightCursorReuse is WeightCursor, reusing prev when possible.
	WeightCursorReuse(t tokenize.Token, prev Cursor) Cursor
}

// RawPostings exposes the backing columns and current position of a
// cursor over an in-memory posting arena (MemStore cursors): posting i is
// the set ids[i] of length lens[i]. Hot loops use it to iterate postings
// by index, without one interface dispatch per posting. ok is false for
// disk-backed cursors; callers must fall back to the Cursor interface.
func RawPostings(c Cursor) (ids PostingIDs, lens PostingLens, pos int, ok bool) {
	if mc, isMem := c.(*memCursor); isMem {
		return mc.ids, mc.lens, mc.pos, true
	}
	return nil, nil, 0, false
}

// Err exposes a disk-backed cursor's deferred read or checksum error;
// algorithms surface it at the end of a scan. Other cursors cannot fail.
func Err(c Cursor) error {
	if fc, ok := c.(*fileCursor); ok {
		return fc.err
	}
	return nil
}

// Store provides the inverted lists of a corpus.
type Store interface {
	// WeightCursor opens the (len, id)-sorted list of token t.
	// Unknown tokens yield an empty cursor.
	WeightCursor(t tokenize.Token) Cursor
	// ListLen reports the number of postings for token t.
	ListLen(t tokenize.Token) int
	// Sizes reports storage accounting for the Fig. 5 experiment.
	Sizes() Sizes
	// Close releases resources (no-op for memory stores).
	Close() error
}

// Sizes itemizes index storage in bytes, mirroring the bars of Fig. 5.
// A Store reports its lists and skip indexes; the engine that reads them
// adds the membership bitmaps it keeps beside its dense lists.
type Sizes struct {
	WeightLists int64 // weight-sorted postings and the per-token offset tables
	SkipIndexes int64 // skip entries over weight-sorted lists
	Bitmaps     int64 // membership bitmaps beside the dense lists
}

// Total returns the sum of all components.
func (s Sizes) Total() int64 { return s.WeightLists + s.SkipIndexes + s.Bitmaps }

// emptyCursor is the cursor over a non-existent list.
type emptyCursor struct{}

func (emptyCursor) Valid() bool                { return false }
func (emptyCursor) Posting() Posting           { panic("invlist: Posting on invalid cursor") }
func (emptyCursor) Next()                      {}
func (emptyCursor) SeekLen(float64) (int, int) { return 0, 0 }
func (emptyCursor) Count() int                 { return 0 }

// Empty returns a cursor over an empty list.
func Empty() Cursor { return emptyCursor{} }

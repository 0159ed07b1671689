package invlist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/collection"
	"repro/internal/segpack"
	"repro/internal/tokenize"
)

// Record and metadata names of the list-file package (layout in the
// package comment) and the sizes its reader works in.
const (
	recWeight   = "weight"
	recOff      = "off"
	recSkips    = "skips"
	recSkipOff  = "skipoff"
	recByID     = "byid"                                 // retired id-sorted arena; refused at open
	postingSize = 16                                     // bytes per posting in an arena record and a decoded block
	perBlock    = segpack.DefaultBlockSize / postingSize // postings per checksum block: the read and cache unit
	cacheBlocks = 64                                     // block-cache budget: 4 MiB decoded, 4 blocks a shard
)

var metaKeys = [4]string{"interval", "sets", "tokens", "postings"}

// ErrCorrupt reports a structurally invalid or checksum-failing list
// file, including one in the format older builds wrote.
var ErrCorrupt = errors.New("invlist: corrupt index file")

// corrupt marks a segpack format failure as a list-file one; nil and
// operating-system errors pass through.
func corrupt(err error) error {
	if errors.Is(err, segpack.ErrCorrupt) || errors.Is(err, segpack.ErrVersion) || errors.Is(err, segpack.ErrNoRecord) {
		return fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return err
}

// WriteFile builds the disk-resident index for c at path: the MemStore
// BuildMem returns, slice for slice, as four records, so both stores
// answer every scan and seek identically. skipInterval ≤ 0 selects
// SkipInterval.
func WriteFile(path string, c *collection.Collection, skipInterval int) error {
	ms := BuildMem(c, skipInterval)
	w, err := segpack.Create(path)
	if err != nil {
		return err
	}
	for i, v := range [4]int{ms.interval, c.NumSets(), c.NumTokens(), len(ms.ids)} {
		w.SetMeta(metaKeys[i], []byte(strconv.Itoa(v)))
	}
	// The writer's errors are sticky and Close reports the first.
	w.AddRecord(recWeight, encodePostings(ms.ids, ms.lens))
	w.AddRecord(recOff, encodeTable(ms.off))
	w.AddRecord(recSkips, encodeTable(ms.skips))
	w.AddRecord(recSkipOff, encodeTable(ms.skipOff))
	return w.Close()
}

// encodePostings lays out an arena's columns as the record's 16-byte
// postings.
func encodePostings(ids PostingIDs, lens PostingLens) []byte {
	b := make([]byte, 0, len(ids)*postingSize)
	for i, id := range ids {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(lens[i]))
	}
	return b
}

func decodePostings(b []byte) []Posting {
	ps := make([]Posting, len(b)/postingSize)
	for i := range ps {
		id, l := binary.LittleEndian.Uint64(b[i*postingSize:]), binary.LittleEndian.Uint64(b[i*postingSize+8:])
		ps[i] = Posting{ID: collection.SetID(id), Len: math.Float64frombits(l)}
	}
	return ps
}

// encodeTable serializes a []uint32 or []float64.
func encodeTable(v any) []byte {
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, v) // cannot fail: fixed-size data into memory
	return b.Bytes()
}

// FileStore serves the lists of a file written by WriteFile. It holds the
// MemStore the file holds except for the posting arena, which it reads
// from its record one checksum block at a time, each verified before it
// is decoded, through a shared block cache. It is safe for concurrent
// readers: cursors hold their own position and the cache is synchronized.
type FileStore struct {
	pack  *segpack.FileReader
	m     MemStore // ids and lens stay nil
	sets  int
	cache *blockCache
}

// OpenFile opens and validates a list file. A file that is not a
// well-formed list package fails with an error wrapping ErrCorrupt.
func OpenFile(path string) (*FileStore, error) {
	pack, err := segpack.Open(path)
	if err != nil {
		return nil, corrupt(err)
	}
	s := &FileStore{pack: pack, cache: newBlockCache(cacheBlocks)}
	if err := s.load(); err != nil {
		pack.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// load refuses the retired layout, reads the metadata and the three
// tables and checks them against each other and the arena record, so that
// every position a cursor can compute lies inside a block the package
// holds.
func (s *FileStore) load() error {
	if s.pack.RecordSize(recByID) >= 0 {
		return fmt.Errorf("%w: retired %q record; rebuild the file", ErrCorrupt, recByID)
	}
	var meta [4]int
	for i, key := range metaKeys {
		v, _ := s.pack.Meta(key)
		n, err := strconv.Atoi(string(v))
		if err != nil || n < 0 {
			return fmt.Errorf("%w: bad %s tag %q", ErrCorrupt, key, v)
		}
		meta[i] = n
	}
	m, tokens, postings := &s.m, meta[2], meta[3]
	m.interval, s.sets = meta[0], meta[1]
	var e1, e2, e3 error
	m.off, e1 = readTable[uint32](s.pack, recOff)
	m.skipOff, e2 = readTable[uint32](s.pack, recSkipOff)
	m.skips, e3 = readTable[float64](s.pack, recSkips)
	if err := errors.Join(e1, e2, e3); err != nil {
		return err
	}
	arena := int64(postings) * postingSize
	m.account(postings)
	ok := m.interval > 0 && s.pack.BlockSize() == segpack.DefaultBlockSize &&
		len(m.off)-1 == tokens && len(m.skipOff)-1 == tokens &&
		m.off[0] == 0 && int(m.off[tokens]) == postings &&
		m.skipOff[0] == 0 && int(m.skipOff[tokens]) == len(m.skips) &&
		s.pack.RecordSize(recWeight) == arena
	for t := 0; ok && t < tokens; t++ {
		// (n-1)/interval samples for n postings, as BuildMem lays them
		// out, keeps every SeekLen landing position inside the list.
		n := int64(m.off[t+1]) - int64(m.off[t])
		ok = n >= 0 && int64(m.skipOff[t+1])-int64(m.skipOff[t]) == max(n-1, 0)/int64(m.interval)
	}
	if !ok {
		return fmt.Errorf("%w: offset tables disagree with the arena", ErrCorrupt)
	}
	return nil
}

// readTable reads a record of little-endian values.
func readTable[T uint32 | float64](pack *segpack.FileReader, name string) ([]T, error) {
	raw, err := pack.ReadRecord(name)
	if err != nil {
		return nil, corrupt(err)
	}
	var zero T
	out := make([]T, len(raw)/binary.Size(zero))
	if binary.Size(out) != len(raw) {
		return nil, fmt.Errorf("%w: record %q is %d bytes long", ErrCorrupt, name, len(raw))
	}
	binary.Read(bytes.NewReader(raw), binary.LittleEndian, out) // cannot fail: sized to raw
	return out, nil
}

// WeightCursor implements Store.
func (s *FileStore) WeightCursor(t tokenize.Token) Cursor {
	lo, hi := s.m.span(t)
	if lo == hi {
		return Empty()
	}
	return &fileCursor{s: s, base: int(lo), count: int(hi - lo),
		skip: s.m.skips[s.m.skipOff[t]:s.m.skipOff[t+1]]}
}

// ListLen implements Store.
func (s *FileStore) ListLen(t tokenize.Token) int { return s.m.ListLen(t) }

// Sizes implements Store: the accounting of the MemStore the file holds.
func (s *FileStore) Sizes() Sizes { return s.m.sizes }

// BuiltFrom reports whether c has the set count and the per-token list
// lengths of the collection the file was built from.
func (s *FileStore) BuiltFrom(c *collection.Collection) bool {
	return s.sets == c.NumSets() && slices.Equal(s.m.off, c.TokenOffsets())
}

// Verify checks every block checksum: blocks verified, first failure.
func (s *FileStore) Verify() (int, error) {
	blocks, err := s.pack.Verify()
	return blocks, corrupt(err)
}

// Close implements Store.
func (s *FileStore) Close() error { return s.pack.Close() }

// CacheStats reports block-cache hits and misses since open.
func (s *FileStore) CacheStats() CacheStats { return s.cache.stats() }

// fileCursor iterates one list. A read or checksum failure invalidates
// the cursor and is reported by Err.
type fileCursor struct {
	s          *FileStore
	base       int // arena position of the list's first posting
	count      int
	pos        int
	skip       []float64 // skip[j] == Len of weight posting (j+1)·interval
	block      []Posting // decoded checksum block holding the last posting read
	blockStart int       // arena position of block[0]
	err        error
}

func (c *fileCursor) Valid() bool { return c.err == nil && c.pos < c.count }
func (c *fileCursor) Next()       { c.pos++ }
func (c *fileCursor) Count() int  { return c.count }

func (c *fileCursor) Posting() Posting {
	if !c.Valid() {
		panic("invlist: Posting on invalid cursor")
	}
	return c.at(c.pos)
}

// at returns the posting at list position i, loading its block; a read or
// checksum failure sets err and returns the zero posting.
func (c *fileCursor) at(i int) Posting {
	at := c.base + i
	if j := at - c.blockStart; j < 0 || j >= len(c.block) {
		if c.load(at / perBlock); c.err != nil {
			return Posting{}
		}
	}
	return c.block[at-c.blockStart]
}

// load makes block b of the arena current: cached, or verified.
func (c *fileCursor) load(b int) {
	blk, ok := c.s.cache.get(b)
	if !ok {
		raw, err := c.s.pack.ReadBlock(recWeight, b)
		if err != nil {
			c.err = corrupt(err)
			return
		}
		blk = decodePostings(raw)
		c.s.cache.put(b, blk)
	}
	c.block, c.blockStart = blk, b*perBlock
}

// SeekLen lands and searches the landing block as memCursor.SeekLen does
// (searchBlock, here over postings read through the block cache), so both
// stores skip and walk alike. A block that fails to read stops the search
// and leaves the cursor invalid: no further block is loaded.
func (c *fileCursor) SeekLen(target float64) (skipped, walked int) {
	if !c.Valid() || c.at(c.pos).Len >= target || c.err != nil {
		return 0, 0
	}
	start := c.pos
	lo, end := landing(c.skip, c.s.m.interval, target, c.pos, c.count)
	below := func(i int) bool {
		if c.err != nil {
			return false
		}
		p := c.at(i)
		return c.err == nil && p.Len < target
	}
	hi, step := lo, 1
	for hi < end && below(hi) {
		walked++
		lo, hi, step = hi+1, hi+step, 2*step
	}
	for hi = min(hi, end); lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if below(mid) {
			walked++
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c.pos = lo
	return c.pos - start - walked, walked
}

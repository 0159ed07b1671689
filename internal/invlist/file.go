package invlist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/collection"
	"repro/internal/tokenize"
)

// File format (little endian):
//
//	header:  magic "SSIDX1\n\x00" | tocCRC uint32 | numTokens uint32
//	TOC:     per token: wOff u64 | wCount u32 | iOff u64 | iBytes u32 |
//	         iCount u32 | sOff u64 | sCount u32
//	data:    weight-sorted postings: fixed 16B (id u64, len float64 bits)
//	         id-sorted postings: uvarint id-delta + raw float64 len
//	         skip entries: fixed 12B (len float64 bits, pos u32)
//
// Offsets are absolute file offsets. The TOC is CRC-protected; postings
// sections are bounds-checked on read so truncation or offset corruption
// surfaces as an error instead of a crash.
const fileMagic = "SSIDX1\n\x00"

const (
	tocEntrySize   = 8 + 4 + 8 + 4 + 4 + 8 + 4
	postingSize    = 16
	skipEntrySize  = 12
	headerSize     = 8 + 4 + 4
	readBlockCount = 256 // postings fetched per sequential read
)

// ErrCorrupt reports a structurally invalid index file.
var ErrCorrupt = errors.New("invlist: corrupt index file")

type tocEntry struct {
	wOff   uint64
	wCount uint32
	iOff   uint64
	iBytes uint32
	iCount uint32
	sOff   uint64
	sCount uint32
}

// WriteFile builds the disk-resident index for c at path. skipInterval ≤ 0
// selects SkipInterval.
func WriteFile(path string, c *collection.Collection, skipInterval int) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()

	n := c.NumTokens()
	toc := make([]tocEntry, n)
	off := uint64(headerSize + n*tocEntrySize)

	// Pass 1: lay out and write the data region.
	if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var buf [16]byte
	// The file holds the lists and skip samples of the in-memory index,
	// so both stores answer every scan and seek identically.
	ms := BuildMem(c, skipInterval)
	for t := range toc {
		wl := ms.weight[ms.off[t]:ms.off[t+1]]
		e := &toc[t]
		e.wOff, e.wCount = off, uint32(len(wl))
		for _, p := range wl {
			binary.LittleEndian.PutUint64(buf[0:], uint64(p.ID))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Len))
			if _, err := w.Write(buf[:16]); err != nil {
				return err
			}
		}
		off += uint64(len(wl)) * postingSize

		ps := ms.byID[ms.off[t]:ms.off[t+1]]
		e.iOff, e.iCount = off, uint32(len(ps))
		var prev uint64
		for _, p := range ps {
			nb := binary.PutUvarint(buf[:10], uint64(p.ID)-prev)
			prev = uint64(p.ID)
			binary.LittleEndian.PutUint64(buf[nb:], math.Float64bits(p.Len))
			if _, err := w.Write(buf[:nb+8]); err != nil {
				return err
			}
			e.iBytes += uint32(nb + 8)
		}
		off += uint64(e.iBytes)

		samples := ms.skips[ms.skipOff[t]:ms.skipOff[t+1]]
		e.sOff, e.sCount = off, uint32(len(samples))
		for j, l := range samples {
			binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(l))
			binary.LittleEndian.PutUint32(buf[8:], uint32((j+1)*ms.interval))
			if _, err := w.Write(buf[:12]); err != nil {
				return err
			}
		}
		off += uint64(e.sCount) * skipEntrySize
	}
	if err := w.Flush(); err != nil {
		return err
	}

	// Pass 2: header + TOC at the front.
	tocBytes := make([]byte, n*tocEntrySize)
	for t, e := range toc {
		b := tocBytes[t*tocEntrySize:]
		binary.LittleEndian.PutUint64(b[0:], e.wOff)
		binary.LittleEndian.PutUint32(b[8:], e.wCount)
		binary.LittleEndian.PutUint64(b[12:], e.iOff)
		binary.LittleEndian.PutUint32(b[20:], e.iBytes)
		binary.LittleEndian.PutUint32(b[24:], e.iCount)
		binary.LittleEndian.PutUint64(b[28:], e.sOff)
		binary.LittleEndian.PutUint32(b[36:], e.sCount)
	}
	header := make([]byte, headerSize)
	copy(header, fileMagic)
	binary.LittleEndian.PutUint32(header[8:], crc32.ChecksumIEEE(tocBytes))
	binary.LittleEndian.PutUint32(header[12:], uint32(n))
	if _, err := f.WriteAt(header, 0); err != nil {
		return err
	}
	if _, err := f.WriteAt(tocBytes, headerSize); err != nil {
		return err
	}
	return nil
}

// FileStore reads a disk-resident index written by WriteFile. It is safe
// for concurrent readers: cursors hold their own buffers and use ReadAt,
// and the shared block cache is internally synchronized.
type FileStore struct {
	f     *os.File
	toc   []tocEntry
	size  int64
	cache *blockCache
}

// DefaultCacheBlocks is the block-cache capacity OpenFile installs:
// 256 blocks × 256 postings × 16 bytes = 1 MiB of hot decoded postings.
const DefaultCacheBlocks = 256

// OpenFile opens and validates an index file with the default block
// cache.
func OpenFile(path string) (*FileStore, error) {
	return OpenFileCached(path, DefaultCacheBlocks)
}

// OpenFileCached opens an index file with a block cache of the given
// capacity (0 disables caching).
func OpenFileCached(path string, cacheBlocks int) (*FileStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := newFileStore(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	st.cache = newBlockCache(cacheBlocks)
	return st, nil
}

func newFileStore(f *os.File) (*FileStore, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	header := make([]byte, headerSize)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, int64(headerSize)), header); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if string(header[:8]) != fileMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	wantCRC := binary.LittleEndian.Uint32(header[8:])
	n := int(binary.LittleEndian.Uint32(header[12:]))
	if n < 0 || int64(headerSize)+int64(n)*tocEntrySize > fi.Size() {
		return nil, fmt.Errorf("%w: token count %d exceeds file size", ErrCorrupt, n)
	}
	tocBytes := make([]byte, n*tocEntrySize)
	if _, err := f.ReadAt(tocBytes, headerSize); err != nil {
		return nil, fmt.Errorf("%w: short TOC: %v", ErrCorrupt, err)
	}
	if crc32.ChecksumIEEE(tocBytes) != wantCRC {
		return nil, fmt.Errorf("%w: TOC checksum mismatch", ErrCorrupt)
	}
	toc := make([]tocEntry, n)
	for t := range toc {
		b := tocBytes[t*tocEntrySize:]
		e := &toc[t]
		e.wOff = binary.LittleEndian.Uint64(b[0:])
		e.wCount = binary.LittleEndian.Uint32(b[8:])
		e.iOff = binary.LittleEndian.Uint64(b[12:])
		e.iBytes = binary.LittleEndian.Uint32(b[20:])
		e.iCount = binary.LittleEndian.Uint32(b[24:])
		e.sOff = binary.LittleEndian.Uint64(b[28:])
		e.sCount = binary.LittleEndian.Uint32(b[36:])
		end := e.sOff + uint64(e.sCount)*skipEntrySize
		if e.wOff > uint64(fi.Size()) || end > uint64(fi.Size()) {
			return nil, fmt.Errorf("%w: token %d section out of bounds", ErrCorrupt, t)
		}
	}
	return &FileStore{f: f, toc: toc, size: fi.Size()}, nil
}

// WeightCursor implements Store.
func (s *FileStore) WeightCursor(t tokenize.Token) Cursor {
	if int(t) >= len(s.toc) || s.toc[t].wCount == 0 {
		return Empty()
	}
	e := s.toc[t]
	return &fileWeightCursor{
		f:     s.f,
		token: uint32(t),
		cache: s.cache,
		off:   int64(e.wOff),
		count: int(e.wCount),
		sOff:  int64(e.sOff),
		sCnt:  int(e.sCount),
	}
}

// IDCursor implements Store.
func (s *FileStore) IDCursor(t tokenize.Token) Cursor {
	if int(t) >= len(s.toc) || s.toc[t].iCount == 0 {
		return Empty()
	}
	e := s.toc[t]
	c := &fileIDCursor{count: int(e.iCount)}
	// id-sorted lists are consumed front to back in full by the merge
	// baseline, so read them in one sequential pass.
	raw := make([]byte, e.iBytes)
	if _, err := s.f.ReadAt(raw, int64(e.iOff)); err != nil {
		c.err = fmt.Errorf("%w: id list read: %v", ErrCorrupt, err)
		return c
	}
	c.postings = make([]Posting, 0, e.iCount)
	var prev uint64
	for len(raw) > 0 && len(c.postings) < int(e.iCount) {
		delta, nb := binary.Uvarint(raw)
		if nb <= 0 || len(raw) < nb+8 {
			c.err = fmt.Errorf("%w: id list varint", ErrCorrupt)
			return c
		}
		prev += delta
		l := math.Float64frombits(binary.LittleEndian.Uint64(raw[nb:]))
		c.postings = append(c.postings, Posting{ID: collection.SetID(prev), Len: l})
		raw = raw[nb+8:]
	}
	if len(c.postings) != int(e.iCount) {
		c.err = fmt.Errorf("%w: id list truncated", ErrCorrupt)
	}
	return c
}

// ListLen implements Store.
func (s *FileStore) ListLen(t tokenize.Token) int {
	if int(t) >= len(s.toc) {
		return 0
	}
	return int(s.toc[t].wCount)
}

// Sizes implements Store.
func (s *FileStore) Sizes() Sizes {
	var z Sizes
	for _, e := range s.toc {
		z.WeightLists += int64(e.wCount) * postingSize
		z.IDLists += int64(e.iBytes)
		z.SkipIndexes += int64(e.sCount) * skipEntrySize
	}
	return z
}

// Close implements Store.
func (s *FileStore) Close() error { return s.f.Close() }

// CacheStats reports block-cache hits and misses since open.
func (s *FileStore) CacheStats() CacheStats { return s.cache.stats() }

// Err exposes a cursor's deferred I/O error, if the concrete cursor type
// supports it. Algorithms surface it at the end of a scan.
func Err(c Cursor) error {
	type errCursor interface{ Error() error }
	if ec, ok := c.(errCursor); ok {
		return ec.Error()
	}
	return nil
}

type fileWeightCursor struct {
	f     *os.File
	token uint32
	cache *blockCache
	off   int64 // file offset of posting 0
	count int
	pos   int // index of current posting
	sOff  int64
	sCnt  int
	skips []skipEnt // lazily loaded

	block      []Posting // decoded window
	blockStart int       // index of block[0]
	err        error
}

type skipEnt struct {
	len float64
	pos int
}

func (c *fileWeightCursor) Error() error { return c.err }

func (c *fileWeightCursor) Valid() bool { return c.err == nil && c.pos < c.count }

func (c *fileWeightCursor) Count() int { return c.count }

func (c *fileWeightCursor) Posting() Posting {
	if !c.Valid() {
		panic("invlist: Posting on invalid cursor")
	}
	if c.block == nil || c.pos < c.blockStart || c.pos >= c.blockStart+len(c.block) {
		c.load(c.pos)
		if c.err != nil {
			return Posting{}
		}
	}
	return c.block[c.pos-c.blockStart]
}

func (c *fileWeightCursor) Next() { c.pos++ }

// load decodes the cache-aligned block containing posting index from,
// consulting the store's shared block cache first.
func (c *fileWeightCursor) load(from int) {
	from -= from % readBlockCount // align so concurrent cursors share blocks
	key := blockKey{token: c.token, start: from}
	if blk, ok := c.cache.get(key); ok {
		c.block, c.blockStart = blk, from
		return
	}
	n := readBlockCount
	if from+n > c.count {
		n = c.count - from
	}
	raw := make([]byte, n*postingSize)
	if _, err := c.f.ReadAt(raw, c.off+int64(from)*postingSize); err != nil {
		c.err = fmt.Errorf("%w: posting read: %v", ErrCorrupt, err)
		return
	}
	block := make([]Posting, n)
	for i := 0; i < n; i++ {
		b := raw[i*postingSize:]
		block[i] = Posting{
			ID:  collection.SetID(binary.LittleEndian.Uint64(b)),
			Len: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		}
	}
	c.cache.put(key, block)
	c.block, c.blockStart = block, from
}

func (c *fileWeightCursor) SeekLen(min float64) (skipped, walked int) {
	if !c.Valid() {
		return 0, 0
	}
	if c.skips == nil {
		raw := make([]byte, c.sCnt*skipEntrySize)
		if _, err := c.f.ReadAt(raw, c.sOff); err != nil {
			c.err = fmt.Errorf("%w: skip index read: %v", ErrCorrupt, err)
			return 0, 0
		}
		c.skips = make([]skipEnt, c.sCnt)
		for i := range c.skips {
			b := raw[i*skipEntrySize:]
			c.skips[i] = skipEnt{
				len: math.Float64frombits(binary.LittleEndian.Uint64(b)),
				pos: int(binary.LittleEndian.Uint32(b[8:])),
			}
		}
	}
	start := c.pos
	// Greatest skip entry with len strictly below min; jumping there is
	// safe because the list is length-sorted.
	lo := sort.Search(len(c.skips), func(i int) bool { return c.skips[i].len >= min })
	if lo > 0 && c.skips[lo-1].pos > c.pos {
		c.pos = c.skips[lo-1].pos
	}
	skipped = c.pos - start
	for c.Valid() && c.Posting().Len < min {
		c.pos++
		walked++
	}
	return skipped, walked
}

type fileIDCursor struct {
	postings []Posting
	count    int
	pos      int
	err      error
}

func (c *fileIDCursor) Error() error { return c.err }
func (c *fileIDCursor) Valid() bool  { return c.err == nil && c.pos < len(c.postings) }
func (c *fileIDCursor) Posting() Posting {
	if !c.Valid() {
		panic("invlist: Posting on invalid cursor")
	}
	return c.postings[c.pos]
}
func (c *fileIDCursor) Next()                      { c.pos++ }
func (c *fileIDCursor) SeekLen(float64) (int, int) { return 0, 0 }
func (c *fileIDCursor) Count() int                 { return c.count }

// Package segpack reads and writes segment packages: single-file
// containers that make an immutable segment the unit of durability.
// A package holds named records (byte blobs) written contiguously,
// followed by a record table with per-block CRC32 checksums and a
// tagged metadata section, and a fixed-size footer locating the table.
// The layout follows the classic archive pattern (signature, record
// table, per-block checksums, tagged metadata) so a package can be
// verified block by block without parsing its contents, and corruption
// is localized to the block that bears it.
//
// File layout (little endian):
//
//	header:  magic "SSPKG1\n\x00" | version u32 (1) | blockSize u32
//	data:    record payloads, back to back, in AddRecord order
//	table:   recCount u32
//	         per record: name (uvarint len + bytes) | offset u64 |
//	                     length u64 | ceil(length/blockSize) × crc32 u32
//	         metaCount u32
//	         per tag: key (uvarint len + bytes) | value (uvarint len + bytes)
//	footer:  tableOff u64 | tableLen u32 | crc32(table) u32 | "SSPKGEND"
//
// The reader is hardened against arbitrary input: every count, offset
// and length is validated against the file size before any allocation,
// so corrupt or adversarial bytes produce ErrCorrupt — never a panic or
// an oversized allocation.
package segpack

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

const (
	pkgMagic   = "SSPKG1\n\x00"
	endMagic   = "SSPKGEND"
	pkgVersion = 1

	headerSize = len(pkgMagic) + 4 + 4
	footerSize = 8 + 4 + 4 + len(endMagic)

	// DefaultBlockSize is the checksum granularity for new packages.
	DefaultBlockSize = 64 << 10

	maxBlockSize = 1 << 30
	// maxNameLen bounds record names and metadata keys/values.
	maxNameLen = 1 << 20
)

// Errors.
var (
	// ErrCorrupt reports a structurally invalid or checksum-failing
	// package.
	ErrCorrupt = errors.New("segpack: corrupt package")
	// ErrVersion reports a package written by a newer format version.
	ErrVersion = errors.New("segpack: unknown package format version")
	// ErrNoRecord reports a record name absent from the table.
	ErrNoRecord = errors.New("segpack: no such record")
)

// Writer streams a package to an underlying writer. Records are written
// as they are added; Finish appends the table and footer. Errors are
// sticky: the first failure poisons the writer and Finish reports it.
type Writer struct {
	w         io.Writer
	off       int64
	blockSize int
	recs      []recEntry
	meta      []metaEntry
	names     map[string]bool
	err       error
}

type recEntry struct {
	name   string
	off    int64
	length int64
	crcs   []uint32
}

type metaEntry struct {
	key string
	val []byte
}

// NewWriter begins a package on w with the default block size.
func NewWriter(w io.Writer) *Writer {
	pw := &Writer{w: w, blockSize: DefaultBlockSize, names: make(map[string]bool)}
	var hdr [headerSize]byte
	copy(hdr[:], pkgMagic)
	binary.LittleEndian.PutUint32(hdr[len(pkgMagic):], pkgVersion)
	binary.LittleEndian.PutUint32(hdr[len(pkgMagic)+4:], uint32(pw.blockSize))
	pw.write(hdr[:])
	return pw
}

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(p)
	w.off += int64(n)
	w.err = err
}

// AddRecord writes one named record. Names must be unique and non-empty.
func (w *Writer) AddRecord(name string, data []byte) error {
	if w.err != nil {
		return w.err
	}
	if name == "" || len(name) > maxNameLen {
		return fmt.Errorf("segpack: bad record name %q", name)
	}
	if w.names[name] {
		return fmt.Errorf("segpack: duplicate record %q", name)
	}
	w.names[name] = true
	e := recEntry{name: name, off: w.off, length: int64(len(data))}
	for b := 0; b < len(data); b += w.blockSize {
		end := b + w.blockSize
		if end > len(data) {
			end = len(data)
		}
		e.crcs = append(e.crcs, crc32.ChecksumIEEE(data[b:end]))
	}
	w.write(data)
	w.recs = append(w.recs, e)
	return w.err
}

// SetMeta attaches a tagged metadata value. Setting a key twice keeps
// the last value.
func (w *Writer) SetMeta(key string, val []byte) {
	for i := range w.meta {
		if w.meta[i].key == key {
			w.meta[i].val = val
			return
		}
	}
	w.meta = append(w.meta, metaEntry{key, val})
}

// Finish writes the record table and footer. The writer is unusable
// afterwards.
func (w *Writer) Finish() error {
	if w.err != nil {
		return w.err
	}
	tableOff := w.off
	var tbl []byte
	var tmp [binary.MaxVarintLen64]byte
	u32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		tbl = append(tbl, b[:]...)
	}
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		tbl = append(tbl, b[:]...)
	}
	str := func(s []byte) {
		n := binary.PutUvarint(tmp[:], uint64(len(s)))
		tbl = append(tbl, tmp[:n]...)
		tbl = append(tbl, s...)
	}
	u32(uint32(len(w.recs)))
	for _, e := range w.recs {
		str([]byte(e.name))
		u64(uint64(e.off))
		u64(uint64(e.length))
		for _, c := range e.crcs {
			u32(c)
		}
	}
	u32(uint32(len(w.meta)))
	for _, m := range w.meta {
		str([]byte(m.key))
		str(m.val)
	}
	w.write(tbl)
	var foot [footerSize]byte
	binary.LittleEndian.PutUint64(foot[0:], uint64(tableOff))
	binary.LittleEndian.PutUint32(foot[8:], uint32(len(tbl)))
	binary.LittleEndian.PutUint32(foot[12:], crc32.ChecksumIEEE(tbl))
	copy(foot[16:], endMagic)
	w.write(foot[:])
	if w.err == nil {
		w.err = errors.New("segpack: writer finished")
		return nil
	}
	return w.err
}

// FileWriter is a Writer bound to a file; Close finishes the package
// and fsyncs it.
type FileWriter struct {
	*Writer
	f *os.File
}

// Create begins a package file at path.
func Create(path string) (*FileWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &FileWriter{Writer: NewWriter(f), f: f}, nil
}

// Close finishes the table, fsyncs and closes the file.
func (w *FileWriter) Close() error {
	err := w.Finish()
	if err == nil {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abort closes and removes a partially written file.
func (w *FileWriter) Abort() {
	name := w.f.Name()
	w.f.Close()
	os.Remove(name)
}

// Reader reads a package from an io.ReaderAt. It validates the header,
// footer and table on open; record payloads are checksum-verified on
// read.
type Reader struct {
	r         io.ReaderAt
	size      int64
	blockSize int64
	recs      []recEntry
	byName    map[string]int
	meta      map[string][]byte
	metaKeys  []string
}

// NewReader opens a package held in r of the given size.
func NewReader(r io.ReaderAt, size int64) (*Reader, error) {
	if size < int64(headerSize+footerSize) {
		return nil, fmt.Errorf("%w: file too short (%d bytes)", ErrCorrupt, size)
	}
	var hdr [headerSize]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if string(hdr[:len(pkgMagic)]) != pkgMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[len(pkgMagic):]); v != pkgVersion {
		return nil, fmt.Errorf("%w: %d", ErrVersion, v)
	}
	blockSize := int64(binary.LittleEndian.Uint32(hdr[len(pkgMagic)+4:]))
	if blockSize <= 0 || blockSize > maxBlockSize {
		return nil, fmt.Errorf("%w: bad block size %d", ErrCorrupt, blockSize)
	}
	var foot [footerSize]byte
	if _, err := r.ReadAt(foot[:], size-int64(footerSize)); err != nil {
		return nil, fmt.Errorf("%w: footer: %v", ErrCorrupt, err)
	}
	if string(foot[16:]) != endMagic {
		return nil, fmt.Errorf("%w: bad end magic", ErrCorrupt)
	}
	tableOff := int64(binary.LittleEndian.Uint64(foot[0:]))
	tableLen := int64(binary.LittleEndian.Uint32(foot[8:]))
	tableCRC := binary.LittleEndian.Uint32(foot[12:])
	if tableOff < int64(headerSize) || tableLen < 0 ||
		tableOff+tableLen != size-int64(footerSize) {
		return nil, fmt.Errorf("%w: table bounds [%d,+%d) outside file", ErrCorrupt, tableOff, tableLen)
	}
	tbl := make([]byte, tableLen)
	if _, err := r.ReadAt(tbl, tableOff); err != nil {
		return nil, fmt.Errorf("%w: table: %v", ErrCorrupt, err)
	}
	if crc32.ChecksumIEEE(tbl) != tableCRC {
		return nil, fmt.Errorf("%w: table checksum mismatch", ErrCorrupt)
	}
	pr := &Reader{r: r, size: size, blockSize: blockSize,
		byName: make(map[string]int), meta: make(map[string][]byte)}
	if err := pr.parseTable(tbl, tableOff); err != nil {
		return nil, err
	}
	return pr, nil
}

// parseTable decodes the checksum-verified table. Counts are bounded by
// the table length: each entry consumes bytes, so a bogus huge count
// runs out of table before it runs out of memory, and a record's block
// count is checked against the table bytes left before it sizes the
// record's checksum list.
func (pr *Reader) parseTable(tbl []byte, tableOff int64) error {
	pos := 0
	u32 := func() (uint32, bool) {
		if pos+4 > len(tbl) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(tbl[pos:])
		pos += 4
		return v, true
	}
	u64 := func() (uint64, bool) {
		if pos+8 > len(tbl) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(tbl[pos:])
		pos += 8
		return v, true
	}
	str := func() ([]byte, bool) {
		n, k := binary.Uvarint(tbl[pos:])
		if k <= 0 || n > maxNameLen || int64(n) > int64(len(tbl)-pos-k) {
			return nil, false
		}
		pos += k
		s := tbl[pos : pos+int(n)]
		pos += int(n)
		return s, true
	}
	nrec, ok := u32()
	if !ok {
		return fmt.Errorf("%w: truncated table", ErrCorrupt)
	}
	for i := uint32(0); i < nrec; i++ {
		name, ok1 := str()
		off, ok2 := u64()
		length, ok3 := u64()
		if !ok1 || !ok2 || !ok3 {
			return fmt.Errorf("%w: truncated record entry %d", ErrCorrupt, i)
		}
		if len(name) == 0 {
			return fmt.Errorf("%w: empty record name", ErrCorrupt)
		}
		if off < uint64(headerSize) || length > uint64(pr.size) ||
			off+length < off || off+length > uint64(tableOff) {
			return fmt.Errorf("%w: record %q bounds [%d,+%d) outside data area", ErrCorrupt, name, off, length)
		}
		// The checksum list is sized by the record's length, which only
		// the file size bounds: the table must hold every checksum first.
		nblocks := (int64(length) + pr.blockSize - 1) / pr.blockSize
		if nblocks > int64(len(tbl)-pos)/4 {
			return fmt.Errorf("%w: truncated checksums for %q (%d blocks)", ErrCorrupt, name, nblocks)
		}
		e := recEntry{name: string(name), off: int64(off), length: int64(length),
			crcs: make([]uint32, nblocks)}
		for b := range e.crcs {
			e.crcs[b], _ = u32()
		}
		if _, dup := pr.byName[e.name]; dup {
			return fmt.Errorf("%w: duplicate record %q", ErrCorrupt, e.name)
		}
		pr.byName[e.name] = len(pr.recs)
		pr.recs = append(pr.recs, e)
	}
	nmeta, ok := u32()
	if !ok {
		return fmt.Errorf("%w: truncated meta count", ErrCorrupt)
	}
	for i := uint32(0); i < nmeta; i++ {
		key, ok1 := str()
		val, ok2 := str()
		if !ok1 || !ok2 {
			return fmt.Errorf("%w: truncated meta entry %d", ErrCorrupt, i)
		}
		k := string(key)
		if _, dup := pr.meta[k]; dup {
			return fmt.Errorf("%w: duplicate meta key %q", ErrCorrupt, k)
		}
		pr.meta[k] = append([]byte(nil), val...)
		pr.metaKeys = append(pr.metaKeys, k)
	}
	if pos != len(tbl) {
		return fmt.Errorf("%w: %d trailing table bytes", ErrCorrupt, len(tbl)-pos)
	}
	return nil
}

// Records lists record names in package order.
func (pr *Reader) Records() []string {
	names := make([]string, len(pr.recs))
	for i, e := range pr.recs {
		names[i] = e.name
	}
	return names
}

// RecordSize returns a record's payload length, or -1 if absent.
func (pr *Reader) RecordSize(name string) int64 {
	i, ok := pr.byName[name]
	if !ok {
		return -1
	}
	return pr.recs[i].length
}

// Blocks returns the number of checksummed blocks of a record, or -1 if
// absent.
func (pr *Reader) Blocks(name string) int {
	i, ok := pr.byName[name]
	if !ok {
		return -1
	}
	return len(pr.recs[i].crcs)
}

// BlockSize returns the package's checksum granularity.
func (pr *Reader) BlockSize() int64 { return pr.blockSize }

// ReadRecord reads a record and verifies every block checksum.
func (pr *Reader) ReadRecord(name string) ([]byte, error) {
	i, ok := pr.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoRecord, name)
	}
	e := pr.recs[i]
	data := make([]byte, e.length)
	if _, err := pr.r.ReadAt(data, e.off); err != nil {
		return nil, fmt.Errorf("%w: record %q: %v", ErrCorrupt, name, err)
	}
	if err := verifyBlocks(data, pr.blockSize, e.crcs, name); err != nil {
		return nil, err
	}
	return data, nil
}

// ReadBlock reads checksummed block b of a record — payload bytes
// [b·BlockSize, (b+1)·BlockSize), cut short at the record's end — and
// verifies its checksum before returning it, so a caller that reads a
// record piecemeal never sees an unverified byte.
func (pr *Reader) ReadBlock(name string, b int) ([]byte, error) {
	i, ok := pr.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoRecord, name)
	}
	e := pr.recs[i]
	if b < 0 || b >= len(e.crcs) {
		return nil, fmt.Errorf("%w: record %q has no block %d", ErrCorrupt, name, b)
	}
	start := int64(b) * pr.blockSize
	data := make([]byte, min(pr.blockSize, e.length-start))
	if _, err := pr.r.ReadAt(data, e.off+start); err != nil {
		return nil, fmt.Errorf("%w: record %q block %d: %v", ErrCorrupt, name, b, err)
	}
	if crc32.ChecksumIEEE(data) != e.crcs[b] {
		return nil, fmt.Errorf("%w: record %q block %d/%d checksum mismatch",
			ErrCorrupt, name, b, len(e.crcs))
	}
	return data, nil
}

// VerifyRecord re-reads one record and checks its block checksums,
// returning the number of blocks verified.
func (pr *Reader) VerifyRecord(name string) (int, error) {
	i, ok := pr.byName[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoRecord, name)
	}
	if _, err := pr.ReadRecord(name); err != nil {
		return 0, err
	}
	return len(pr.recs[i].crcs), nil
}

// Verify checks every block checksum of every record, returning the
// total number of blocks verified and the first failure.
func (pr *Reader) Verify() (int, error) {
	total := 0
	for _, e := range pr.recs {
		n, err := pr.VerifyRecord(e.name)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func verifyBlocks(data []byte, blockSize int64, crcs []uint32, name string) error {
	for b := range crcs {
		start := int64(b) * blockSize
		end := start + blockSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		if crc32.ChecksumIEEE(data[start:end]) != crcs[b] {
			return fmt.Errorf("%w: record %q block %d/%d checksum mismatch",
				ErrCorrupt, name, b, len(crcs))
		}
	}
	return nil
}

// Meta returns a tagged metadata value.
func (pr *Reader) Meta(key string) ([]byte, bool) {
	v, ok := pr.meta[key]
	return v, ok
}

// MetaKeys lists metadata keys in package order.
func (pr *Reader) MetaKeys() []string { return pr.metaKeys }

// FileReader is a Reader over an open file.
type FileReader struct {
	*Reader
	f *os.File
}

// Open opens the package file at path.
func Open(path string) (*FileReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &FileReader{Reader: r, f: f}, nil
}

// Close closes the underlying file.
func (fr *FileReader) Close() error { return fr.f.Close() }

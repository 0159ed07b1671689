// Package wal is an append-only, checksummed write-ahead log for the
// mutable engines. Every mutation becomes one framed record — a length,
// a CRC32 of the body, an opcode and a payload — appended to a single
// log file whose header carries the sequence number of its first
// record. Appends are buffered in memory under a short mutex (no disk
// I/O is ever performed while a lock is held); a single committer
// goroutine owns the file exclusively and drains the buffer with group
// commit: one write+fsync covers every record buffered since the last
// drain, and all callers waiting on those records are released
// together. The group is whatever arrived while the previous fsync ran,
// so a lone writer pays one fsync and concurrent writers share one. The
// sync policy decides what WaitDurable promises: written and fsynced
// (SyncGroup, the default) or merely handed to the committer (SyncOff —
// the OS page cache is the only durability until Close or a rotation).
//
// Recovery reads the log front to back, verifying each record's
// checksum, and stops at the first frame that is short or fails its
// CRC: a torn tail, the half-written remainder of a crashed append.
// Open truncates the torn tail in place so the file ends on a record
// boundary again; the read-only Replay reports it without touching the
// file. Checkpoints rotate the log: TruncateThrough(k) rewrites the
// file to hold only the records after k, bumping the header's first
// sequence, so the log stays proportional to the un-checkpointed tail.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// File layout (little endian):
//
//	header: magic "SSWAL\n\x00\x01" (8 bytes: 7 magic + version 1),
//	        firstSeq u64 — the sequence number of the first record
//	record: payloadLen u32 | crc32 u32 (IEEE, over op+payload) |
//	        op u8 | payload
//
// Records are implicitly numbered firstSeq, firstSeq+1, ... in file
// order; sequence numbers start at 1 so 0 means "nothing durable yet".
const (
	logMagic   = "SSWAL\n\x00"
	logVersion = 1
	headerSize = len(logMagic) + 1 + 8
	frameHead  = 4 + 4 + 1 // len + crc + op

	// maxPayload bounds one record; anything larger in a file is treated
	// as corruption rather than allocated.
	maxPayload = 1 << 30
)

// Record opcodes.
const (
	// OpInsert appends a document; the payload is the source string.
	// The document id is implicit: insertion order assigns ids densely,
	// so replaying the same records yields the same ids.
	OpInsert = byte(1)
	// OpDelete tombstones a document; the payload is the uvarint id.
	OpDelete = byte(2)
)

// Errors.
var (
	// ErrCorrupt reports a structurally invalid log: bad magic, or a
	// record that passed its checksum but cannot be decoded.
	ErrCorrupt = errors.New("wal: corrupt log")
	// ErrVersion reports a log written by a newer format version.
	ErrVersion = errors.New("wal: unknown log format version")
	// ErrClosed reports an operation on a closed log.
	ErrClosed = errors.New("wal: log is closed")
)

// SyncPolicy selects the durability a successful WaitDurable implies.
type SyncPolicy int

const (
	// SyncGroup makes WaitDurable return only once the record is written
	// and fsynced. The committer fsyncs as soon as any record is pending,
	// so concurrent appenders that arrive during one flush share the
	// next. The default.
	SyncGroup SyncPolicy = iota
	// SyncOff never fsyncs on a wait. Records are still written to the
	// file (so a process crash loses at most the buffered tail), but an
	// OS crash can lose everything since the last kernel writeback,
	// rotation or Close.
	SyncOff
	// SyncAlways is a second name for SyncGroup, kept for callers that
	// still spell the policy that way.
	SyncAlways = SyncGroup
)

// String names the policy as ParsePolicy spells it.
func (p SyncPolicy) String() string {
	if p == SyncOff {
		return "off"
	}
	return "group"
}

// ParsePolicy parses "group" (also spelled "always" or "") or "off".
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "group", "always", "":
		return SyncGroup, nil
	case "off":
		return SyncOff, nil
	}
	return SyncGroup, fmt.Errorf("wal: unknown sync policy %q (want group, always or off)", s)
}

// Options configure an opened log.
type Options struct {
	// Sync is the durability policy. Zero value is SyncGroup.
	Sync SyncPolicy
}

// Record is one decoded log record.
type Record struct {
	// Seq is the record's sequence number (1-based, monotonic).
	Seq uint64
	// Op is OpInsert or OpDelete.
	Op byte
	// ID is the document id of an OpDelete record.
	ID uint32
	// Source is the document text of an OpInsert record.
	Source string
}

// Info describes a scanned log file.
type Info struct {
	// First is the header's first sequence number.
	First uint64
	// Last is the sequence number of the last intact record (First-1
	// when the file holds none).
	Last uint64
	// Records is the number of intact records in the file.
	Records int
	// Torn reports trailing bytes after the last intact record — the
	// half-written tail of a crashed append.
	Torn bool
	// TornAt is the file offset of the torn tail (the valid length).
	TornAt int64
}

// Log is an open write-ahead log. Appends reserve a sequence number and
// buffer the encoded record under a mutex; WaitDurable blocks until the
// committer goroutine has flushed (and, per policy, fsynced) it. All
// methods are safe for concurrent use, but callers that need record
// order to match an external order (the engine's document log) must
// serialize their Append calls themselves.
type Log struct {
	path string
	opts Options

	// mu guards the append buffer and the reserved-sequence counter.
	// Nothing under it touches the disk.
	mu     sync.Mutex
	buf    []byte
	seq    uint64
	closed bool

	// smu/cond publish committer progress to waiters.
	smu      sync.Mutex
	cond     *sync.Cond
	synced   uint64
	serr     error
	finished bool

	// The committer goroutine exclusively owns f, firstSeq and dirty
	// after Open returns. dirty records a write since the last fsync.
	f        *os.File
	firstSeq uint64
	dirty    bool
	kickCh   chan struct{}
	rotateCh chan rotateReq
	closeCh  chan struct{}
	wg       sync.WaitGroup
}

type rotateReq struct {
	through uint64
	done    chan error
}

// Open opens the log at path for appending, creating it if missing.
// An existing file is scanned front to back; a torn tail is truncated
// in place so the file ends on a record boundary. The returned Info
// describes the file as found (before truncation).
func Open(path string, opts Options) (*Log, Info, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Info{}, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, Info{}, err
	}
	var info Info
	if st.Size() < int64(headerSize) {
		// New file, or a crash mid-header: nothing could have been
		// acknowledged, start fresh at sequence 1.
		info = Info{First: 1, Last: 0, Torn: st.Size() > 0}
		if err := initHeader(f, 1); err != nil {
			f.Close()
			return nil, Info{}, err
		}
	} else {
		info, err = scan(f, 0, nil)
		if err != nil {
			f.Close()
			return nil, Info{}, fmt.Errorf("wal: open %s: %w", path, err)
		}
		if info.Torn {
			if err := f.Truncate(info.TornAt); err != nil {
				f.Close()
				return nil, Info{}, err
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, Info{}, err
			}
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return nil, Info{}, err
		}
	}
	l := &Log{
		path:     path,
		opts:     opts,
		seq:      info.Last,
		synced:   info.Last,
		f:        f,
		firstSeq: info.First,
		kickCh:   make(chan struct{}, 1),
		rotateCh: make(chan rotateReq),
		closeCh:  make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.smu)
	l.wg.Add(1)
	go l.committer()
	return l, info, nil
}

// initHeader resets f to an empty log whose first record will carry
// sequence firstSeq.
func initHeader(f *os.File, firstSeq uint64) error {
	if err := f.Truncate(0); err != nil {
		return err
	}
	var hdr [headerSize]byte
	copy(hdr[:], logMagic)
	hdr[len(logMagic)] = logVersion
	binary.LittleEndian.PutUint64(hdr[len(logMagic)+1:], firstSeq)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	if _, err := f.Seek(int64(headerSize), io.SeekStart); err != nil {
		return err
	}
	return f.Sync()
}

// Replay reads the log at path without modifying it, invoking fn for
// every intact record with sequence number greater than after. A torn
// tail stops the scan and is reported in the Info, not as an error. A
// missing file is an error the caller can test with os.IsNotExist.
func Replay(path string, after uint64, fn func(Record) error) (Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return Info{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return Info{}, err
	}
	if st.Size() < int64(headerSize) {
		// Nothing was ever acknowledged from a header-less file.
		return Info{First: 1, Last: 0, Torn: st.Size() > 0}, nil
	}
	return scan(f, after, fn)
}

// scan walks the record frames of f from the header, verifying each
// checksum, and calls fn (when non-nil) for records with seq > after.
// It stops cleanly at the first short or checksum-failing frame,
// reporting it as the torn tail.
func scan(f *os.File, after uint64, fn func(Record) error) (Info, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return Info{}, err
	}
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return Info{}, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if string(hdr[:len(logMagic)]) != logMagic {
		return Info{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := hdr[len(logMagic)]; v != logVersion {
		return Info{}, fmt.Errorf("%w: %d", ErrVersion, v)
	}
	first := binary.LittleEndian.Uint64(hdr[len(logMagic)+1:])
	if first == 0 {
		return Info{}, fmt.Errorf("%w: zero first sequence", ErrCorrupt)
	}
	info := Info{First: first, Last: first - 1, TornAt: int64(headerSize)}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return Info{}, err
	}
	if _, err := f.Seek(int64(headerSize), io.SeekStart); err != nil {
		return Info{}, err
	}

	br := newByteReader(f)
	off := int64(headerSize)
	var head [frameHead]byte
	var payload []byte
	for off < size {
		if _, err := io.ReadFull(br, head[:]); err != nil {
			info.Torn = true
			return info, nil
		}
		plen := binary.LittleEndian.Uint32(head[0:])
		wantCRC := binary.LittleEndian.Uint32(head[4:])
		op := head[8]
		if int64(plen) > size-off-int64(frameHead) || plen > maxPayload {
			info.Torn = true
			return info, nil
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			info.Torn = true
			return info, nil
		}
		crc := crc32.ChecksumIEEE(head[8:9])
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		if crc != wantCRC {
			info.Torn = true
			return info, nil
		}
		seq := info.Last + 1
		rec, err := decode(seq, op, payload)
		if err != nil {
			return info, err
		}
		if fn != nil && seq > after {
			if err := fn(rec); err != nil {
				return info, err
			}
		}
		info.Last = seq
		info.Records++
		off += int64(frameHead) + int64(plen)
		info.TornAt = off
	}
	return info, nil
}

// newByteReader wraps f in a modest read buffer. A plain constructor
// keeps the scanner testable against small files without magic sizes.
func newByteReader(f *os.File) io.Reader { return &bufferedFile{f: f} }

// bufferedFile is a minimal sequential read buffer over the file.
type bufferedFile struct {
	f   *os.File
	buf [1 << 16]byte
	r   int
	n   int
}

func (b *bufferedFile) Read(p []byte) (int, error) {
	if b.r == b.n {
		n, err := b.f.Read(b.buf[:])
		if n == 0 {
			return 0, err
		}
		b.r, b.n = 0, n
	}
	n := copy(p, b.buf[b.r:b.n])
	b.r += n
	return n, nil
}

// decode parses one checksum-verified record body. A record that passed
// its CRC but cannot be decoded is corruption, not a torn tail.
func decode(seq uint64, op byte, payload []byte) (Record, error) {
	switch op {
	case OpInsert:
		return Record{Seq: seq, Op: op, Source: string(payload)}, nil
	case OpDelete:
		id, n := binary.Uvarint(payload)
		if n <= 0 || n != len(payload) || id > 1<<32-1 {
			return Record{}, fmt.Errorf("%w: record %d: bad delete payload", ErrCorrupt, seq)
		}
		return Record{Seq: seq, Op: op, ID: uint32(id)}, nil
	}
	return Record{}, fmt.Errorf("%w: record %d: unknown op %d", ErrCorrupt, seq, op)
}

// AppendInsert buffers an insert record and returns its sequence
// number. The record is not durable until WaitDurable(seq) returns.
func (l *Log) AppendInsert(source string) uint64 {
	l.mu.Lock()
	l.seq++
	seq := l.seq
	l.buf = appendFrame(l.buf, OpInsert, []byte(source))
	l.mu.Unlock()
	return seq
}

// AppendDelete buffers a delete record and returns its sequence number.
func (l *Log) AppendDelete(id uint32) uint64 {
	var tmp [10]byte
	n := binary.PutUvarint(tmp[:], uint64(id))
	l.mu.Lock()
	l.seq++
	seq := l.seq
	l.buf = appendFrame(l.buf, OpDelete, tmp[:n])
	l.mu.Unlock()
	return seq
}

func appendFrame(buf []byte, op byte, payload []byte) []byte {
	var head [frameHead]byte
	binary.LittleEndian.PutUint32(head[0:], uint32(len(payload)))
	crc := crc32.ChecksumIEEE([]byte{op})
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(head[4:], crc)
	head[8] = op
	buf = append(buf, head[:]...)
	return append(buf, payload...)
}

// WaitDurable blocks until record seq is durable per the sync policy:
// written and fsynced for SyncGroup, merely handed to the committer for
// SyncOff. It returns the first write or sync error the committer hit
// (errors are sticky: once the disk failed, every subsequent wait
// reports it).
func (l *Log) WaitDurable(seq uint64) error {
	select {
	case l.kickCh <- struct{}{}:
	default:
	}
	if l.opts.Sync == SyncOff {
		return nil
	}
	l.smu.Lock()
	defer l.smu.Unlock()
	for l.synced < seq && l.serr == nil && !l.finished {
		l.cond.Wait()
	}
	if l.serr != nil {
		return l.serr
	}
	if l.synced < seq {
		return ErrClosed
	}
	return nil
}

// Seq returns the last reserved sequence number.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Synced returns the last sequence number the committer has made
// durable.
func (l *Log) Synced() uint64 {
	l.smu.Lock()
	defer l.smu.Unlock()
	return l.synced
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// TruncateThrough rewrites the log to drop every record with sequence
// number ≤ through: the checkpoint that made them redundant has been
// committed. The rewrite is atomic (temp file + rename); on error the
// old file — still a correct superset — is kept.
func (l *Log) TruncateThrough(through uint64) error {
	req := rotateReq{through: through, done: make(chan error, 1)}
	select {
	case l.rotateCh <- req:
		return <-req.done
	case <-l.closeCh:
		return ErrClosed
	}
}

// Close flushes the buffered tail, fsyncs everything written since the
// last fsync (under every policy), stops the committer and closes the
// file. Records appended but never waited on are flushed too; Append
// after Close is a programming error surfaced by WaitDurable returning
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	already := l.closed
	l.closed = true
	l.mu.Unlock()
	if already {
		return nil
	}
	close(l.closeCh)
	l.wg.Wait()
	l.smu.Lock()
	err := l.serr
	l.smu.Unlock()
	return err
}

// committer is the single goroutine that owns the file: it drains the
// append buffer with group commit, performs checkpoint rotations, and
// finishes with a final flush on Close. Keeping every disk access on
// this one goroutine means no lock is ever held across an I/O call.
func (l *Log) committer() {
	defer l.wg.Done()
	for {
		select {
		case <-l.closeCh:
			l.commit(true)
			l.finish()
			return
		case req := <-l.rotateCh:
			l.commit(true)
			req.done <- l.rotate(req.through)
		case <-l.kickCh:
			l.commit(l.opts.Sync != SyncOff)
		}
	}
}

// commit swaps out the append buffer and writes it, fsyncing when sync
// is set and anything was written since the last fsync, then publishes
// the new durable horizon.
func (l *Log) commit(sync bool) {
	l.mu.Lock()
	buf, seq := l.buf, l.seq
	l.buf = nil
	l.mu.Unlock()
	var err error
	if len(buf) > 0 {
		_, err = l.f.Write(buf)
		l.dirty = true
	}
	if err == nil && sync && l.dirty {
		if err = l.f.Sync(); err == nil {
			l.dirty = false
		}
	}
	l.smu.Lock()
	if err != nil {
		if l.serr == nil {
			l.serr = err
		}
	} else if seq > l.synced {
		l.synced = seq
	}
	l.smu.Unlock()
	l.cond.Broadcast()
}

// finish closes the file and releases any remaining waiters.
func (l *Log) finish() {
	err := l.f.Close()
	l.smu.Lock()
	if err != nil && l.serr == nil {
		l.serr = err
	}
	l.finished = true
	l.smu.Unlock()
	l.cond.Broadcast()
}

// rotate rewrites the file to start after sequence through. Runs on the
// committer goroutine; the buffer has just been committed, so the file
// holds every reserved record.
func (l *Log) rotate(through uint64) error {
	if through < l.firstSeq {
		return nil // already rotated past it
	}
	tmpPath := l.path + ".rotate"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return err
	}
	defer os.Remove(tmpPath)
	if err := initHeader(tmp, through+1); err != nil {
		tmp.Close()
		return err
	}
	// Walk the current file to the boundary of record through, then copy
	// the surviving tail verbatim.
	if _, err := l.f.Seek(int64(headerSize), io.SeekStart); err != nil {
		tmp.Close()
		return err
	}
	var head [frameHead]byte
	for seq := l.firstSeq; seq <= through; seq++ {
		if _, err := io.ReadFull(l.f, head[:]); err != nil {
			tmp.Close()
			return fmt.Errorf("%w: rotation scan: %v", ErrCorrupt, err)
		}
		plen := binary.LittleEndian.Uint32(head[0:])
		if plen > maxPayload {
			tmp.Close()
			return fmt.Errorf("%w: rotation scan: oversized record", ErrCorrupt)
		}
		if _, err := l.f.Seek(int64(plen), io.SeekCurrent); err != nil {
			tmp.Close()
			return err
		}
	}
	if _, err := io.Copy(tmp, l.f); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := os.Rename(tmpPath, l.path); err != nil {
		tmp.Close()
		return err
	}
	// The temp file is the log now; retire the old handle.
	if _, err := tmp.Seek(0, io.SeekEnd); err != nil {
		tmp.Close()
		return err
	}
	old := l.f
	l.f = tmp
	l.firstSeq = through + 1
	old.Close()
	return nil
}

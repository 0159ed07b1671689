package collection

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/tokenize"
)

// Binary collection format (little endian):
//
//	magic "SSCOL1\n\x00"
//	payload CRC32 (of everything after this field)
//	tokenizer name: uvarint len + bytes
//	numTokens u32, then per token: uvarint len + bytes (dictionary, in id order)
//	numSets u32, hasSource u8
//	per set: uvarint #entries, then per entry uvarint token-delta, uvarint tf
//	if hasSource: per set uvarint len + bytes
//
// Document frequencies, idf weights and normalized lengths are derived
// state and are recomputed on load.
const colMagic = "SSCOL1\n\x00"

// ErrBadCollection reports a structurally invalid collection file.
var ErrBadCollection = errors.New("collection: corrupt collection data")

// Write serializes c to w.
func Write(w io.Writer, c *Collection) error {
	var payload []byte
	put := func(b ...byte) { payload = append(payload, b...) }
	putUvarint := func(v uint64) {
		var buf [10]byte
		n := binary.PutUvarint(buf[:], v)
		put(buf[:n]...)
	}
	putString := func(s string) {
		putUvarint(uint64(len(s)))
		put([]byte(s)...)
	}
	putU32 := func(v uint32) {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], v)
		put(buf[:]...)
	}

	putString(c.tk.Name())
	putU32(uint32(c.dict.Len()))
	for t := 0; t < c.dict.Len(); t++ {
		putString(c.dict.String(tokenize.Token(t)))
	}
	putU32(uint32(c.NumSets()))
	if c.source != nil {
		put(1)
	} else {
		put(0)
	}
	var set []tokenize.Count
	for id := range c.NumSets() {
		set = c.appendSet(set[:0], SetID(id))
		putUvarint(uint64(len(set)))
		var prev uint64
		for _, cnt := range set {
			putUvarint(uint64(cnt.Token) - prev)
			prev = uint64(cnt.Token)
			putUvarint(uint64(cnt.TF))
		}
	}
	if c.source != nil {
		for _, s := range c.source {
			putString(s)
		}
	}

	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(colMagic); err != nil {
		return err
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(payload))
	if _, err := bw.Write(crcBuf[:]); err != nil {
		return err
	}
	if _, err := bw.Write(payload); err != nil {
		return err
	}
	return bw.Flush()
}

// Read deserializes a collection written by Write, recomputing the
// derived statistics. The stored tokenizer name must parse via
// tokenize.ParseName.
func Read(r io.Reader) (*Collection, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	head := make([]byte, len(colMagic)+4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadCollection, err)
	}
	if string(head[:len(colMagic)]) != colMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCollection)
	}
	wantCRC := binary.LittleEndian.Uint32(head[len(colMagic):])
	payload, err := io.ReadAll(br)
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadCollection)
	}

	pos := 0
	fail := func(what string) error {
		return fmt.Errorf("%w: truncated %s", ErrBadCollection, what)
	}
	getUvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	getString := func() (string, bool) {
		n, ok := getUvarint()
		if !ok || n > uint64(len(payload)-pos) {
			return "", false
		}
		s := string(payload[pos : pos+int(n)])
		pos += int(n)
		return s, true
	}
	getU32 := func() (uint32, bool) {
		if pos+4 > len(payload) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(payload[pos:])
		pos += 4
		return v, true
	}

	tkName, ok := getString()
	if !ok {
		return nil, fail("tokenizer name")
	}
	tk, err := tokenize.ParseName(tkName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCollection, err)
	}

	numTokens, ok := getU32()
	if !ok {
		return nil, fail("token count")
	}
	dict := tokenize.NewDict()
	for t := uint32(0); t < numTokens; t++ {
		s, ok := getString()
		if !ok {
			return nil, fail("dictionary")
		}
		if id := dict.Intern(s); id != tokenize.Token(t) {
			return nil, fmt.Errorf("%w: duplicate dictionary entry %q", ErrBadCollection, s)
		}
	}

	numSets, ok := getU32()
	if !ok {
		return nil, fail("set count")
	}
	if pos >= len(payload) {
		return nil, fail("source flag")
	}
	hasSource := payload[pos] == 1
	pos++
	// Every set takes at least three payload bytes and every entry at
	// least two, so counts past the bytes remaining are corrupt — checked
	// before they size an allocation.
	if uint64(numSets) > uint64(len(payload)-pos) {
		return nil, fail("set table")
	}

	// Sets decode into the builder's arena; their sources follow them
	// in the file and are set aside once all are read.
	b := NewBuilderWithDict(dict, tk, false)
	b.Grow(int(numSets), 0)
	var set []tokenize.Count
	for range numSets {
		n, ok := getUvarint()
		if !ok || n > uint64(len(payload)-pos) {
			return nil, fail("set header")
		}
		if n == 0 {
			return nil, fmt.Errorf("%w: empty set", ErrBadCollection)
		}
		set = set[:0]
		var prev uint64
		for j := uint64(0); j < n; j++ {
			d, ok1 := getUvarint()
			tf, ok2 := getUvarint()
			if !ok1 || !ok2 {
				return nil, fail("set entry")
			}
			// Tokens ascend strictly within a set and stay in the
			// dictionary; a TF fits the 4 bytes it is kept in.
			if (j > 0 && d == 0) || d >= uint64(numTokens)-prev || tf == 0 || tf > math.MaxUint32 {
				return nil, fmt.Errorf("%w: invalid set entry", ErrBadCollection)
			}
			prev += d
			set = append(set, tokenize.Count{Token: tokenize.Token(prev), TF: uint32(tf)})
		}
		b.AddCounts("", set)
	}
	if hasSource {
		b.source = make([]string, numSets)
		for i := range b.source {
			s, ok := getString()
			if !ok {
				return nil, fail("source strings")
			}
			b.source[i] = s
		}
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCollection, len(payload)-pos)
	}
	return b.Build(), nil
}

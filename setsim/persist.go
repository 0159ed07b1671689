package setsim

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/invlist"
	"repro/internal/tokenize"
)

// Snapshot file formats. Five versions are readable; two are written.
//
// Version 1 is the collection binary format (magic "SSCOL1"), written by
// Save: one frozen corpus, no mutation history. Versions 2–4 are the
// live-snapshot formats earlier releases wrote; no writer remains in the
// tree (the reader tests assemble their files byte by byte):
//
//	magic "SSSNAP\n\x00", version byte (2, 3 or 4)
//	payload CRC32 (of everything after this field)
//	tokenizer name: uvarint len + bytes
//	shards u32 (version ≥ 3; version 2 is implicitly 1)
//	numDocs u32
//	per doc: flag u8 (bit0 = tombstoned), uvarint len + source bytes
//	version ≥ 4 only:
//	  per doc: uvarint shard (the routing table, tombstoned docs included)
//	  per shard: docs u32, lenMin f64, lenMax f64 (IEEE bits, LE),
//	             hot-token count u32, sketch slots u32, occupied u32
//
// Version 5 is the durable-store layout (store.go): the file at path is
// a thin manifest — same magic and CRC framing, version byte 5 —
// listing checksummed segment packages (one per shard, holding the live
// documents) plus the dead log, per-shard summary scalars and the WAL
// horizon; the documents themselves live in the packages and the
// mutations since the last checkpoint in a write-ahead log next to the
// manifest.
//
// SaveLive writes version 5; versions 1–4 remain fully readable. The
// package shard membership doubles as the routing table, letting
// OpenSharded reproduce the saved partition exactly without
// re-clustering; the summary scalars are advisory (inspection via
// SnapshotInfo — full summaries are derived state, rebuilt from the
// documents on load, like every other index structure). The document
// log is stored in id order including tombstoned entries, so a
// save/load cycle preserves every id a caller may still hold. Files
// with the snapshot magic but an unknown version byte are rejected with
// ErrUnknownVersion: future formats must not be misparsed.
const (
	snapMagic = "SSSNAP\n\x00"
	snapV2    = 2
	snapV3    = 3
	snapV4    = 4
	snapV5    = 5
)

// ErrUnknownVersion reports a snapshot file with a format version this
// build does not understand.
var ErrUnknownVersion = errors.New("setsim: unknown snapshot format version")

// ShardSummaryInfo is one shard's persisted pruning-summary scalars, as
// carried by version-4 snapshots.
type ShardSummaryInfo struct {
	// Docs is the number of documents the shard's summary covers.
	Docs int
	// LenMin and LenMax bound the shard's normalized set lengths.
	LenMin, LenMax float64
	// HotTokens is how many corpus-hot tokens occur in the shard.
	HotTokens int
	// SketchSlots and SketchOccupied describe the shard's hashed
	// token-universe sketch.
	SketchSlots, SketchOccupied int
}

// SnapshotInfo describes a loaded snapshot file.
type SnapshotInfo struct {
	// Version is the file's format version: 1 for legacy collection
	// files, 2–4 for live snapshots (3 adds the shard count, 4 the
	// routing table and per-shard summaries).
	Version int
	// Docs is the number of documents stored, including tombstoned ones.
	Docs int
	// Live is the number of live (non-tombstoned) documents.
	Live int
	// Shards is the partition count the engine was saved with (1 for
	// version-1 and version-2 files).
	Shards int
	// Routed reports a version-4 or newer snapshot carrying a routing
	// table (explicit in v4, package membership in v5) and per-shard
	// summaries; RouteCounts and Summaries are only meaningful then.
	Routed bool
	// RouteCounts is the number of live documents routed to each shard.
	RouteCounts []int
	// Summaries holds each shard's persisted summary scalars.
	Summaries []ShardSummaryInfo

	// The fields below describe version-5 durable stores only.

	// Generation is the manifest's checkpoint generation.
	Generation uint64
	// WALStart is the last WAL sequence number the manifest covers;
	// recovery replayed the records after it.
	WALStart uint64
	// WALTail is the number of intact WAL records replayed past the
	// checkpoint; WALTorn reports a torn (truncated mid-record) tail
	// after them — the sign of a crash mid-append.
	WALTail int
	WALTorn bool
	// Segpacks lists the segment packages the manifest references.
	Segpacks []SegpackRef
}

// Save writes the engine's collection (dictionary, sets, sources) to
// path in the legacy version-1 format. Derived index structures are not
// stored: Load rebuilds them deterministically, which is fast relative
// to I/O and keeps the file compact.
func Save(path string, e *Engine) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return collection.Write(f, e.Collection())
}

// SaveLive writes a mutable engine's snapshot to path in the version-5
// durable-store format: one checksummed segment package per non-empty
// shard holding its live documents, plus the thin manifest (dead log,
// summary scalars, package references). The engine is fully compacted
// first so the snapshot captures one settled generation — in
// particular, the package shard membership is the similarity-aware
// assignment the compaction computed, not the hash fallback fresh
// inserts start under.
func SaveLive(path string, le *LiveEngine) error {
	le.Compact()
	return saveLiveV5(path, le)
}

// writeFramedSnapshot writes the shared snapshot framing — magic,
// version byte, payload CRC32 — followed by the payload. Versions 2–5
// all use it; what differs is the payload layout.
func writeFramedSnapshot(w io.Writer, version byte, payload []byte) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(snapMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(version); err != nil {
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

// readFramedSnapshot validates the shared framing and returns the
// checksum-verified payload. The version byte must equal want (the
// caller sniffed it); unknown versions wrap ErrUnknownVersion, every
// other structural failure wraps collection.ErrBadCollection — a
// truncated file never surfaces a raw io.EOF.
func readFramedSnapshot(r io.Reader, want byte) ([]byte, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	head := make([]byte, len(snapMagic)+1+4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", collection.ErrBadCollection, err)
	}
	if string(head[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", collection.ErrBadCollection)
	}
	version := head[len(snapMagic)]
	if version < snapV2 || version > snapV5 {
		return nil, fmt.Errorf("%w: %d", ErrUnknownVersion, version)
	}
	if version != want {
		return nil, fmt.Errorf("%w: version %d where %d expected", collection.ErrBadCollection, version, want)
	}
	wantCRC := binary.LittleEndian.Uint32(head[len(snapMagic)+1:])
	payload, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", collection.ErrBadCollection, err)
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch", collection.ErrBadCollection)
	}
	return payload, nil
}

// snapExtra is the version-4 tail: the per-log-entry routing table and
// each shard's persisted summary scalars. Nil for older versions.
type snapExtra struct {
	routing []int32
	sums    []ShardSummaryInfo
}

func readSnapshot(r io.Reader) (tk Tokenizer, shards int, log []core.DocState, extra *snapExtra, err error) {
	br := bufio.NewReaderSize(r, 1<<20)
	head := make([]byte, len(snapMagic)+1+4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, 0, nil, nil, fmt.Errorf("%w: short header: %v", collection.ErrBadCollection, err)
	}
	if string(head[:len(snapMagic)]) != snapMagic {
		return nil, 0, nil, nil, fmt.Errorf("%w: bad magic", collection.ErrBadCollection)
	}
	version := head[len(snapMagic)]
	if version != snapV2 && version != snapV3 && version != snapV4 {
		return nil, 0, nil, nil, fmt.Errorf("%w: %d", ErrUnknownVersion, version)
	}
	wantCRC := binary.LittleEndian.Uint32(head[len(snapMagic)+1:])
	payload, err := io.ReadAll(br)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, 0, nil, nil, fmt.Errorf("%w: checksum mismatch", collection.ErrBadCollection)
	}

	pos := 0
	fail := func(msg string) (Tokenizer, int, []core.DocState, *snapExtra, error) {
		return nil, 0, nil, nil, fmt.Errorf("%w: %s", collection.ErrBadCollection, msg)
	}
	getString := func() (string, bool) {
		n, sz := binary.Uvarint(payload[pos:])
		if sz <= 0 || n > uint64(len(payload)-pos-sz) {
			return "", false
		}
		s := string(payload[pos+sz : pos+sz+int(n)])
		pos += sz + int(n)
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
	getF64 := func() (float64, bool) {
		if pos+8 > len(payload) {
			return 0, false
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(payload[pos:]))
		pos += 8
		return v, true
	}

	tkName, ok := getString()
	if !ok {
		return fail("truncated tokenizer name")
	}
	tk, err = tokenize.ParseName(tkName)
	if err != nil {
		return fail(err.Error())
	}
	shards = 1
	if version >= snapV3 {
		v, ok := getU32()
		if !ok {
			return fail("truncated shard count")
		}
		shards = int(v)
		if shards < 1 {
			return fail(fmt.Sprintf("shard count %d", shards))
		}
	}
	numDocs, ok := getU32()
	if !ok || uint64(numDocs) > uint64(len(payload)-pos) {
		// Every document takes at least two payload bytes.
		return fail("truncated doc count")
	}
	log = make([]core.DocState, numDocs)
	for i := range log {
		if pos >= len(payload) {
			return fail("truncated doc flag")
		}
		flag := payload[pos]
		pos++
		src, ok := getString()
		if !ok {
			return fail("truncated doc source")
		}
		log[i] = core.DocState{Source: src, Deleted: flag&1 != 0}
	}
	if version >= snapV4 {
		extra = &snapExtra{
			routing: make([]int32, numDocs),
			sums:    make([]ShardSummaryInfo, shards),
		}
		for i := range extra.routing {
			sh, sz := binary.Uvarint(payload[pos:])
			if sz <= 0 {
				return fail("truncated routing table")
			}
			pos += sz
			if sh >= uint64(shards) {
				return fail(fmt.Sprintf("route %d out of range for %d shards", sh, shards))
			}
			extra.routing[i] = int32(sh)
		}
		for i := range extra.sums {
			s := &extra.sums[i]
			var oks [6]bool
			var docs, hot, slots, occ uint32
			docs, oks[0] = getU32()
			s.LenMin, oks[1] = getF64()
			s.LenMax, oks[2] = getF64()
			hot, oks[3] = getU32()
			slots, oks[4] = getU32()
			occ, oks[5] = getU32()
			for _, ok := range oks {
				if !ok {
					return fail(fmt.Sprintf("truncated shard summary %d", i))
				}
			}
			s.Docs, s.HotTokens = int(docs), int(hot)
			s.SketchSlots, s.SketchOccupied = int(slots), int(occ)
		}
	}
	if pos != len(payload) {
		return fail(fmt.Sprintf("%d trailing bytes", len(payload)-pos))
	}
	return tk, shards, log, extra, nil
}

// snapInfo assembles the SnapshotInfo for a live snapshot, deriving the
// live count and — for version-4 files — per-shard live routing counts.
func snapInfo(version, shards int, log []core.DocState, extra *snapExtra) SnapshotInfo {
	info := SnapshotInfo{Version: version, Docs: len(log), Shards: shards}
	for _, d := range log {
		if !d.Deleted {
			info.Live++
		}
	}
	if extra != nil {
		info.Routed = true
		info.RouteCounts = make([]int, shards)
		for i, sh := range extra.routing {
			if !log[i].Deleted {
				info.RouteCounts[sh]++
			}
		}
		info.Summaries = extra.sums
	}
	return info
}

// sniffVersion reads the leading magic of the file at path: 1 for the
// legacy collection format, 2–4 for live snapshots, 5 for durable-store
// manifests. Unknown snapshot versions yield ErrUnknownVersion;
// anything else is rejected as a bad collection.
func sniffVersion(f *os.File) (int, error) {
	head := make([]byte, len(snapMagic)+1)
	n, err := io.ReadFull(f, head)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
		return 0, fmt.Errorf("%w: short header: %v", collection.ErrBadCollection, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	head = head[:n]
	if len(head) >= 8 && string(head[:8]) == "SSCOL1\n\x00" {
		return 1, nil
	}
	if len(head) >= len(snapMagic) && string(head[:len(snapMagic)]) == snapMagic {
		if len(head) <= len(snapMagic) {
			return snapV2, nil // truncated after magic; the body read reports it
		}
		switch v := head[len(snapMagic)]; v {
		case snapV2, snapV3, snapV4, snapV5:
			return int(v), nil
		default:
			return 0, fmt.Errorf("%w: %d", ErrUnknownVersion, v)
		}
	}
	return 0, fmt.Errorf("%w: bad magic", collection.ErrBadCollection)
}

// Open loads any snapshot version as a static Engine and reports what
// was read. Live snapshots index the live documents only; their ids are
// re-assigned densely in id order (a static engine has no tombstones),
// so callers that must preserve live ids should use OpenLive instead.
// The saved shard count is reported in the info but not applied — a
// static engine is monolithic; use OpenSharded to restore the fan-out.
func Open(path string, cfg Config) (*Engine, SnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	defer f.Close()
	version, err := sniffVersion(f)
	if err != nil {
		return nil, SnapshotInfo{}, fmt.Errorf("setsim: load %s: %w", path, err)
	}
	if version == 1 {
		c, err := collection.Read(f)
		if err != nil {
			return nil, SnapshotInfo{}, fmt.Errorf("setsim: load %s: %w", path, err)
		}
		info := SnapshotInfo{Version: 1, Docs: c.NumSets(), Live: c.NumSets(), Shards: 1}
		return core.NewEngine(c, cfg), info, nil
	}
	if version == snapV5 {
		st, err := loadStore(path, f)
		if err != nil {
			return nil, SnapshotInfo{}, fmt.Errorf("setsim: load %s: %w", path, err)
		}
		log, err := st.foldTail()
		if err != nil {
			return nil, SnapshotInfo{}, fmt.Errorf("setsim: load %s: %w", path, err)
		}
		b := collection.NewBuilder(st.tk, true)
		live := 0
		for _, d := range log {
			if !d.Deleted {
				b.Add(d.Source)
				live++
			}
		}
		return core.NewEngine(b.Build(), cfg), st.info(len(log), live), nil
	}
	tk, shards, log, extra, err := readSnapshot(f)
	if err != nil {
		return nil, SnapshotInfo{}, fmt.Errorf("setsim: load %s: %w", path, err)
	}
	b := collection.NewBuilder(tk, true)
	for _, d := range log {
		if !d.Deleted {
			b.Add(d.Source)
		}
	}
	return core.NewEngine(b.Build(), cfg), snapInfo(version, shards, log, extra), nil
}

// OpenSharded loads any snapshot version as a sharded static engine.
// shards ≤ 0 restores the shard count the snapshot was saved with (1
// for version-1 and version-2 files); a positive value overrides it.
// Live documents are re-indexed densely in id order, exactly as Open
// does. A version-4 snapshot opened at its saved shard count reuses the
// persisted routing table — the saved partition comes back exactly, no
// re-clustering pass; older versions and overridden shard counts
// repartition from scratch (similarity-aware unless cfg.NoRoute).
func OpenSharded(path string, cfg Config, shards int) (*ShardedEngine, SnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	defer f.Close()
	version, err := sniffVersion(f)
	if err != nil {
		return nil, SnapshotInfo{}, fmt.Errorf("setsim: load %s: %w", path, err)
	}
	var tk Tokenizer
	var docs []string
	var assign []int32
	var info SnapshotInfo
	if version == 1 {
		c, err := collection.Read(f)
		if err != nil {
			return nil, SnapshotInfo{}, fmt.Errorf("setsim: load %s: %w", path, err)
		}
		if !c.HasSource() {
			return nil, SnapshotInfo{}, fmt.Errorf("setsim: load %s: legacy snapshot lacks sources; cannot repartition", path)
		}
		tk = c.Tokenizer()
		docs = make([]string, c.NumSets())
		for i := range docs {
			docs[i] = c.Source(collection.SetID(i))
		}
		info = SnapshotInfo{Version: 1, Docs: len(docs), Live: len(docs), Shards: 1}
	} else if version == snapV5 {
		st, lerr := loadStore(path, f)
		if lerr != nil {
			return nil, SnapshotInfo{}, fmt.Errorf("setsim: load %s: %w", path, lerr)
		}
		log, lerr := st.foldTail()
		if lerr != nil {
			return nil, SnapshotInfo{}, fmt.Errorf("setsim: load %s: %w", path, lerr)
		}
		tk = st.tk
		for i, d := range log {
			if d.Deleted {
				continue
			}
			docs = append(docs, d.Source)
			if len(st.tail) == 0 {
				// Package membership is the saved routing; only valid when
				// no un-checkpointed mutations follow it.
				assign = append(assign, st.routing[i])
			}
		}
		info = st.info(len(log), len(docs))
	} else {
		var saved int
		var log []core.DocState
		var extra *snapExtra
		tk, saved, log, extra, err = readSnapshot(f)
		if err != nil {
			return nil, SnapshotInfo{}, fmt.Errorf("setsim: load %s: %w", path, err)
		}
		for i, d := range log {
			if d.Deleted {
				continue
			}
			docs = append(docs, d.Source)
			if extra != nil {
				// Filter the routing table down to the live documents,
				// matching their dense re-indexing.
				assign = append(assign, extra.routing[i])
			}
		}
		info = snapInfo(version, saved, log, extra)
	}
	if shards <= 0 {
		shards = info.Shards
	}
	if shards != info.Shards || cfg.NoRoute {
		assign = nil // saved routing is only valid at the saved fan-out
	}
	return core.BuildShardedRouted(tk, docs, true, shards, assign, cfg), info, nil
}

// OpenLive loads any snapshot version as a mutable engine and reports
// what was read. The document log is replayed — tombstoned entries
// included, preserving ids — and compacted before OpenLive returns.
// When cfg.Shards is unset, a version-3 or newer snapshot restores the
// shard count it was saved with; setting cfg.Shards overrides it. The
// routing table of a version-4 snapshot is not replayed: the closing
// Compact re-clusters deterministically, reproducing the same partition
// the snapshot carried (hash partitioning under cfg.NoRoute).
//
// A version-5 durable store additionally performs crash recovery: the
// checkpoint log from the manifest's segment packages is replayed and
// compacted, then the WAL tail — every intact record past the
// checkpoint, a torn final record excluded — replays through the
// normal mutation path. Use OpenDurable to continue journaling into
// the same store.
func OpenLive(path string, cfg LiveConfig) (*LiveEngine, SnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	defer f.Close()
	version, err := sniffVersion(f)
	if err != nil {
		return nil, SnapshotInfo{}, fmt.Errorf("setsim: load %s: %w", path, err)
	}
	var tk Tokenizer
	var log []core.DocState
	var info SnapshotInfo
	switch version {
	case 1:
		c, err := collection.Read(f)
		if err != nil {
			return nil, SnapshotInfo{}, fmt.Errorf("setsim: load %s: %w", path, err)
		}
		if !c.HasSource() {
			return nil, SnapshotInfo{}, fmt.Errorf("setsim: load %s: legacy snapshot lacks sources; cannot replay into a live engine", path)
		}
		tk = c.Tokenizer()
		log = make([]core.DocState, c.NumSets())
		for i := range log {
			log[i] = core.DocState{Source: c.Source(collection.SetID(i))}
		}
		info = SnapshotInfo{Version: 1, Docs: len(log), Live: len(log), Shards: 1}
	case snapV5:
		st, lerr := loadStore(path, f)
		if lerr != nil {
			return nil, SnapshotInfo{}, fmt.Errorf("setsim: load %s: %w", path, lerr)
		}
		return openLiveV5(path, st, cfg)
	default:
		var saved int
		var extra *snapExtra
		tk, saved, log, extra, err = readSnapshot(f)
		if err != nil {
			return nil, SnapshotInfo{}, fmt.Errorf("setsim: load %s: %w", path, err)
		}
		info = snapInfo(version, saved, log, extra)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = info.Shards
	}
	le := core.NewLive(tk, cfg)
	for _, d := range log {
		id, err := le.Insert(d.Source)
		if err != nil {
			le.Close()
			return nil, SnapshotInfo{}, fmt.Errorf("setsim: load %s: replay: %w", path, err)
		}
		if d.Deleted {
			le.Delete(id)
		}
	}
	le.Compact()
	return le, info, nil
}

// Load reads a snapshot written by Save (or SaveLive) and rebuilds the
// indexes per cfg. The file's checksum is verified; a corrupt file
// yields an error wrapping collection.ErrBadCollection, and a snapshot
// from a newer format version one wrapping ErrUnknownVersion.
func Load(path string, cfg Config) (*Engine, error) {
	e, _, err := Open(path, cfg)
	return e, err
}

// SaveLists additionally writes the disk-resident inverted-list file
// (the invlist binary format) so that queries can run against on-disk
// lists via LoadWithLists instead of rebuilding an in-memory store.
func SaveLists(path string, e *Engine) error {
	return invlist.WriteFile(path, e.Collection(), 0)
}

// LoadWithLists opens a collection saved with Save plus a list file
// written by SaveLists, and serves queries from the on-disk lists.
func LoadWithLists(collectionPath, listsPath string, cfg Config) (*Engine, error) {
	f, err := os.Open(collectionPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := collection.Read(f)
	if err != nil {
		return nil, fmt.Errorf("setsim: load %s: %w", collectionPath, err)
	}
	store, err := invlist.OpenFile(listsPath)
	if err != nil {
		return nil, fmt.Errorf("setsim: open lists %s: %w", listsPath, err)
	}
	cfg.Store = store
	return core.NewEngine(c, cfg), nil
}

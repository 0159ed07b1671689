package setsim

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/invlist"
	"repro/internal/wal"
)

// Snapshot file formats. Two exist, and both are written and read.
//
// Version 1 is the collection binary format (magic "SSCOL1"), written by
// Save: one frozen corpus, no mutation history.
//
// Version 5 is the durable-store layout (store.go), written by SaveLive
// and by a durable engine's checkpoints: the file at path is a thin
// manifest — magic "SSSNAP\n\x00", version byte 5, a CRC32 of the
// payload, the payload — listing checksummed segment packages (one per
// shard, holding the live documents and their token vectors) plus the
// dead log, per-shard summary scalars, the WAL horizon and the
// checkpoint round's dictionary; the documents themselves live in the
// packages and the mutations since the last checkpoint in a write-ahead
// log next to the manifest.
//
// The package shard membership doubles as the routing table, letting
// OpenSharded reproduce the saved partition exactly without
// re-clustering; the summary scalars are advisory (inspection via
// SnapshotInfo — full summaries are derived state, rebuilt from the
// documents on load, like every other index structure; only the
// documents' token vectors and the round dictionary are stored, the
// input every structure is built from). Live and dead
// documents together cover the id space, so a save/load cycle preserves
// every id a caller may still hold. Files with the snapshot magic but
// any other version byte are rejected with ErrUnknownVersion — the
// retired versions 2–4 (single-file live snapshots, which no release
// since version 5 could write) as much as future formats, which must not
// be misparsed.
const (
	colMagic  = "SSCOL1\n\x00"
	snapMagic = "SSSNAP\n\x00"
	snapV5    = 5
)

// ErrUnknownVersion reports a snapshot file with a format version this
// build does not understand.
var ErrUnknownVersion = errors.New("setsim: unknown snapshot format version")

// ShardSummaryInfo is one shard's persisted pruning-summary scalars, as
// carried by version-5 manifests.
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
	// Version is the file's format version: 1 for collection files, 5
	// for durable stores.
	Version int
	// Docs is the number of documents stored, including tombstoned ones.
	Docs int
	// Live is the number of live (non-tombstoned) documents.
	Live int
	// Shards is the partition count the engine was saved with (1 for
	// version-1 files).
	Shards int
	// Routed reports a version-5 snapshot, whose package membership is a
	// routing table and whose manifest carries per-shard summaries;
	// RouteCounts and Summaries are only meaningful then.
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

	// Where the open spent its time. LoadTime is reading and validating
	// the files (manifest or collection, segment packages, WAL) and is the
	// only one a static open (Open, OpenSharded) fills; BuildTime is the
	// one round that builds the checkpointed documents' segments — from
	// the round the packages store, or by tokenizing the documents where
	// they store none; TailTime is replaying the WAL tail through the
	// mutation path.
	LoadTime, BuildTime, TailTime time.Duration
}

// Save writes the engine's collection (dictionary, sets, sources) to
// path in the version-1 format. Derived index structures are not
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

// writeFramedSnapshot writes the manifest framing — magic, version byte
// 5, payload CRC32 — followed by the payload.
func writeFramedSnapshot(w io.Writer, payload []byte) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(snapMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(snapV5); err != nil {
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

// readFramedSnapshot validates the manifest framing and returns the
// checksum-verified payload. Any version byte but 5 wraps
// ErrUnknownVersion, every other structural failure wraps
// collection.ErrBadCollection — a truncated file never surfaces a raw
// io.EOF.
func readFramedSnapshot(r io.Reader) ([]byte, error) {
	head := make([]byte, len(snapMagic)+1+4)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", collection.ErrBadCollection, err)
	}
	if string(head[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", collection.ErrBadCollection)
	}
	if version := head[len(snapMagic)]; version != snapV5 {
		return nil, fmt.Errorf("%w: %d", ErrUnknownVersion, version)
	}
	wantCRC := binary.LittleEndian.Uint32(head[len(snapMagic)+1:])
	payload, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", collection.ErrBadCollection, err)
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch", collection.ErrBadCollection)
	}
	return payload, nil
}

// sniffVersion reads the leading magic of f and rewinds it: 1 for the
// collection format, 5 for durable-store manifests. Any other snapshot
// version byte yields ErrUnknownVersion; anything else, a file that ends
// before its version byte included, is rejected as a bad collection.
func sniffVersion(f *os.File) (int, error) {
	buf := make([]byte, len(snapMagic)+1)
	n, err := io.ReadFull(f, buf)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
		return 0, fmt.Errorf("%w: short header: %v", collection.ErrBadCollection, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	head := string(buf[:n])
	switch {
	case strings.HasPrefix(head, colMagic):
		return 1, nil
	case !strings.HasPrefix(head, snapMagic):
		return 0, fmt.Errorf("%w: bad magic", collection.ErrBadCollection)
	case len(head) == len(snapMagic):
		return 0, fmt.Errorf("%w: short header: no version byte", collection.ErrBadCollection)
	case head[len(snapMagic)] != snapV5:
		return 0, fmt.Errorf("%w: %d", ErrUnknownVersion, head[len(snapMagic)])
	}
	return snapV5, nil
}

// snapshot is a decoded snapshot of either format: everything the
// openers build their engines from, so they differ only in what they
// build.
type snapshot struct {
	info SnapshotInfo
	tk   Tokenizer
	// col is a version-1 file's stored collection, which Open serves as
	// it is; m is a version-5 store's manifest. Exactly one is set,
	// except for the store OpenDurable is about to create.
	col *collection.Collection
	m   *manifestV5
	// log is the checkpointed document log in id order (nil for a
	// version-1 file saved without sources), routing the shard of each
	// of its ids as saved (version 5 only), tail the WAL records past
	// the checkpoint, and docs the log with the tail folded in: the
	// state every opener reproduces.
	log     []core.DocState
	routing []int32
	tail    []wal.Record
	docs    []core.DocState
	// round is the tokenized input of the checkpoint round over the
	// log's live documents, when the store's packages hold it: recovery
	// rebuilds the round from it instead of tokenizing the log.
	round *core.StoredRound
}

// loadSnapshot is the one loader: open, sniff, decode. A failure to open
// the file is returned as the os package reports it; everything after
// names the path and wraps ErrUnknownVersion or
// collection.ErrBadCollection.
func loadSnapshot(path string) (*snapshot, error) {
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := decodeSnapshot(path, f)
	if err != nil {
		return nil, fmt.Errorf("setsim: load %s: %w", path, err)
	}
	s.info.LoadTime = time.Since(start)
	return s, nil
}

func decodeSnapshot(path string, f *os.File) (*snapshot, error) {
	version, err := sniffVersion(f)
	if err != nil {
		return nil, err
	}
	if version == snapV5 {
		return loadStore(path, f)
	}
	c, err := collection.Read(f)
	if err != nil {
		return nil, err
	}
	s := &snapshot{
		info: SnapshotInfo{Version: 1, Docs: c.NumSets(), Live: c.NumSets(), Shards: 1},
		tk:   c.Tokenizer(),
		col:  c,
	}
	if c.HasSource() {
		s.log = make([]core.DocState, c.NumSets())
		for i := range s.log {
			s.log[i].Source = c.Source(collection.SetID(i))
		}
		s.docs = s.log
	}
	return s, nil
}

// attachTail reads the WAL records past sequence number after — without
// modifying the file: a missing log means no mutations since the
// checkpoint, a torn tail is the crash being recovered from — and folds
// them into docs and the info's counts.
func (s *snapshot) attachTail(path string, after uint64) error {
	winfo, err := wal.Replay(walPath(path), after, func(rec wal.Record) error {
		s.tail = append(s.tail, rec)
		return nil
	})
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("setsim: wal %s: %w", walPath(path), err)
	}
	s.docs = append([]core.DocState(nil), s.log...)
	for _, rec := range s.tail {
		switch rec.Op {
		case wal.OpInsert:
			s.docs = append(s.docs, core.DocState{Source: rec.Source})
		case wal.OpDelete:
			if int(rec.ID) >= len(s.docs) || s.docs[rec.ID].Deleted {
				return fmt.Errorf("%w: wal record %d deletes unknown document %d",
					collection.ErrBadCollection, rec.Seq, rec.ID)
			}
			s.docs[rec.ID].Deleted = true
		}
	}
	s.info.Docs, s.info.Live = len(s.docs), 0
	for _, d := range s.docs {
		if !d.Deleted {
			s.info.Live++
		}
	}
	s.info.WALTail, s.info.WALTorn = len(s.tail), winfo.Torn
	return nil
}

// needSources rejects the one snapshot only Open can serve: a version-1
// collection saved without its source strings, which cannot be
// re-tokenized into shards or a document log.
func (s *snapshot) needSources(path string) error {
	if s.col != nil && !s.col.HasSource() {
		return fmt.Errorf("setsim: load %s: version-1 snapshot lacks sources; only Open can serve it", path)
	}
	return nil
}

// liveDocs lists the live documents in id order — the dense re-indexing
// a static engine gives them — and the saved shard of each, while that
// routing is still valid: no un-checkpointed mutations follow it.
func (s *snapshot) liveDocs() (docs []string, assign []int32) {
	for i, d := range s.docs {
		if d.Deleted {
			continue
		}
		docs = append(docs, d.Source)
		if s.routing != nil && len(s.tail) == 0 {
			assign = append(assign, s.routing[i])
		}
	}
	return docs, assign
}

// replay rebuilds a mutable engine from the snapshot — the recovery
// algorithm: the checkpointed log is bulk-loaded (core.RestoreLiveRound
// from the round the packages store, core.RestoreLive — the live
// documents tokenized once — where there is none; either way built
// straight into one segment per shard, tombstoned entries installed so
// ids are preserved), then the WAL tail runs through the normal mutation
// path (no WAL is attached yet, so nothing is re-journaled). The engine
// is bitwise-equivalent to one that replayed the surviving history with
// a compaction at the checkpoint: a compacted engine's state is a pure
// function of (live set, id order, shard count), and the bulk load
// computes that function once instead of reaching it through the
// history. It stamps the info's BuildTime and TailTime.
func (s *snapshot) replay(path string, cfg LiveConfig) (*LiveEngine, error) {
	if err := s.needSources(path); err != nil {
		return nil, err
	}
	if cfg.Shards <= 0 {
		cfg.Shards = s.info.Shards
	}
	wrap := func(err error) error { return fmt.Errorf("setsim: load %s: replay: %w", path, err) }
	start := time.Now()
	var le *LiveEngine
	var err error
	if s.round != nil {
		le, err = core.RestoreLiveRound(s.log, s.round, s.tk, cfg)
	} else {
		le, err = core.RestoreLive(s.log, s.tk, cfg)
	}
	if err != nil {
		return nil, wrap(err)
	}
	s.info.BuildTime = time.Since(start)
	fail := func(err error) (*LiveEngine, error) {
		le.Close()
		return nil, wrap(err)
	}
	start = time.Now()
	for _, rec := range s.tail {
		switch rec.Op {
		case wal.OpInsert:
			if _, err := le.Insert(rec.Source); err != nil {
				return fail(fmt.Errorf("wal record %d: %w", rec.Seq, err))
			}
		case wal.OpDelete:
			if !le.Delete(collection.SetID(rec.ID)) {
				return fail(fmt.Errorf("%w: wal record %d deletes unknown document %d",
					collection.ErrBadCollection, rec.Seq, rec.ID))
			}
		}
	}
	s.info.TailTime = time.Since(start)
	return le, nil
}

// Open loads a snapshot of either version as a static Engine and reports
// what was read. A durable store indexes its live documents only — WAL
// tail included; their ids are re-assigned densely in id order (a static
// engine has no tombstones), so callers that must preserve live ids
// should use OpenLive instead. The saved shard count is reported in the
// info but not applied — a static engine is monolithic; use OpenSharded
// to restore the fan-out.
func Open(path string, cfg Config) (*Engine, SnapshotInfo, error) {
	s, err := loadSnapshot(path)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	if s.col != nil {
		return core.NewEngine(s.col, cfg), s.info, nil
	}
	docs, _ := s.liveDocs()
	return core.NewEngine(core.BuildCollection(s.tk, docs, true), cfg), s.info, nil
}

// OpenSharded loads a snapshot of either version as a sharded static
// engine. shards ≤ 0 restores the shard count the snapshot was saved
// with (1 for version-1 files); a positive value overrides it. Live
// documents are re-indexed densely in id order, exactly as Open does. A
// durable store with an empty WAL tail, opened at its saved shard count,
// reuses the package membership as the routing table — the saved
// partition comes back exactly, no re-clustering pass; version-1 files,
// stores with a tail and overridden shard counts repartition from
// scratch (similarity-aware unless cfg.NoRoute).
func OpenSharded(path string, cfg Config, shards int) (*ShardedEngine, SnapshotInfo, error) {
	s, err := loadSnapshot(path)
	if err == nil {
		err = s.needSources(path)
	}
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	docs, assign := s.liveDocs()
	if shards <= 0 {
		shards = s.info.Shards
	}
	if shards != s.info.Shards || cfg.NoRoute {
		assign = nil // saved routing is only valid at the saved fan-out
	}
	return core.BuildShardedRouted(s.tk, docs, true, shards, assign, cfg), s.info, nil
}

// OpenLive loads a snapshot of either version as a mutable engine and
// reports what was read, including where the time went
// (SnapshotInfo.LoadTime, BuildTime, TailTime). The document log is
// bulk-loaded: every live document goes straight into its shard's
// segment — its token vector read from the packages of a store that
// stores them, else tokenized once — tombstoned entries keep their ids,
// and the engine OpenLive returns is the one replaying the log through
// Insert and Delete and compacting would have produced — without the
// memtable, the per-document snapshots or any intermediate compaction.
// When cfg.Shards is unset the engine restores the shard count it was
// saved with; setting cfg.Shards overrides it. The saved routing is not
// reused: the load's round re-clusters deterministically, reproducing
// the same partition the snapshot carried (hash partitioning under
// cfg.NoRoute). The background compactor starts only after that round
// has published.
//
// For a durable store this is crash recovery: the checkpoint log from
// the manifest's segment packages is bulk-loaded, then the WAL tail —
// every intact record past the checkpoint, a torn final record excluded
// — replays through the normal mutation path. Use OpenDurable to
// continue journaling into the same store.
func OpenLive(path string, cfg LiveConfig) (*LiveEngine, SnapshotInfo, error) {
	s, err := loadSnapshot(path)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	le, err := s.replay(path, cfg)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	return le, s.info, nil
}

// Load reads a snapshot written by Save (or SaveLive) and rebuilds the
// indexes per cfg. The file's checksum is verified; a corrupt file
// yields an error wrapping collection.ErrBadCollection, and a snapshot
// of any other format version one wrapping ErrUnknownVersion.
func Load(path string, cfg Config) (*Engine, error) {
	e, _, err := Open(path, cfg)
	return e, err
}

// SaveLists additionally writes the disk-resident inverted-list file (a
// segment package of the engine's flat list index) so that queries can
// run against on-disk lists via LoadWithLists instead of rebuilding an
// in-memory store.
func SaveLists(path string, e *Engine) error {
	return invlist.WriteFile(path, e.Collection(), 0)
}

// LoadWithLists opens a collection saved with Save plus a list file
// written by SaveLists, and serves queries from the on-disk lists. A list
// file built from a different collection is refused.
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
	if !store.BuiltFrom(c) {
		store.Close()
		return nil, fmt.Errorf("setsim: lists %s were not built from collection %s", listsPath, collectionPath)
	}
	cfg.Store = store
	return core.NewEngine(c, cfg), nil
}

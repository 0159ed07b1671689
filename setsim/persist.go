package setsim

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/invlist"
	"repro/internal/route"
	"repro/internal/wal"
)

// Snapshot file format. One exists: version 5, the durable-store layout
// (store.go), written by Save, by SaveLive and by a durable engine's
// checkpoints. The file at path is a thin manifest — magic
// "SSSNAP\n\x00", version byte 5, a CRC32 of the payload, the payload —
// listing checksummed segment packages (one per shard, holding the live
// documents and their token vectors) plus the dead log, per-shard
// summary scalars, the WAL horizon and the checkpoint round's
// dictionary; the documents themselves live in the packages and the
// mutations since the last checkpoint in a write-ahead log next to the
// manifest.
//
// The package shard membership is the routing table, which OpenSharded's
// deterministic re-clustering reproduces; the summary scalars are advisory (inspection via
// SnapshotInfo — full summaries are derived state, rebuilt from the
// documents on load, like every other index structure; only the
// documents' token vectors and the round dictionary are stored, the
// input every structure is built from). Live and dead
// documents together cover the id space, so a save/load cycle preserves
// every id a caller may still hold. Files with the snapshot magic but
// any other version byte are rejected with ErrUnknownVersion — the
// retired versions 2–4 (single-file live snapshots, which no release
// since version 5 could write) as much as future formats, which must not
// be misparsed. Files without the magic are rejected with
// collection.ErrBadCollection, the retired version-1 collection file
// (magic "SSCOL1", one frozen corpus) among them.
const (
	snapMagic = "SSSNAP\n\x00"
	snapV5    = 5
)

// ErrUnknownVersion reports a snapshot file with a format version this
// build does not understand.
var ErrUnknownVersion = errors.New("setsim: unknown snapshot format version")

// ShardSummaryInfo is one shard's persisted pruning-summary scalars, as
// a manifest carries them.
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
	// Version is the file's format version: 5.
	Version int
	// Docs is the number of documents stored, including tombstoned ones.
	Docs int
	// Live is the number of live (non-tombstoned) documents.
	Live int
	// Shards is the partition count the engine was saved with.
	Shards int
	// RouteCounts is the number of live documents routed to each shard.
	RouteCounts []int
	// Summaries holds each shard's persisted summary scalars.
	Summaries []ShardSummaryInfo

	// The fields below describe the store's checkpoint and WAL.

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
	// the files (manifest, segment packages, WAL) and is the only one a
	// static open (Open, OpenSharded) fills; BuildTime is the one round
	// that builds the checkpointed documents' segments from the round the
	// packages store; TailTime is replaying the WAL tail through the
	// mutation path.
	LoadTime, BuildTime, TailTime time.Duration
}

// Save writes the engine's documents to path as a fresh store: one
// shard's generation-1 segment package, holding the documents and their
// token vectors, plus the manifest. Derived index structures are not
// stored: Load rebuilds them deterministically, which is fast relative
// to I/O and keeps the files compact. An engine whose collection keeps
// no sources cannot be stored, and is refused.
func Save(path string, e *Engine) error {
	c := e.Collection()
	if !c.HasSource() {
		return fmt.Errorf("setsim: save %s: the collection keeps no sources", path)
	}
	log := make([]core.DocState, c.NumSets())
	for i := range log {
		log[i].Source = c.Source(collection.SetID(i))
	}
	return saveStore(path, c.Tokenizer(), log, make([]int32, len(log)), make([]*route.Summary, 1))
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
	return saveStore(path, le.Tokenizer(), le.Log(), le.Routing(), le.ShardSummaries())
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
// checksum-verified payload. It is the one place a file's format is
// told: the magic and the version byte are checked before the checksum
// is read, so any version byte but 5 wraps ErrUnknownVersion however
// short the file, and every other structural failure wraps
// collection.ErrBadCollection — a truncated file never surfaces a raw
// io.EOF.
func readFramedSnapshot(r io.Reader) ([]byte, error) {
	head := make([]byte, len(snapMagic)+1+4)
	if _, err := io.ReadFull(r, head[:len(snapMagic)+1]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", collection.ErrBadCollection, err)
	}
	if string(head[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", collection.ErrBadCollection)
	}
	if version := head[len(snapMagic)]; version != snapV5 {
		return nil, fmt.Errorf("%w: %d", ErrUnknownVersion, version)
	}
	if _, err := io.ReadFull(r, head[len(snapMagic)+1:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", collection.ErrBadCollection, err)
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

// snapshot is a decoded store: everything the openers build their
// engines from, so they differ only in what they build.
type snapshot struct {
	info SnapshotInfo
	tk   Tokenizer
	// m is the store's manifest: for a store no checkpoint has covered
	// yet, which OpenDurable opens from its WAL alone, an empty one
	// naming the tokenizer.
	m *manifestV5
	// log is the checkpointed document log in id order, routing the
	// shard of each of its ids as saved, tail the WAL records past the
	// checkpoint, and docs the log with the tail folded in: the state
	// every opener reproduces.
	log     []core.DocState
	routing []int32
	tail    []wal.Record
	docs    []core.DocState
	// round is the tokenized input of the checkpoint round over the
	// log's live documents, as the store's packages hold it: recovery
	// rebuilds the round from it instead of tokenizing the log. It is
	// nil only for a store no checkpoint covers, whose log is empty.
	round *core.StoredRound
}

// loadSnapshot is the one loader: open, then read and cross-validate the
// store. A failure to open the file is returned as the os package
// reports it; everything after names the path and wraps
// ErrUnknownVersion or collection.ErrBadCollection.
func loadSnapshot(path string) (*snapshot, error) {
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := loadStore(path, f)
	if err != nil {
		return nil, fmt.Errorf("setsim: load %s: %w", path, err)
	}
	s.info.LoadTime = time.Since(start)
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

// liveSources lists the live documents of a log in id order.
func liveSources(log []core.DocState) []string {
	var out []string
	for _, d := range log {
		if !d.Deleted {
			out = append(out, d.Source)
		}
	}
	return out
}

// replay rebuilds a mutable engine from the snapshot — the recovery
// algorithm: the checkpointed log is bulk-loaded (core.RestoreLiveRound
// from the round the packages store, no document tokenized, built
// straight into one segment per shard, tombstoned entries installed so
// ids are preserved), then the WAL tail runs through the normal mutation
// path (no WAL is attached yet, so nothing is re-journaled). The engine
// is bitwise-equivalent to one that replayed the surviving history with
// a compaction at the checkpoint: a compacted engine's state is a pure
// function of (live set, id order, shard count), and the bulk load
// computes that function once instead of reaching it through the
// history. It stamps the info's BuildTime and TailTime.
func (s *snapshot) replay(path string, cfg LiveConfig) (*LiveEngine, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = s.info.Shards
	}
	wrap := func(err error) error { return fmt.Errorf("setsim: load %s: replay: %w", path, err) }
	start := time.Now()
	// A snapshot without a stored round — a store no checkpoint covers
	// yet, whose log is empty — restores from the round tokenizing the
	// log's live documents builds, the one a save stores.
	sr := s.round
	if sr == nil {
		var err error
		if sr, err = core.TokenizeRound(s.tk, liveSources(s.log)); err != nil {
			return nil, wrap(err)
		}
	}
	le, err := core.RestoreLiveRound(s.log, sr, s.tk, cfg)
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

// Open loads a store as a static Engine and reports what was read. It
// indexes the live documents only — WAL tail included; their ids are
// re-assigned densely in id order (a static engine has no tombstones), so
// callers that must preserve live ids should use OpenLive instead. The
// saved shard count is reported in the info but not applied — a static
// engine is monolithic; use OpenSharded to restore the fan-out.
func Open(path string, cfg Config) (*Engine, SnapshotInfo, error) {
	c, info, err := openCollection(path)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	return core.NewEngine(c, cfg), info, nil
}

// openCollection loads a store and freezes its live documents, densely
// in id order, into the collection a static engine serves.
func openCollection(path string) (*collection.Collection, SnapshotInfo, error) {
	s, err := loadSnapshot(path)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	return core.BuildCollection(s.tk, liveSources(s.docs), true), s.info, nil
}

// OpenSharded loads a store as a sharded static engine. shards ≤ 0
// restores the shard count the store was saved with; a positive value
// overrides it. Live documents are re-indexed densely in id order,
// exactly as Open does, and BuildSharded re-clusters them: at the saved
// shard count, a store with an empty WAL tail comes back in the saved
// partition, which the clustering reproduces deterministically.
func OpenSharded(path string, cfg Config, shards int) (*ShardedEngine, SnapshotInfo, error) {
	s, err := loadSnapshot(path)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	if shards <= 0 {
		shards = s.info.Shards
	}
	return core.BuildSharded(s.tk, liveSources(s.docs), shards, cfg), s.info, nil
}

// OpenLive loads a store as a mutable engine and reports what was read,
// including where the time went (SnapshotInfo.LoadTime, BuildTime,
// TailTime). The document log is bulk-loaded: every live document goes
// straight into its shard's segment — its token vector read from the
// packages, no document tokenized — tombstoned entries keep their ids,
// and the engine OpenLive returns is the one replaying the log through
// Insert and Delete and compacting would have produced — without the
// memtable, the per-document snapshots or any intermediate compaction.
// When cfg.Shards is unset the engine restores the shard count it was
// saved with; setting cfg.Shards overrides it. The saved routing is not
// reused: the load's round re-clusters deterministically, reproducing
// the same partition the snapshot carried. The background compactor starts only after that round
// has published.
//
// This is crash recovery: the checkpoint log from
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

// Load reads a store written by Save (or SaveLive) and rebuilds the
// indexes per cfg. Every checksum is verified; a corrupt store yields an
// error wrapping collection.ErrBadCollection, and a snapshot of any
// other format version one wrapping ErrUnknownVersion.
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

// LoadWithLists opens a store saved with Save plus a list file written
// by SaveLists, and serves queries from the on-disk lists. The store's
// collection is built exactly as Open builds it; a list file built from
// another collection is refused.
func LoadWithLists(storePath, listsPath string, cfg Config) (*Engine, error) {
	c, _, err := openCollection(storePath)
	if err != nil {
		return nil, err
	}
	store, err := invlist.OpenFile(listsPath)
	if err != nil {
		return nil, fmt.Errorf("setsim: open lists %s: %w", listsPath, err)
	}
	if !store.BuiltFrom(c) {
		store.Close()
		return nil, fmt.Errorf("setsim: lists %s were not built from store %s", listsPath, storePath)
	}
	cfg.Store = store
	return core.NewEngine(c, cfg), nil
}

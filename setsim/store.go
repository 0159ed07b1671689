// The storage layer: version-5 stores, the one on-disk format of a
// corpus (Save, SaveLive and every checkpoint write it; every opener
// reads it). A store is not one monolithic blob but a thin manifest plus
// segment packages:
//
//   - <path>              the manifest (framing in persist.go)
//   - <base>.g<G>-s<S>.sspk  one segment package per non-empty shard,
//     in the manifest's directory (internal/segpack format: per-block
//     CRC32, tagged metadata with the shard's route summary and stats)
//     holding two records: "docs", the shard's live documents (u32
//     count, per doc uvarint id + uvarint len + source), and "vecs",
//     their token vectors in the checkpoint round's ids (encodePackVecs)
//   - <path>.wal          the write-ahead log holding the mutations
//     applied after the manifest's checkpoint (internal/wal format)
//
// Manifest payload (after magic, version byte 5, payload CRC32):
//
//	tokenizer name: uvarint len + bytes
//	shards u32, generation u64, walStart u64
//	nextID u32 (id-space size), liveN u32
//	dead docs: u32 count, per doc: uvarint id + uvarint len + source
//	per shard: summary scalars (docs u32, lenMin f64, lenMax f64,
//	           hot u32, sketch slots u32, occupied u32)
//	segpacks: u32 count, per ref: uvarint len + basename, shard u32,
//	          docs u32
//	round dictionary: u32 count, per token in id order: uvarint len +
//	          bytes
//
// The manifest carries no routing table: shard membership of the
// packages IS the routing. A checkpoint stores its round's input beside
// the documents: the round dictionary once, in the manifest, and every
// live document's vector in its package — the round over the live
// documents in id order, which does not depend on the shard count.
// Recovery loads the manifest, reads every package (verifying block
// checksums), reconstructs the document log — live docs from the
// packages, tombstoned docs from the manifest's dead list, together
// covering the id space exactly — and the round's input, merging the
// packages' vectors into id order, then bulk-loads the log into a live
// engine (core.RestoreLiveRound: the round rebuilt from its stored input
// with no document tokenized, built straight into one segment per shard,
// the tombstoned documents installed as tombstones so ids are preserved,
// the background compactor started only afterwards), then replays the
// WAL tail (records past walStart) through the normal mutation path. A
// manifest without the dictionary or a package without the vectors —
// stores written before packages held them — is refused with
// collection.ErrBadCollection. The posting lists, skip samples and dense
// bitmaps are not stored: an open builds them from the round. The
// recovered engine answers queries bitwise-identically to an engine that
// replayed the same surviving history with a compaction at the
// checkpoint, because a compacted engine's state is a pure function of
// (live set, id order, shard count): the bulk load evaluates that
// function once, where re-inserting the log and compacting evaluated it
// through the memtable, a snapshot per document and however many
// background rounds raced the load. SnapshotInfo reports the three
// phases' durations (LoadTime, BuildTime, TailTime).
//
// One writer, writeGeneration, persists a settled state — Save's,
// SaveLive's and every checkpoint's alike — and follows write-ahead
// ordering: new-generation packages first, then the manifest (a temp
// file renamed over it, then a directory fsync); a checkpoint then
// truncates the WAL and removes the old generation's packages. A crash between any two steps leaves a
// recoverable store — at worst a longer WAL tail or orphaned package
// files the next checkpoint overwrites.
package setsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/route"
	"repro/internal/segpack"
	"repro/internal/tokenize"
	"repro/internal/wal"
)

// SyncPolicy selects the WAL durability mode of a durable engine. The
// zero value is SyncGroup: a mutation returns once its record is
// fsynced, concurrent writers sharing one flush.
type SyncPolicy = wal.SyncPolicy

// Re-exported sync policies. SyncAlways is a second name for SyncGroup.
const (
	SyncGroup  = wal.SyncGroup
	SyncAlways = wal.SyncAlways
	SyncOff    = wal.SyncOff
)

// ParseSyncPolicy parses "group" (also spelled "always") or "off".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParsePolicy(s) }

// DurableOptions configure OpenDurable's write-ahead log.
type DurableOptions struct {
	// Sync is the WAL durability policy (default SyncGroup).
	Sync SyncPolicy
}

// SegpackRef is one segment package referenced by a v5 manifest.
type SegpackRef struct {
	// Name is the package's file name, relative to the manifest's
	// directory.
	Name string
	// Shard is the partition the package holds.
	Shard int
	// Docs is the number of live documents in the package.
	Docs int
}

// The records of a package: its document list, and its documents'
// token vectors in the round dictionary's ids.
const (
	packDocsRecord = "docs"
	packVecsRecord = "vecs"
)

// manifestV5 is a decoded (or to-be-written) version-5 manifest.
type manifestV5 struct {
	tkName   string
	shards   int
	gen      uint64
	walStart uint64
	nextID   int
	liveN    int
	dead     []core.DocRef // ascending id
	sums     []ShardSummaryInfo
	refs     []SegpackRef
	// dict is the checkpoint round's dictionary in id order, which the
	// packages' vectors number.
	dict []string
}

func packName(base string, gen uint64, shard int) string {
	return fmt.Sprintf("%s.g%d-s%d.sspk", base, gen, shard)
}

func walPath(path string) string { return path + ".wal" }

// writeManifestFile atomically replaces path with the serialized
// manifest: temp file, fsync, rename, directory fsync.
func writeManifestFile(path string, m *manifestV5) error {
	var p payloadBuf
	p.str(m.tkName)
	p.u32(uint32(m.shards))
	p.u64(m.gen)
	p.u64(m.walStart)
	p.u32(uint32(m.nextID))
	p.u32(uint32(m.liveN))
	p.u32(uint32(len(m.dead)))
	for _, d := range m.dead {
		p.uvarint(uint64(d.ID))
		p.str(d.Source)
	}
	for _, s := range m.sums {
		p.u32(uint32(s.Docs))
		p.f64(s.LenMin)
		p.f64(s.LenMax)
		p.u32(uint32(s.HotTokens))
		p.u32(uint32(s.SketchSlots))
		p.u32(uint32(s.SketchOccupied))
	}
	p.u32(uint32(len(m.refs)))
	for _, r := range m.refs {
		p.str(r.Name)
		p.u32(uint32(r.Shard))
		p.u32(uint32(r.Docs))
	}
	p.u32(uint32(len(m.dict)))
	for _, t := range m.dict {
		p.str(t)
	}

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = writeFramedSnapshot(f, p.b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// readManifest decodes a version-5 manifest from r (the whole file,
// magic onward). Structural failures wrap collection.ErrBadCollection.
func readManifest(r io.Reader) (*manifestV5, error) {
	payload, err := readFramedSnapshot(r)
	if err != nil {
		return nil, err
	}
	p := payloadRd{b: payload}
	m := &manifestV5{}
	m.tkName = p.str("tokenizer name")
	m.shards = int(p.u32("shard count"))
	m.gen = p.u64("generation")
	m.walStart = p.u64("wal start")
	m.nextID = int(p.u32("id-space size"))
	m.liveN = int(p.u32("live count"))
	nDead := int(p.u32("dead count"))
	if p.err == nil && (m.shards < 1 || nDead > m.nextID || m.liveN > m.nextID) {
		return nil, fmt.Errorf("%w: inconsistent manifest counts (shards %d, dead %d, live %d, ids %d)",
			collection.ErrBadCollection, m.shards, nDead, m.liveN, m.nextID)
	}
	for i := 0; i < nDead && p.err == nil; i++ {
		id := p.uvarint("dead id")
		src := p.str("dead source")
		m.dead = append(m.dead, core.DocRef{ID: collection.SetID(id), Source: src})
	}
	// Each shard summary takes 32 bytes, so the payload left bounds the
	// shard count before anything is sized by it.
	if p.err == nil && m.shards > (len(p.b)-p.pos)/32 {
		return nil, fmt.Errorf("%w: %d shard summaries in %d bytes",
			collection.ErrBadCollection, m.shards, len(p.b)-p.pos)
	}
	m.sums = make([]ShardSummaryInfo, 0, max(m.shards, 0))
	for i := 0; i < m.shards && p.err == nil; i++ {
		var s ShardSummaryInfo
		s.Docs = int(p.u32("summary docs"))
		s.LenMin = p.f64("summary lenMin")
		s.LenMax = p.f64("summary lenMax")
		s.HotTokens = int(p.u32("summary hot tokens"))
		s.SketchSlots = int(p.u32("summary sketch slots"))
		s.SketchOccupied = int(p.u32("summary sketch occupied"))
		m.sums = append(m.sums, s)
	}
	nRefs := int(p.u32("segpack count"))
	packed := make([]bool, len(m.sums))
	for i := 0; i < nRefs && p.err == nil; i++ {
		var ref SegpackRef
		ref.Name = p.str("segpack name")
		ref.Shard = int(p.u32("segpack shard"))
		ref.Docs = int(p.u32("segpack docs"))
		if p.err == nil && (ref.Shard < 0 || ref.Shard >= m.shards || packed[ref.Shard] || ref.Name == "" ||
			ref.Name != filepath.Base(ref.Name)) {
			return nil, fmt.Errorf("%w: bad segpack ref %q (shard %d of %d, one package per shard)",
				collection.ErrBadCollection, ref.Name, ref.Shard, m.shards)
		}
		if p.err == nil {
			packed[ref.Shard] = true
		}
		m.refs = append(m.refs, ref)
	}
	ids := nDead
	for _, ref := range m.refs {
		ids += ref.Docs
	}
	if p.err == nil && ids != m.nextID {
		return nil, fmt.Errorf("%w: packages and dead list cover %d ids, manifest says %d",
			collection.ErrBadCollection, ids, m.nextID)
	}
	n := int(p.u32("dictionary size"))
	m.dict = make([]string, 0, min(n, len(p.b)))
	for i := 0; i < n && p.err == nil; i++ {
		m.dict = append(m.dict, p.str("dictionary token"))
	}
	if p.err != nil {
		return nil, p.err
	}
	if p.pos != len(p.b) {
		return nil, fmt.Errorf("%w: %d trailing manifest bytes", collection.ErrBadCollection, len(p.b)-p.pos)
	}
	return m, nil
}

// writePackFile writes one shard's segment package: the document list
// record and the documents' vector record, plus inspection metadata
// (shard, generation, the stats snapshot the segment was built under,
// and its route-summary scalars).
func writePackFile(path string, shard int, gen uint64, docs []core.DocRef, sum ShardSummaryInfo, nextID, liveN int) error {
	w, err := segpack.Create(path)
	if err != nil {
		return err
	}
	var p payloadBuf
	p.u32(uint32(len(docs)))
	for _, d := range docs {
		p.uvarint(uint64(d.ID))
		p.str(d.Source)
	}
	err = w.AddRecord(packDocsRecord, p.b)
	if err == nil {
		err = w.AddRecord(packVecsRecord, encodePackVecs(docs))
	}
	if err != nil {
		w.Abort()
		return err
	}
	w.SetMeta("shard", []byte(strconv.Itoa(shard)))
	w.SetMeta("gen", []byte(strconv.FormatUint(gen, 10)))
	w.SetMeta("docs", []byte(strconv.Itoa(len(docs))))
	w.SetMeta("stats.nextid", []byte(strconv.Itoa(nextID)))
	w.SetMeta("stats.liven", []byte(strconv.Itoa(liveN)))
	w.SetMeta("summary.docs", []byte(strconv.Itoa(sum.Docs)))
	w.SetMeta("summary.lenrange", []byte(fmt.Sprintf("%g..%g", sum.LenMin, sum.LenMax)))
	w.SetMeta("summary.hottokens", []byte(strconv.Itoa(sum.HotTokens)))
	w.SetMeta("summary.sketch", []byte(fmt.Sprintf("%d/%d", sum.SketchOccupied, sum.SketchSlots)))
	if err := w.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}

// openPack opens one segment package; a package of an unknown format
// version wraps ErrUnknownVersion.
func openPack(path string) (*segpack.FileReader, error) {
	fr, err := segpack.Open(path)
	if errors.Is(err, segpack.ErrVersion) {
		return nil, fmt.Errorf("%w: %v", ErrUnknownVersion, err)
	}
	return fr, err
}

// readPackDocs verifies the document record's block checksums and
// decodes the (id, source) list.
func readPackDocs(fr *segpack.FileReader, path string) ([]core.DocRef, error) {
	raw, err := fr.ReadRecord(packDocsRecord)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", collection.ErrBadCollection, path, err)
	}
	p := payloadRd{b: raw}
	n := int(p.u32("doc count"))
	docs := make([]core.DocRef, 0, min(n, len(raw)))
	last := int64(-1)
	for i := 0; i < n && p.err == nil; i++ {
		id := p.uvarint("doc id")
		src := p.str("doc source")
		if p.err == nil && int64(id) <= last {
			return nil, fmt.Errorf("%w: %s: document ids not ascending", collection.ErrBadCollection, path)
		}
		last = int64(id)
		docs = append(docs, core.DocRef{ID: collection.SetID(id), Source: src})
	}
	if p.err != nil {
		return nil, fmt.Errorf("%w: %s: %v", collection.ErrBadCollection, path, p.err)
	}
	if p.pos != len(p.b) {
		return nil, fmt.Errorf("%w: %s: trailing bytes in document record", collection.ErrBadCollection, path)
	}
	return docs, nil
}

// packVecs is one package's documents' token vectors, back to back in
// the package's document order: the i-th is vecs[off[i]:off[i+1]].
type packVecs struct {
	vecs []tokenize.Count
	off  []int
}

// readPackVecs verifies the vector record's block checksums and decodes
// it against the package's documents and the size of the round
// dictionary.
func readPackVecs(fr *segpack.FileReader, path string, docs []core.DocRef, dictLen int) (packVecs, error) {
	raw, err := fr.ReadRecord(packVecsRecord)
	if err != nil {
		return packVecs{}, fmt.Errorf("%w: %s: %v", collection.ErrBadCollection, path, err)
	}
	pv, err := decodePackVecs(raw, docs, dictLen)
	if err != nil {
		return packVecs{}, fmt.Errorf("%s: %w", path, err)
	}
	return pv, nil
}

// encodePackVecs encodes the vector record of a package's documents:
//
//	docs u32, entries u32
//	per doc: uvarint id (the first; then the gap from the one before),
//	         uvarint n, n × uvarint token (the first; then the gap)
//	tfs u32, per entry whose tf exceeds 1, ascending by its position in
//	         the record's entries: uvarint position (the first; then the
//	         gap), uvarint tf
//
// Every gap is positive: ids and each vector's tokens ascend strictly.
func encodePackVecs(docs []core.DocRef) []byte {
	entries, tfs := 0, 0
	for _, d := range docs {
		entries += len(d.Vec)
		for _, c := range d.Vec {
			if c.TF > 1 {
				tfs++
			}
		}
	}
	p := payloadBuf{b: make([]byte, 0, 12+2*len(docs)+2*entries+3*tfs)}
	p.u32(uint32(len(docs)))
	p.u32(uint32(entries))
	prevID := collection.SetID(0)
	for _, d := range docs {
		p.uvarint(uint64(d.ID - prevID))
		prevID = d.ID
		p.uvarint(uint64(len(d.Vec)))
		prev := tokenize.Token(0)
		for _, c := range d.Vec {
			p.uvarint(uint64(c.Token - prev))
			prev = c.Token
		}
	}
	p.u32(uint32(tfs))
	pos, prevPos := 0, 0
	for _, d := range docs {
		for _, c := range d.Vec {
			if c.TF > 1 {
				p.uvarint(uint64(pos - prevPos))
				p.uvarint(uint64(c.TF))
				prevPos = pos
			}
			pos++
		}
	}
	return p.b
}

// decodePackVecs decodes a vector record written by encodePackVecs for
// docs, whose tokens must lie below dictLen. A record that is truncated,
// carries trailing bytes, names other documents than docs, or holds a
// token past the dictionary, tokens that do not ascend, or a tf entry out
// of order, out of range or below 2 is refused with an error wrapping
// collection.ErrBadCollection. Every allocation and loop is bounded by
// the record's length.
func decodePackVecs(raw []byte, docs []core.DocRef, dictLen int) (packVecs, error) {
	bad := func(format string, args ...any) (packVecs, error) {
		return packVecs{}, fmt.Errorf("%w: vector record: %s", collection.ErrBadCollection, fmt.Sprintf(format, args...))
	}
	p := payloadRd{b: raw}
	n := int(p.u32("vector count"))
	entries := int(p.u32("vector entries"))
	if p.err != nil {
		return packVecs{}, p.err
	}
	if n != len(docs) {
		return bad("%d documents, the document record holds %d", n, len(docs))
	}
	pv := packVecs{
		vecs: make([]tokenize.Count, 0, min(entries, len(raw))),
		off:  make([]int, 1, len(docs)+1),
	}
	for i, d := range docs {
		gap := p.uvarint("vector doc id")
		want := uint64(d.ID)
		if i > 0 {
			want -= uint64(docs[i-1].ID)
		}
		k := p.uvarint("vector length")
		if p.err != nil {
			return packVecs{}, p.err
		}
		if gap != want {
			return bad("entry %d names another document than the document record's %d", i, d.ID)
		}
		at := len(pv.vecs)
		if k > uint64(cap(pv.vecs)-at) {
			return bad("document %d: %d tokens past the %d entries the header says", d.ID, k, entries)
		}
		// The token loop is the decode's hot path: one varint per
		// entry, read in place, written straight into the arena.
		dst := pv.vecs[at : at+int(k)]
		b, pos, tok := p.b, p.pos, uint64(0)
		for j := range dst {
			gap, w := binary.Uvarint(b[pos:])
			if w <= 0 {
				return bad("document %d: truncated token", d.ID)
			}
			pos += w
			if j > 0 && gap == 0 {
				return bad("document %d: tokens not ascending", d.ID)
			}
			if gap >= uint64(dictLen)-tok {
				return bad("document %d: token past the %d-token dictionary", d.ID, dictLen)
			}
			tok += gap
			dst[j] = tokenize.Count{Token: tokenize.Token(tok), TF: 1}
		}
		p.pos = pos
		pv.vecs = pv.vecs[:at+len(dst)]
		pv.off = append(pv.off, len(pv.vecs))
	}
	if len(pv.vecs) != entries {
		return bad("%d entries, the header says %d", len(pv.vecs), entries)
	}
	tfs := int(p.u32("tf count"))
	if p.err == nil && tfs > len(pv.vecs) {
		return bad("%d tf entries for %d tokens", tfs, len(pv.vecs))
	}
	pos := uint64(0)
	for j := 0; j < tfs && p.err == nil; j++ {
		gap := p.uvarint("tf position")
		tf := p.uvarint("tf")
		if p.err != nil {
			break
		}
		if (j > 0 && gap == 0) || gap >= uint64(len(pv.vecs))-pos || tf < 2 || tf > math.MaxUint32 {
			return bad("tf entry %d {+%d, %d} out of order or range", j, gap, tf)
		}
		pos += gap
		pv.vecs[pos].TF = uint32(tf)
	}
	if p.err != nil {
		return packVecs{}, p.err
	}
	if p.pos != len(p.b) {
		return bad("%d trailing bytes", len(p.b)-p.pos)
	}
	return pv, nil
}

// loadStore reads and cross-validates a v5 store rooted at path: the
// manifest, the document log it reconstructs (live docs from the
// packages, dead from the dead list), the membership-derived routing
// table, and the WAL tail. r is the manifest file, positioned at its
// start.
func loadStore(path string, r io.Reader) (*snapshot, error) {
	m, err := readManifest(r)
	if err != nil {
		return nil, err
	}
	tk, err := tokenize.ParseName(m.tkName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", collection.ErrBadCollection, err)
	}
	// The packages are read before anything is sized by the manifest's
	// id-space size, which readManifest holds to their document counts
	// plus the dead list's: what they hold bounds it, and with no id out
	// of range or covered twice below, none is missing.
	dir := filepath.Dir(path)
	packDocs := make([][]core.DocRef, len(m.refs))
	packs := make([]packVecs, len(m.refs))
	for i, ref := range m.refs {
		docs, pv, err := readPack(filepath.Join(dir, ref.Name), len(m.dict))
		if err != nil {
			return nil, err
		}
		packs[i] = pv
		if len(docs) != ref.Docs {
			return nil, fmt.Errorf("%w: %s holds %d docs, manifest says %d",
				collection.ErrBadCollection, ref.Name, len(docs), ref.Docs)
		}
		packDocs[i] = docs
	}
	s := &snapshot{
		info: SnapshotInfo{
			Version:     snapV5,
			Shards:      m.shards,
			RouteCounts: make([]int, m.shards),
			Summaries:   m.sums,
			Generation:  m.gen,
			WALStart:    m.walStart,
			Segpacks:    m.refs,
		},
		tk:      tk,
		m:       m,
		log:     make([]core.DocState, m.nextID),
		routing: make([]int32, m.nextID),
	}
	covered := make([]bool, m.nextID)
	live := 0
	for i, ref := range m.refs {
		s.info.RouteCounts[ref.Shard] += ref.Docs
		for _, d := range packDocs[i] {
			if int(d.ID) >= m.nextID || covered[d.ID] {
				return nil, fmt.Errorf("%w: %s: document id %d out of range or duplicated",
					collection.ErrBadCollection, ref.Name, d.ID)
			}
			covered[d.ID] = true
			s.log[d.ID] = core.DocState{Source: d.Source}
			s.routing[d.ID] = int32(ref.Shard)
			live++
		}
	}
	for _, d := range m.dead {
		if int(d.ID) >= m.nextID || covered[d.ID] {
			return nil, fmt.Errorf("%w: dead document id %d out of range or duplicated",
				collection.ErrBadCollection, d.ID)
		}
		covered[d.ID] = true
		s.log[d.ID] = core.DocState{Source: d.Source, Deleted: true}
	}
	if live != m.liveN {
		return nil, fmt.Errorf("%w: packages hold %d live docs, manifest says %d",
			collection.ErrBadCollection, live, m.liveN)
	}
	s.round = packRound(m, s.log, s.routing, packs)
	return s, s.attachTail(path, m.walStart)
}

// readPack opens one segment package and decodes its documents and
// their vectors, whose tokens lie below dictLen.
func readPack(path string, dictLen int) ([]core.DocRef, packVecs, error) {
	fr, err := openPack(path)
	if err != nil {
		return nil, packVecs{}, err
	}
	defer fr.Close()
	docs, err := readPackDocs(fr, path)
	if err != nil {
		return nil, packVecs{}, err
	}
	pv, err := readPackVecs(fr, path, docs, dictLen)
	return docs, pv, err
}

// packRound assembles the checkpoint round's input from the packages'
// vectors: the live documents of log in id order, each read from the
// package of its shard. A one-package store's vectors are in that order
// already.
func packRound(m *manifestV5, log []core.DocState, routing []int32, packs []packVecs) *core.StoredRound {
	sr := &core.StoredRound{Dict: m.dict}
	if len(packs) == 1 {
		sr.Vecs, sr.Off = packs[0].vecs, packs[0].off
		return sr
	}
	packOf := make([]int, m.shards)
	total := 0
	for i, ref := range m.refs {
		packOf[ref.Shard] = i
		total += len(packs[i].vecs)
	}
	sr.Vecs = make([]tokenize.Count, 0, total)
	sr.Off = make([]int, 1, m.liveN+1)
	next := make([]int, len(packs))
	for id, d := range log {
		if d.Deleted {
			continue
		}
		i := packOf[routing[id]]
		pv, k := &packs[i], next[i]
		next[i]++
		sr.Vecs = append(sr.Vecs, pv.vecs[pv.off[k]:pv.off[k+1]]...)
		sr.Off = append(sr.Off, len(sr.Vecs))
	}
	return sr
}

// writeGeneration persists one settled state as generation gen of the
// store at path: a package per non-empty shard, then the manifest that
// makes them current. On error the packages it wrote are removed. It
// returns the new packages' base names.
func writeGeneration(path, tkName string, gen uint64, st *core.CheckpointState) ([]string, error) {
	dir, base := filepath.Dir(path), filepath.Base(path)
	m := &manifestV5{
		tkName:   tkName,
		shards:   len(st.Live),
		gen:      gen,
		walStart: st.WALSeq,
		nextID:   st.NextID,
		liveN:    st.LiveN,
		dead:     st.Dead,
		sums:     make([]ShardSummaryInfo, len(st.Live)),
		dict:     st.Dict,
	}
	for si, sum := range st.Summaries {
		if sum != nil {
			m.sums[si].Docs = sum.Docs()
			m.sums[si].LenMin, m.sums[si].LenMax = sum.LenRange()
			m.sums[si].HotTokens = sum.HotTokens()
			m.sums[si].SketchSlots, m.sums[si].SketchOccupied = sum.SketchSlots()
		}
	}
	var written []string
	write := func() error {
		for si, docs := range st.Live {
			if len(docs) == 0 {
				continue
			}
			name := packName(base, gen, si)
			if err := writePackFile(filepath.Join(dir, name), si, gen, docs, m.sums[si], st.NextID, st.LiveN); err != nil {
				return err
			}
			written = append(written, name)
			m.refs = append(m.refs, SegpackRef{Name: name, Shard: si, Docs: len(docs)})
		}
		return writeManifestFile(path, m)
	}
	if err := write(); err != nil {
		for _, name := range written {
			os.Remove(filepath.Join(dir, name))
		}
		return nil, err
	}
	return written, nil
}

// saveStore writes a settled document log as a fresh store: one
// generation-1 package per non-empty shard — routing[id] is the shard of
// document id, and sums has one entry per shard — plus the manifest,
// removing any stale WAL (this store starts a new history; walStart is 0
// and no records precede it). The packages carry the round over the live
// documents in id order, which a checkpoint hands over from its
// compaction and a save tokenizes: a shard's collection does not number
// its tokens by first appearance over the whole log, so no engine's
// dictionary is reused.
func saveStore(path string, tk Tokenizer, log []core.DocState, routing []int32, sums []*route.Summary) error {
	sr, err := core.TokenizeRound(tk, liveSources(log))
	if err != nil {
		return fmt.Errorf("setsim: save %s: %w", path, err)
	}
	st := &core.CheckpointState{
		NextID:    len(log),
		Live:      make([][]core.DocRef, len(sums)),
		Summaries: sums,
		Dict:      sr.Dict,
	}
	for id, d := range log {
		ref := core.DocRef{ID: collection.SetID(id), Source: d.Source}
		if d.Deleted {
			st.Dead = append(st.Dead, ref)
			continue
		}
		ref.Vec = sr.Vecs[sr.Off[st.LiveN]:sr.Off[st.LiveN+1]]
		st.Live[routing[id]] = append(st.Live[routing[id]], ref)
		st.LiveN++
	}
	if _, err := writeGeneration(path, tk.Name(), 1, st); err != nil {
		return err
	}
	// A stale WAL from an earlier durable store at this path would
	// replay against the fresh snapshot; this save supersedes it.
	if err := os.Remove(walPath(path)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// durableStore persists checkpoints for a durable engine: it is the
// core.CheckpointSink attached by OpenDurable. Checkpoint runs under
// the engine's compaction mutex, so fields need no further locking.
type durableStore struct {
	path     string
	tkName   string
	wal      *wal.Log
	gen      uint64
	curPacks []string // basenames the current manifest references
}

// Checkpoint writes the compaction round's state as a new generation,
// then truncates the WAL and removes the old generation's packages — in
// that order, so a crash at any point leaves a recoverable store.
func (ds *durableStore) Checkpoint(st *core.CheckpointState) error {
	written, err := writeGeneration(ds.path, ds.tkName, ds.gen+1, st)
	if err != nil {
		return err
	}
	// The checkpoint is durable from here: the remaining steps only
	// reclaim space, and their failure leaves a correct superset (the
	// WAL keeps records the manifest already covers; recovery skips
	// them via walStart).
	ds.wal.TruncateThrough(st.WALSeq) //nolint:errcheck // see above
	old := ds.curPacks
	ds.gen, ds.curPacks = ds.gen+1, written
	for _, name := range old {
		if !slices.Contains(written, name) {
			os.Remove(filepath.Join(filepath.Dir(ds.path), name))
		}
	}
	return nil
}

// OpenDurable opens (or creates) a durable store rooted at path: a v5
// manifest plus segment packages and a write-ahead log. Crash recovery
// runs first — manifest, packages, WAL tail with torn-tail truncation —
// then the engine is wired to journal every mutation into the WAL and
// persist checkpoints at full compactions (bounded by
// cfg.CheckpointEvery). A missing manifest starts an empty store; a
// crash may have left a WAL with no manifest covering it (the first
// checkpoint never ran), so the whole surviving log replays into the
// engine before it goes live. Close the engine to flush and close the
// WAL.
func OpenDurable(path string, cfg LiveConfig, opts DurableOptions) (*LiveEngine, SnapshotInfo, error) {
	var s *snapshot
	if _, err := os.Stat(path); os.IsNotExist(err) {
		// No manifest: nothing checkpointed yet, so every surviving WAL
		// record is tail. Tokenizer defaults like NewLive's callers
		// expect.
		start := time.Now()
		tk := tokenize.QGramTokenizer{Q: 3}
		s = &snapshot{
			info: SnapshotInfo{Version: snapV5, Shards: max(cfg.Shards, 1)},
			tk:   tk,
			m:    &manifestV5{tkName: tk.Name()},
		}
		if err := s.attachTail(path, 0); err != nil {
			return nil, SnapshotInfo{}, err
		}
		s.info.LoadTime = time.Since(start)
	} else if s, err = loadSnapshot(path); err != nil {
		return nil, SnapshotInfo{}, err
	}
	m := s.m
	le, err := s.replay(path, cfg)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	wlog, winfo, err := wal.Open(walPath(path), wal.Options{Sync: opts.Sync})
	if err != nil {
		le.Close()
		return nil, SnapshotInfo{}, fmt.Errorf("setsim: wal %s: %w", walPath(path), err)
	}
	// A log whose first record is past the checkpoint horizon has lost
	// history: a rotated WAL survived but its manifest did not, or the
	// manifest is older than the log.
	if winfo.First > m.walStart+1 {
		wlog.Close()
		le.Close()
		return nil, SnapshotInfo{}, fmt.Errorf("%w: wal starts at %d but manifest covers only through %d",
			collection.ErrBadCollection, winfo.First, m.walStart)
	}
	ds := &durableStore{path: path, tkName: m.tkName, wal: wlog, gen: m.gen}
	for _, ref := range m.refs {
		ds.curPacks = append(ds.curPacks, ref.Name)
	}
	le.SetDurable(wlog, ds, m.walStart)
	return le, s.info, nil
}

// PackCheck is one package's verification outcome.
type PackCheck struct {
	Ref SegpackRef
	// Blocks is the number of block checksums verified.
	Blocks int
	// Err is nil when every block checksum matched and every document's
	// stored vector is the one its source tokenizes to under the
	// manifest's tokenizer and dictionary.
	Err error
}

// VerifyReport is the outcome of Verify.
type VerifyReport struct {
	Version    int
	Generation uint64
	WALStart   uint64
	// WALRecords is the number of intact records in the WAL tail;
	// WALTorn reports a torn tail after them.
	WALRecords int
	WALTorn    bool
	Packs      []PackCheck
	// OK is true when the manifest parsed and every package verified.
	OK bool
}

// Verify checks a store's integrity without building an engine: the
// manifest checksum, every package's every block checksum, and the WAL
// tail. Since an open trusts the packages' token vectors instead of
// tokenizing, it also re-tokenizes every package's sources and reports,
// in that package's PackCheck, the first document whose stored vector or
// dictionary strings disagree.
func Verify(path string) (*VerifyReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := readManifest(f)
	if err != nil {
		return nil, fmt.Errorf("setsim: verify %s: %w", path, err)
	}
	tk, err := tokenize.ParseName(m.tkName)
	if err != nil {
		return nil, fmt.Errorf("setsim: verify %s: %w: %v", path, collection.ErrBadCollection, err)
	}
	rep := &VerifyReport{Version: snapV5, Generation: m.gen, WALStart: m.walStart, OK: true}
	dict := tokenize.NewDict()
	var dictErr error
	for t, s := range m.dict {
		if dict.Intern(s) != tokenize.Token(t) && dictErr == nil {
			dictErr = fmt.Errorf("%w: dictionary token %d repeats %q", collection.ErrBadCollection, t, s)
		}
	}
	dir := filepath.Dir(path)
	for _, ref := range m.refs {
		chk := PackCheck{Ref: ref}
		name := filepath.Join(dir, ref.Name)
		fr, err := segpack.Open(name)
		if err != nil {
			chk.Err = err
		} else {
			chk.Blocks, chk.Err = fr.Verify()
			if chk.Err == nil {
				chk.Err = dictErr
			}
			if chk.Err == nil {
				chk.Err = checkPackVecs(fr, name, tk, dict)
			}
			fr.Close()
		}
		if chk.Err != nil {
			rep.OK = false
		}
		rep.Packs = append(rep.Packs, chk)
	}
	winfo, err := wal.Replay(walPath(path), m.walStart, nil)
	if err == nil {
		rep.WALRecords = winfo.Records
		rep.WALTorn = winfo.Torn
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("setsim: verify %s: wal: %w", path, err)
	}
	return rep, nil
}

// checkPackVecs decodes a package's documents and vectors and
// re-tokenizes every source against dict, the manifest's dictionary: a
// document whose stored vector differs — a token or tf altered, or a
// dictionary string that is not the token its id stands for — is
// reported.
func checkPackVecs(fr *segpack.FileReader, path string, tk Tokenizer, dict *tokenize.Dict) error {
	docs, err := readPackDocs(fr, path)
	if err != nil {
		return err
	}
	pv, err := readPackVecs(fr, path, docs, dict.Len())
	if err != nil {
		return err
	}
	var scratch []string
	for i, d := range docs {
		want, unknown := tokenize.LookupCounts(dict, tk, d.Source, scratch)
		if unknown > 0 || !slices.Equal(want, pv.vecs[pv.off[i]:pv.off[i+1]]) {
			return fmt.Errorf("%w: %s: document %d: stored vector disagrees with its source",
				collection.ErrBadCollection, path, d.ID)
		}
	}
	return nil
}

// payloadBuf builds a little-endian snapshot payload.
type payloadBuf struct{ b []byte }

func (p *payloadBuf) uvarint(v uint64) {
	var buf [10]byte
	n := binary.PutUvarint(buf[:], v)
	p.b = append(p.b, buf[:n]...)
}

func (p *payloadBuf) str(s string) {
	p.uvarint(uint64(len(s)))
	p.b = append(p.b, s...)
}

func (p *payloadBuf) u32(v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	p.b = append(p.b, buf[:]...)
}

func (p *payloadBuf) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	p.b = append(p.b, buf[:]...)
}

func (p *payloadBuf) f64(v float64) { p.u64(math.Float64bits(v)) }

// payloadRd decodes a payload with a sticky, field-labelled error.
type payloadRd struct {
	b   []byte
	pos int
	err error
}

func (p *payloadRd) fail(what string) {
	if p.err == nil {
		p.err = fmt.Errorf("%w: truncated %s", collection.ErrBadCollection, what)
	}
}

func (p *payloadRd) uvarint(what string) uint64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Uvarint(p.b[p.pos:])
	if n <= 0 {
		p.fail(what)
		return 0
	}
	p.pos += n
	return v
}

func (p *payloadRd) str(what string) string {
	n := p.uvarint(what)
	if p.err != nil || uint64(len(p.b)-p.pos) < n {
		p.fail(what)
		return ""
	}
	s := string(p.b[p.pos : p.pos+int(n)])
	p.pos += int(n)
	return s
}

func (p *payloadRd) u32(what string) uint32 {
	if p.err != nil {
		return 0
	}
	if p.pos+4 > len(p.b) {
		p.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(p.b[p.pos:])
	p.pos += 4
	return v
}

func (p *payloadRd) u64(what string) uint64 {
	if p.err != nil {
		return 0
	}
	if p.pos+8 > len(p.b) {
		p.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(p.b[p.pos:])
	p.pos += 8
	return v
}

func (p *payloadRd) f64(what string) float64 { return math.Float64frombits(p.u64(what)) }

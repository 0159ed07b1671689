// Package relational implements the paper's SQL baseline (§III-A) on a
// miniature relational engine: a Base Table of strings in first normal
// form, a q-gram table (id, gram, length, partial weight), a composite
// clustered B+tree index on (gram, length, id), and a Volcano-style
// physical plan — IndexRangeScan per query gram → HashAggregate on id →
// Filter score ≥ τ — mirroring the aggregate/group-by/join processing of
// Gravano et al. [11] and Chaudhuri et al. [2].
package relational

import (
	"sort"

	"repro/internal/btree"
	"repro/internal/collection"
	"repro/internal/tokenize"
)

// gramKey is the composite clustered-index key. The index is clustered:
// the partial weight (the only non-key attribute) is stored as the value,
// so a range scan reads complete tuples.
type gramKey struct {
	gram tokenize.Token
	len  float64
	id   collection.SetID
}

// Row is one q-gram table tuple as seen by plan operators.
type Row struct {
	ID collection.SetID
	// Partial is idf(gram)²/len(s): the stored partial weight. Dividing
	// by len(q) at query time yields the contribution wᵢ(s) of Eq. 1.
	Partial float64
}

// Match is one result tuple of the selection.
type Match struct {
	ID    collection.SetID
	Score float64
}

// ScanStats reports the work a query performed, for the pruning-power
// experiments (Figs. 7–8).
type ScanStats struct {
	RowsScanned int // tuples produced by all range scans
	RowsTotal   int // tuples the query grams have in the table
	Groups      int // distinct ids aggregated
}

// QueryToken is one query-side gram with its squared idf weight.
type QueryToken struct {
	Gram  tokenize.Token
	IDFSq float64
}

// Engine is the relational baseline: tables plus the clustered index.
type Engine struct {
	idx       *btree.Tree[gramKey, float64]
	rows      int
	baseBytes int64
	gramBytes int64
}

// Build loads the q-gram table and clustered index from a collection.
func Build(c *collection.Collection) *Engine {
	less := func(a, b gramKey) bool {
		if a.gram != b.gram {
			return a.gram < b.gram
		}
		if a.len != b.len {
			return a.len < b.len
		}
		return a.id < b.id
	}
	e := &Engine{idx: btree.New[gramKey, float64](less)}

	// Base table: one row per set — 8-byte id plus the string payload
	// (or its token count if sources were not retained).
	//ssvet:nostats offline index build; no query ScanStats exist yet
	for id := 0; id < c.NumSets(); id++ { //ssvet:nopoll offline index build, not on any query path
		e.baseBytes += 8
		if c.HasSource() {
			e.baseBytes += int64(len(c.Source(collection.SetID(id))))
		} else {
			e.baseBytes += int64(len(c.Tokens(collection.SetID(id)))) * 4
		}
	}

	c.TokenSets(func(t tokenize.Token, ids []collection.SetID) {
		idf := c.IDFWeight(t)
		for _, id := range ids {
			l := c.Length(id)
			e.idx.Set(gramKey{gram: t, len: l, id: id}, idf*idf/l)
			e.rows++
		}
	})
	// q-gram table row: id(8) + gram(4) + len(8) + weight(8).
	e.gramBytes = int64(e.rows) * 28
	return e
}

// Rows reports the q-gram table cardinality.
func (e *Engine) Rows() int { return e.rows }

// Sizes itemizes storage for Fig. 5.
type Sizes struct {
	BaseTable  int64
	QGramTable int64
	BTree      int64
}

// Sizes reports the engine's storage accounting. The clustered B+tree
// holds the table rows themselves (keys+values in leaves) plus interior
// nodes; we charge the conventional page model of 8 bytes of overhead per
// entry plus node headers.
func (e *Engine) Sizes() Sizes {
	return Sizes{
		BaseTable:  e.baseBytes,
		QGramTable: e.gramBytes,
		BTree:      int64(e.rows)*(28+8) + int64(e.idx.Nodes())*64,
	}
}

// --- Physical plan operators (Volcano style) ---

// rowIter produces Rows one at a time; ok=false means exhausted.
type rowIter interface {
	next() (Row, bool)
}

// indexRangeScan reads one gram's tuples with len ∈ [lo, hi] from the
// clustered index. With Length Bounding disabled the caller passes the
// whole length domain and the scan reads the full gram partition.
type indexRangeScan struct {
	it    *btree.Iterator[gramKey, float64]
	gram  tokenize.Token
	hi    float64
	stats *ScanStats
}

func newIndexRangeScan(e *Engine, gram tokenize.Token, lo, hi float64, stats *ScanStats) *indexRangeScan {
	return &indexRangeScan{
		it:    e.idx.Seek(gramKey{gram: gram, len: lo}),
		gram:  gram,
		hi:    hi,
		stats: stats,
	}
}

func (s *indexRangeScan) next() (Row, bool) {
	if s.it == nil || !s.it.Valid() {
		return Row{}, false
	}
	k := s.it.Key()
	if k.gram != s.gram || k.len > s.hi {
		s.it = nil
		return Row{}, false
	}
	r := Row{ID: k.id, Partial: s.it.Value()}
	s.it.Next()
	s.stats.RowsScanned++
	return r, true
}

// concat chains scans (the UNION ALL of per-gram subqueries).
type concat struct {
	iters []rowIter
	cur   int
}

func (c *concat) next() (Row, bool) {
	for c.cur < len(c.iters) { //ssvet:nopoll produces at most one row per call; SelectStop polls per row
		if r, ok := c.iters[c.cur].next(); ok {
			return r, ok
		}
		c.cur++
	}
	return Row{}, false
}

// SelectStop runs the baseline plan: for every query gram, a
// clustered-index range scan over the lengths in [lo, hi] (the SARGable
// predicate "len BETWEEN lo AND hi"; Theorem 1's window τ·len(q) to
// len(q)/τ under Length Bounding, every length without it), then a hash
// group-by on id summing idfSq(gram)·partial/(idf²(gram)) — equivalently
// the Eq. 1 contribution — and a final filter: a group is returned when
// keep accepts its summed score.
//
// The per-scan multiplier folds the query-side idf² and len(q): a stored
// partial is idf²/len(s), so contribution = partial/len(q). Grams unknown
// to the corpus scan nothing (their range is empty) exactly as the SQL
// join would produce no tuples for them.
//
// When non-nil, stop is polled once per row produced by the range scans,
// and a true return abandons the plan. The caller gets stopped=true, the
// stats of the rows scanned so far, and no matches — a stopped query has
// no answer, only an accounting of the work it burned.
func (e *Engine) SelectStop(tokens []QueryToken, lenQ, lo, hi float64, keep func(score float64) bool, stop func() bool) ([]Match, ScanStats, bool) {
	var stats ScanStats
	if lenQ <= 0 || len(tokens) == 0 {
		return nil, stats, false
	}

	scans := make([]rowIter, 0, len(tokens))
	for _, qt := range tokens {
		n, stopped := e.gramRows(qt.Gram, stop)
		if stopped {
			return nil, stats, true
		}
		stats.RowsTotal += n
		scans = append(scans, newIndexRangeScan(e, qt.Gram, lo, hi, &stats))
	}
	plan := &concat{iters: scans}

	// Hash group-by on id. The stored partial already carries the gram's
	// idf², so the aggregate is Σ partial / len(q).
	acc := make(map[collection.SetID]float64)
	for {
		if stop != nil && stop() {
			return nil, stats, true
		}
		r, ok := plan.next()
		if !ok {
			break
		}
		acc[r.ID] += r.Partial / lenQ
	}
	stats.Groups = len(acc)

	out := make([]Match, 0, 8)
	for id, score := range acc {
		if keep(score) {
			out = append(out, Match{ID: id, Score: score})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, stats, false
}

// gramRows counts the tuples of one gram (full partition size). A hot
// gram can own a large fraction of the table, so the scan polls the
// stop hook per tuple; stopped=true means the count was abandoned.
func (e *Engine) gramRows(g tokenize.Token, stop func() bool) (n int, stopped bool) {
	//ssvet:nostats counts partition size into n; the caller folds it into RowsTotal
	for it := e.idx.Seek(gramKey{gram: g}); it.Valid() && it.Key().gram == g; it.Next() {
		if stop != nil && stop() {
			return n, true
		}
		n++
	}
	return n, false
}

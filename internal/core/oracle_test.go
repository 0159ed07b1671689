package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/collection"
	"repro/internal/invlist"
	"repro/internal/sim"
	"repro/internal/tokenize"
)

// The differential oracle. The paper's algorithms are exact: Order
// Preservation and Length Boundedness change what an algorithm reads,
// never what it answers. So one property covers them all: on every engine
// shape, every algorithm returns that shape's naive scan's answer, bit
// for bit, and a shape holding the same documents as the monolithic
// engine has the monolithic naive scan's answer. A case draws from five
// axes: the corpus family, a mutation history (inserts, deletes, upserts,
// partial flushes, a full compaction), the queries (corpus members, edits
// with out-of-vocabulary grams, the empty string), the operation (every
// algorithm over a τ grid, Naive and SF top-k at k ∈ {1, 10, n}, batch,
// the monolithic self-join) and the options (none, NoSkipIndex,
// NoLengthBound). Selection answers compare in id order, top-k answers in
// (score desc, id asc) order against the naive scan sorted by this file's
// own comparator; there is no tie rule and no tolerance.

var liveTestTK = tokenize.QGramTokenizer{Q: 3}

// letterDocs generates n strings of minLen to minLen+span-1 letters drawn
// uniformly from the first alphabet letters.
func letterDocs(rng *rand.Rand, n, minLen, span, alphabet int) []string {
	docs := make([]string, n)
	for i := range docs {
		b := make([]byte, minLen+rng.Intn(span))
		for j := range b {
			b[j] = byte('a' + rng.Intn(alphabet))
		}
		docs[i] = string(b)
	}
	return docs
}

// randomDocs is the uniform q-gram corpus of seed: n strings of 3 to 16
// letters.
func randomDocs(n int, seed int64, alphabet int) []string {
	return letterDocs(rand.New(rand.NewSource(seed)), n, 3, 14, alphabet)
}

// denseDocs generates n documents whose letters are skewed toward the
// start of a 12-letter alphabet: the grams of the common letters fill
// lists far past n/64 postings, and the rare letters' grams keep queries
// selective, so SF reaches completion on dense lists.
func denseDocs(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	docs := make([]string, n)
	for i := range docs {
		b := make([]byte, 4+rng.Intn(12))
		for j := range b {
			b[j] = 'a' + byte(min(int(rng.ExpFloat64()*2), 11))
		}
		docs[i] = string(b)
	}
	return docs
}

// collectionOf indexes docs under tk, sources kept.
func collectionOf(tk tokenize.Tokenizer, docs []string) *collection.Collection {
	b := collection.NewBuilder(tk, true)
	for _, d := range docs {
		b.Add(d)
	}
	return b.Build()
}

// engineFromDocs is the q-gram engine over docs.
func engineFromDocs(docs []string, cfg Config) *Engine {
	return NewEngine(collectionOf(liveTestTK, docs), cfg)
}

// mutate applies random letter insertions, deletions and swaps — the
// paper's "modifications".
func mutate(rng *rand.Rand, s string, n int) string {
	b := []byte(s)
	for i := 0; i < n && len(b) > 0; i++ {
		switch rng.Intn(3) {
		case 0: // insert
			pos := rng.Intn(len(b) + 1)
			b = append(b[:pos], append([]byte{byte('a' + rng.Intn(26))}, b[pos:]...)...)
		case 1: // delete
			pos := rng.Intn(len(b))
			b = append(b[:pos], b[pos+1:]...)
		case 2: // swap
			if len(b) >= 2 {
				pos := rng.Intn(len(b) - 1)
				b[pos], b[pos+1] = b[pos+1], b[pos]
			}
		}
	}
	return string(b)
}

// byScore orders results as a top-k answer: score descending, then id.
func byScore(rs []Result) []Result {
	out := append([]Result(nil), rs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (out[j].Score > out[j-1].Score ||
			out[j].Score == out[j-1].Score && out[j].ID < out[j-1].ID); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// assertBitwise demands byte-for-byte agreement: same length, same ids in
// the same order, same score bits.
func assertBitwise(t testing.TB, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: result[%d] (%d, %.17g), want (%d, %.17g)",
				label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

// oracleFamily is one corpus family of the oracle.
type oracleFamily struct {
	name string
	tk   tokenize.Tokenizer
	docs func(rng *rand.Rand) []string
}

var oracleFamilies = []oracleFamily{
	{"uniform", liveTestTK, func(rng *rand.Rand) []string {
		return randomDocs(150+rng.Intn(250), rng.Int63(), 4+rng.Intn(5))
	}},
	{"dense", liveTestTK, func(rng *rand.Rand) []string { return denseDocs(600+rng.Intn(200), rng.Int63()) }},
	// Strings of 3 to 7 letters over {a, b}: at most 248 distinct strings
	// and far fewer distinct 3-gram sets, so mostly exact length ties.
	{"ties", liveTestTK, func(rng *rand.Rand) []string { return letterDocs(rng, 150+rng.Intn(200), 3, 5, 2) }},
	// Strings of 40 to 99 letters over five hold most of the 125 grams,
	// so a member query reads more than 64 lists.
	{"wide", liveTestTK, func(rng *rand.Rand) []string {
		return append(letterDocs(rng, 60, 40, 60, 5), randomDocs(100, rng.Int63(), 5)...)
	}},
	// One-letter words: every document and member query is one token.
	{"single-token", tokenize.WordTokenizer{}, func(rng *rand.Rand) []string { return letterDocs(rng, 120+rng.Intn(100), 1, 1, 12) }},
	{"identical", liveTestTK, func(rng *rand.Rand) []string {
		docs := make([]string, 100+rng.Intn(50))
		for i := range docs {
			docs[i] = "identical"
		}
		return docs
	}},
	// Topic clusters route to few shards, so shard pruning fires, under
	// a word nearly every document holds.
	{"clustered", tokenize.WordTokenizer{}, func(rng *rand.Rand) []string {
		return skewedDocs(6, 40+rng.Intn(30), rng.Int63())
	}},
}

// shape is one engine shape behind string queries. parts counts the
// shards or segments its corpus is cut across, each holding a fraction
// of the monolithic lists. toMono maps its ids to the monolithic
// engine's: the identity for a static shape, nil for a live engine in a
// mixed state, whose segments score under their own statistics; such a
// shape may name a ref shape that scores alike instead.
type shape struct {
	name   string
	parts  int
	sel    func(s string, tau float64, alg Algorithm, o *Options) ([]Result, Stats, error)
	topk   func(s string, k int, alg Algorithm, o *Options) ([]Result, Stats, error)
	batch  func(ss []string, tau float64, alg Algorithm) []BatchResult
	toMono func(collection.SetID) collection.SetID
	ref    *shape
}

// shapeOf wraps an engine's Prepare, Select, SelectTopK and SelectBatch,
// whatever its prepared-query type.
func shapeOf[Q any](name string, prepare func(string) Q,
	sel func(Q, float64, Algorithm, *Options) ([]Result, Stats, error),
	topk func(Q, int, Algorithm, *Options) ([]Result, Stats, error),
	batch func([]Q, float64, Algorithm, *Options, int) []BatchResult) shape {
	return shape{
		name:  name,
		parts: 1,
		sel: func(s string, tau float64, alg Algorithm, o *Options) ([]Result, Stats, error) {
			return sel(prepare(s), tau, alg, o)
		},
		topk: func(s string, k int, alg Algorithm, o *Options) ([]Result, Stats, error) {
			return topk(prepare(s), k, alg, o)
		},
		batch: func(ss []string, tau float64, alg Algorithm) []BatchResult {
			qs := make([]Q, len(ss))
			for i, s := range ss {
				qs[i] = prepare(s)
			}
			return batch(qs, tau, alg, nil, 3)
		},
		toMono: func(id collection.SetID) collection.SetID { return id },
	}
}

func engineShape(name string, e *Engine) shape {
	return shapeOf(name, e.Prepare, e.Select, e.SelectTopK, e.SelectBatch)
}

func shardedShape(name string, se *ShardedEngine) shape {
	sh := shapeOf(name, se.Prepare, se.Select, se.SelectTopK, se.SelectBatch)
	sh.parts = se.NumShards()
	return sh
}

func liveShape(name string, le *LiveEngine) shape {
	sh := shapeOf(name, le.Prepare, le.Select, le.SelectTopK, le.SelectBatch)
	sh.parts, sh.toMono = le.Stats().Segments, nil
	return sh
}

var (
	oracleTaus    = []float64{0.5, 0.8, 1}
	oracleOptions = []*Options{nil, {NoSkipIndex: true}, {NoLengthBound: true}}
)

// sameAnswer fails unless got and its error are want and its error.
func sameAnswer(t testing.TB, label string, got []Result, err error, want []Result, wantErr error) {
	t.Helper()
	if !errors.Is(err, wantErr) || (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, want %v", label, err, wantErr)
	}
	assertBitwise(t, label, got, want)
}

// edgeTau is the largest threshold score s still meets.
func edgeTau(s float64) float64 {
	lo, hi := s, s+1
	for range 100 {
		if mid := lo + (hi-lo)/2; sim.Meets(s, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// answer is a naive scan's answer to one query at one τ.
type answer struct {
	res []Result
	err error
}

// The operations check runs.
const (
	opSelect = 1 << iota
	opTopK
	opBatch
	opAll = opSelect | opTopK | opBatch
)

// How newOracleCase sets a case up.
const (
	// caseSweep demands the mixed live state (segments, memtable,
	// tombstones), which the sweep's seeds are chosen to reach.
	caseSweep = 1 << iota
	// caseBuilt builds the live engines from the first half of the corpus
	// with BuildLive and keeps every later mutation in the memtable: no
	// partial flush, so live engines on any shard count score alike.
	caseBuilt
)

// oracleCase is one case of the oracle: a corpus of one family, its
// mutation history applied alike to live engines on each shard count,
// the queries, and the monolithic engine over the live documents,
// renumbered densely, whose naive scan every shape holding those
// documents must reproduce. ops and options narrow what check runs: the
// operations, and the options an algorithm meets across the τ grid.
type oracleCase struct {
	t       *testing.T
	rng     *rand.Rand
	tk      tokenize.Tokenizer
	live    []string
	monoOf  map[collection.SetID]collection.SetID
	lives   []*LiveEngine
	mono    *Engine
	queries []string
	answers map[string]answer // the monolithic naive scan's
	dense   bool              // SF, iNRA and Hybrid must complete candidates by bit tests
	ops     int
	options []*Options
}

// newOracleCase builds one case from seed — corpus, history and queries —
// with live engines on liveShards shards (one and three by default).
// extra is one more query.
func newOracleCase(t *testing.T, seed int64, fam oracleFamily, extra string, mode int, liveShards ...int) *oracleCase {
	if len(liveShards) == 0 {
		liveShards = []int{1, 3}
	}
	c := &oracleCase{t: t, rng: rand.New(rand.NewSource(seed)), tk: fam.tk, monoOf: map[collection.SetID]collection.SetID{},
		answers: map[string]answer{}, ops: opAll, options: oracleOptions}
	rng := c.rng
	docs := fam.docs(rng)

	// The mutation history. FlushThreshold is the size below which a
	// partial compaction folds a segment again: 16 keeps every flushed
	// segment apart.
	cfg := LiveConfig{NoBackground: true, FlushThreshold: 16, DriftBound: 1e9, MaxSegments: 1 << 20}
	built := 0
	if mode&caseBuilt != 0 {
		cfg.FlushThreshold, built = 1<<20, len(docs)/2
	}
	for _, shards := range liveShards {
		cfg.Shards = shards
		le := BuildLive(docs[:built], fam.tk, cfg)
		t.Cleanup(le.Close)
		c.lives = append(c.lives, le)
	}
	apply := func(what string, op func(le *LiveEngine) (collection.SetID, error)) {
		id0, err0 := op(c.lives[0])
		for _, le := range c.lives[1:] {
			if id, err := op(le); id != id0 || !errors.Is(err, err0) {
				t.Fatalf("%s: (%d, %v) on %d shards, (%d, %v) on %d", what, id0, err0, liveShards[0], id, err, le.Stats().Shards)
			}
		}
	}
	for i, s := range docs[built:] {
		i += built
		apply("insert", func(le *LiveEngine) (collection.SetID, error) { return le.Insert(s) })
		if i%3 == 0 {
			victim := collection.SetID(rng.Intn(i + 1))
			d0 := c.lives[0].Delete(victim)
			for _, le := range c.lives[1:] {
				if d := le.Delete(victim); d != d0 {
					t.Fatalf("delete %d: %v on %d shards, %v on %d", victim, d0, liveShards[0], d, le.Stats().Shards)
				}
			}
		}
		if i%11 == 5 {
			target, repl := collection.SetID(rng.Intn(i+1)), mutate(rng, docs[rng.Intn(len(docs))], 2)
			apply("upsert", func(le *LiveEngine) (collection.SetID, error) { return le.Upsert(target, repl) })
		}
		if built == 0 && (i == len(docs)/3 || i == 2*len(docs)/3) {
			for _, le := range c.lives {
				le.compactOnce(false)
			}
		}
	}
	if st := c.lives[0].Stats(); mode&caseSweep != 0 && (st.Segments < 2 || st.Memtable == 0 || st.Tombstones == 0) {
		t.Fatalf("mixed live state not established: %+v", st)
	}

	longest := ""
	for id := 0; id < c.lives[0].NumDocs(); id++ {
		if s, ok := c.lives[0].Source(collection.SetID(id)); ok {
			c.monoOf[collection.SetID(id)] = collection.SetID(len(c.live))
			c.live = append(c.live, s)
			if len(s) > len(longest) {
				longest = s
			}
		}
	}

	// The longest live document reads the most lists: past 64 in the
	// wide family. A member with an unseen word appended scores its
	// document below 1, by exactly the magnitude bound of every shard and
	// segment holding it.
	member := c.live[rng.Intn(len(c.live))]
	edit := mutate(rng, c.live[rng.Intn(len(c.live))], 1+rng.Intn(3))
	c.queries = []string{"", extra, longest, member, member + " xyz", edit}
	c.mono = NewEngine(collectionOf(fam.tk, c.live), Config{})
	return c
}

func (c *oracleCase) toMono(id collection.SetID) collection.SetID {
	m, ok := c.monoOf[id]
	if !ok {
		c.t.Fatalf("document %d is not live", id)
	}
	return m
}

// check holds every operation of one shape to that shape's naive scan,
// and the naive scan to the monolithic one when the shape maps onto it,
// or else to its ref shape's. A mixed live shape's naive scan must return
// live documents only. Under NoSkipIndex, SF, iNRA and Hybrid make no
// random probe.
func (c *oracleCase) check(sh shape) {
	t := c.t
	naive := map[string]answer{}
	naiveSel := func(s string, tau float64) ([]Result, error) {
		key := fmt.Sprintf("%q τ=%g", s, tau)
		if a, ok := naive[key]; ok {
			return a.res, a.err
		}
		want, _, err := sh.sel(s, tau, Naive, nil)
		naive[key] = answer{want, err}
		switch {
		case sh.toMono != nil:
			mapped := make([]Result, len(want))
			for i, res := range want {
				mapped[i] = Result{ID: sh.toMono(res.ID), Score: res.Score}
			}
			m, ok := c.answers[key]
			if !ok {
				res, _, err := c.mono.Select(c.mono.Prepare(s), tau, Naive, nil)
				m = answer{res, err}
				c.answers[key] = m
			}
			sameAnswer(t, sh.name+" naive vs monolithic naive "+key, mapped, err, m.res, m.err)
		case sh.ref != nil:
			ref, _, refErr := sh.ref.sel(s, tau, Naive, nil)
			sameAnswer(t, sh.name+" naive vs "+sh.ref.name+" naive "+key, want, err, ref, refErr)
		}
		for _, res := range want {
			if _, ok := c.monoOf[res.ID]; sh.toMono == nil && !ok {
				t.Fatalf("%s %s: the naive scan returned deleted document %d", sh.name, key, res.ID)
			}
		}
		return want, err
	}
	probes := map[Algorithm]int{}
	count := func(label string, alg Algorithm, o *Options, st Stats) {
		switch {
		case o == nil || !o.NoSkipIndex:
			probes[alg] += st.RandomProbes
		case (alg == SF || alg == INRA || alg == Hybrid) && st.RandomProbes != 0:
			t.Fatalf("%s: %d random probes under NoSkipIndex, want 0", label, st.RandomProbes)
		}
	}
	for qi, s := range c.queries {
		all, allErr := naiveSel(s, minPositiveTau)
		all = byScore(all)
		// Thresholds on the edge of two answers: the largest τ their
		// scores still meet, where every bound's slack is tested.
		taus := append([]float64(nil), oracleTaus...)
		for _, i := range []int{0, len(all) / 2} {
			if i < len(all) && edgeTau(all[i].Score) <= 1 {
				taus = append(taus, edgeTau(all[i].Score))
			}
		}
		for ti, tau := range taus {
			if c.ops&opSelect == 0 {
				break
			}
			want, wantErr := naiveSel(s, tau)
			for ai, alg := range Algorithms() {
				// Each algorithm meets every option across the τ grid.
				o := c.options[(qi+ti+ai)%len(c.options)]
				label := fmt.Sprintf("%s %v %+v %q τ=%g", sh.name, alg, o, s, tau)
				got, st, err := sh.sel(s, tau, alg, o)
				sameAnswer(t, label, got, err, want, wantErr)
				count(label, alg, o, st)
			}
		}
		for ki, k := range []int{1, 10, len(c.live)} {
			if c.ops&opTopK == 0 {
				break
			}
			for ai, alg := range []Algorithm{Naive, SF} {
				o := c.options[(qi+ki+ai)%len(c.options)]
				label := fmt.Sprintf("%s top-%d %v %+v %q", sh.name, k, alg, o, s)
				got, st, err := sh.topk(s, k, alg, o)
				sameAnswer(t, label, got, err, all[:min(k, len(all))], allErr)
				count(label, alg, o, st)
			}
		}
	}
	for i, alg := range []Algorithm{SF, Hybrid, INRA, SQL} {
		if c.ops&opBatch == 0 {
			break
		}
		tau := oracleTaus[i%len(oracleTaus)]
		for qi, br := range sh.batch(c.queries, tau, alg) {
			want, wantErr := naiveSel(c.queries[qi], tau)
			sameAnswer(t, fmt.Sprintf("%s batch %v τ=%g query %d", sh.name, alg, tau, qi), br.Results, br.Err, want, wantErr)
		}
	}
	if c.dense {
		for _, alg := range []Algorithm{SF, INRA, Hybrid} {
			if probes[alg] == 0 {
				t.Errorf("%s: %v completed no candidate by a bit test", sh.name, alg)
			}
		}
	}
}

func (c *oracleCase) checkAll(shapes ...shape) {
	for _, sh := range shapes {
		c.check(sh)
	}
}

func (c *oracleCase) monolithic() shape { return engineShape("monolithic", c.mono) }

// listFile is the monolithic engine over an invlist list file.
func (c *oracleCase) listFile() shape {
	path := filepath.Join(c.t.TempDir(), "lists")
	if err := invlist.WriteFile(path, c.mono.c, 4); err != nil {
		c.t.Fatal(err)
	}
	fs, err := invlist.OpenFile(path)
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(func() { fs.Close() })
	return engineShape("list file", NewEngine(c.mono.c, Config{Store: fs}))
}

// sharded is the live documents routed across K shards.
func (c *oracleCase) sharded(K int) shape {
	se := BuildSharded(c.tk, c.live, K, Config{})
	c.t.Cleanup(se.Close)
	return shardedShape(fmt.Sprintf("routed K=%d", K), se)
}

// shuffled is the live documents built under a shuffled token numbering.
func (c *oracleCase) shuffled() shape {
	d := c.mono.c.Dict()
	grams := make([]string, d.Len())
	for tok := range grams {
		grams[tok] = d.String(tokenize.Token(tok))
	}
	c.rng.Shuffle(len(grams), func(i, j int) { grams[i], grams[j] = grams[j], grams[i] })
	dict := tokenize.NewDict()
	for _, g := range grams {
		dict.Intern(g)
	}
	b := collection.NewBuilderWithDict(dict, c.tk, true)
	for _, s := range c.live {
		b.Add(s)
	}
	return engineShape("shuffled dictionary", NewEngine(b.Build(), Config{}))
}

// staticShapes are the monolithic engine, the list file, routed shards at
// K ∈ {1, 2, 4, 8} and the shuffled dictionary.
func (c *oracleCase) staticShapes() []shape {
	shapes := []shape{c.monolithic(), c.listFile()}
	for _, K := range []int{1, 2, 4, 8} {
		shapes = append(shapes, c.sharded(K))
	}
	return append(shapes, c.shuffled())
}

// liveShapes are the live engines as the history left them or, with
// compact, after a full Compact, which maps their ids onto the
// monolithic engine's.
func (c *oracleCase) liveShapes(compact bool) []shape {
	var shapes []shape
	for _, le := range c.lives {
		if !compact {
			shapes = append(shapes, liveShape(fmt.Sprintf("live mixed shards=%d", le.Stats().Shards), le))
			continue
		}
		le.Compact()
		st := le.Stats()
		if st.Memtable != 0 || st.Tombstones != 0 || st.Segments > st.Shards {
			c.t.Fatalf("shards=%d: after Compact %+v", st.Shards, st)
		}
		sh := liveShape(fmt.Sprintf("live compacted shards=%d", st.Shards), le)
		sh.toMono = c.toMono
		shapes = append(shapes, sh)
	}
	return shapes
}

// restored are the file-free reopen paths of the live log: the stored
// round (RestoreLiveRound of TokenizeRound) and a replay on three shards.
func (c *oracleCase) restored() []shape {
	log := c.lives[0].Log()
	sr, err := TokenizeRound(c.tk, c.live)
	if err != nil {
		c.t.Fatal(err)
	}
	stored, err := RestoreLiveRound(log, sr, c.tk, LiveConfig{NoBackground: true})
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(stored.Close)
	replayed, err := RestoreLive(log, c.tk, LiveConfig{NoBackground: true, Shards: 3})
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(replayed.Close)
	shapes := []shape{liveShape("stored round", stored), liveShape("replayed shards=3", replayed)}
	for i := range shapes {
		shapes[i].toMono = c.toMono
	}
	return shapes
}

// runOracle checks one case on every shape, then the monolithic
// self-join when the corpus is small enough for the naive join, which is
// quadratic.
func runOracle(t *testing.T, seed int64, fam oracleFamily, extra string, mode int) {
	c := newOracleCase(t, seed, fam, extra, mode)
	c.checkAll(c.staticShapes()...)
	restored := c.restored()
	c.checkAll(c.liveShapes(false)...)
	c.checkAll(c.liveShapes(true)...)
	c.checkAll(restored...)
	if len(c.live) > 500 {
		return
	}

	// The monolithic self-join, by two algorithms drawn from the lineup.
	tau := oracleTaus[c.rng.Intn(len(oracleTaus))]
	want, err := c.mono.SelfJoin(tau, Naive, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		alg := Algorithms()[c.rng.Intn(len(Algorithms()))]
		got, err := c.mono.SelfJoin(tau, alg, nil, 2)
		if err != nil || len(got) != len(want) {
			t.Fatalf("self-join %v τ=%g: %d pairs, %v; naive %d", alg, tau, len(got), err, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("self-join %v τ=%g pair %d: %+v, naive %+v", alg, tau, i, got[i], want[i])
			}
		}
	}
}

// TestQueryEquivalence is the oracle's deterministic sweep: two seeds of
// every corpus family.
func TestQueryEquivalence(t *testing.T) {
	for _, fam := range oracleFamilies {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", fam.name, seed), func(t *testing.T) {
				t.Parallel()
				runOracle(t, seed, fam, strings.Repeat("ab", int(seed)), caseSweep)
			})
		}
	}
}

// FuzzQueryEquivalence is the oracle under the fuzzer: the seed draws the
// corpus, the history and the queries, family picks the corpus family,
// and query is one more query string.
func FuzzQueryEquivalence(f *testing.F) {
	f.Add(int64(100), uint8(0), "abcab")
	f.Fuzz(func(t *testing.T, seed int64, family uint8, query string) {
		runOracle(t, seed, oracleFamilies[int(family)%len(oracleFamilies)], query, 0)
	})
}

// The tests below keep the names of the suites the oracle replaced. Each
// holds its one subject to the naive scan on a small case of its own
// seed, with one live engine.

// slice checks ops, under the options opts when given, on the shapes
// that shapes builds (and may set the case up for) on a case of family
// fam at seed.
func slice(t *testing.T, fam string, seed int64, ops int, opts *Options, shapes func(c *oracleCase) []shape) {
	t.Parallel()
	f := slices.IndexFunc(oracleFamilies, func(f oracleFamily) bool { return f.name == fam })
	c := newOracleCase(t, seed, oracleFamilies[f], "", 0, 1)
	c.ops = ops
	if opts != nil {
		c.options = []*Options{opts}
	}
	c.checkAll(shapes(c)...)
}

func mono(c *oracleCase) []shape { return []shape{c.monolithic()} }

// edited replaces the queries with edits of live documents, whose
// inserted letters bring grams the corpus lacks.
func edited(c *oracleCase) []shape {
	for i := range c.queries {
		c.queries[i] = mutate(c.rng, c.live[c.rng.Intn(len(c.live))], 1+c.rng.Intn(3))
	}
	return mono(c)
}

func mixed(c *oracleCase) []shape     { return c.liveShapes(false) }
func compacted(c *oracleCase) []shape { return c.liveShapes(true) }
func listed(c *oracleCase) []shape    { return []shape{c.listFile()} }

func TestAllAlgorithmsMatchOracle(t *testing.T) { slice(t, "uniform", 3, opSelect, nil, mono) }
func TestAllAlgorithmsMatchOracleNoLengthBound(t *testing.T) {
	slice(t, "uniform", 4, opSelect, &Options{NoLengthBound: true}, mono)
}
func TestAllAlgorithmsMatchOracleNoSkipIndex(t *testing.T) {
	slice(t, "uniform", 5, opSelect, &Options{NoSkipIndex: true}, mono)
}
func TestModifiedQueries(t *testing.T)     { slice(t, "uniform", 6, opSelect, nil, edited) }
func TestTopKMatchesOracle(t *testing.T)   { slice(t, "uniform", 7, opTopK, nil, mono) }
func TestTopKModifiedQueries(t *testing.T) { slice(t, "uniform", 8, opTopK, nil, edited) }
func TestSingleTokenQueries(t *testing.T) {
	slice(t, "single-token", 3, opAll, nil, (*oracleCase).staticShapes)
}
func TestAllSetsIdentical(t *testing.T) {
	slice(t, "identical", 3, opAll, nil, (*oracleCase).staticShapes)
}
func TestLiveMixedStateAgreement(t *testing.T) { slice(t, "ties", 3, opAll, nil, mixed) }
func TestLiveStaticEquivalence(t *testing.T)   { slice(t, "uniform", 14, opSelect, nil, compacted) }
func TestLiveTopKEquivalence(t *testing.T)     { slice(t, "uniform", 15, opTopK, nil, compacted) }

// TestLengthsIgnoreTokenNumbering: a build under a shuffled dictionary
// sums every length in the same order.
func TestLengthsIgnoreTokenNumbering(t *testing.T) {
	slice(t, "uniform", 9, opAll, nil, func(c *oracleCase) []shape { return []shape{c.shuffled()} })
}

// The word-packed kernels (bitmap probes, mask sweeps, the rescore's
// match) span several words on the wide family's queries past 64 lists.
func TestKernelOffEquivalence(t *testing.T)      { slice(t, "wide", 3, opSelect, nil, mono) }
func TestKernelOffEquivalenceTopK(t *testing.T)  { slice(t, "wide", 4, opTopK, nil, listed) }
func TestKernelOffEquivalenceBatch(t *testing.T) { slice(t, "wide", 5, opBatch, nil, mono) }
func TestKernelOffEquivalenceLive(t *testing.T)  { slice(t, "wide", 6, opSelect, nil, mixed) }
func TestKernelOffEquivalenceSharded(t *testing.T) {
	slice(t, "wide", 7, opSelect, nil, func(c *oracleCase) []shape { return []shape{c.sharded(4)} })
}

// TestDenseCompletionMatchesNaive holds every algorithm to the naive scan
// on a dense corpus, where SF, iNRA and Hybrid must also complete
// candidates by bit tests: on the monolithic engine, the list file, three
// routed shards and the mixed live engine.
func TestDenseCompletionMatchesNaive(t *testing.T) {
	t.Parallel()
	fam := oracleFamily{"dense", liveTestTK, func(rng *rand.Rand) []string { return denseDocs(1500, rng.Int63()) }}
	c := newOracleCase(t, 3, fam, "", caseSweep, 1)
	c.ops, c.dense = opSelect|opTopK, true
	c.checkAll(append([]shape{c.monolithic(), c.listFile(), c.sharded(3)}, c.liveShapes(false)...)...)
}

// TestShardedLiveMatchesMonolithicLive holds a live engine on K shards to
// the one-shard engine in the mixed state (built segments, memtable,
// tombstones) before any flush, where both score alike.
func TestShardedLiveMatchesMonolithicLive(t *testing.T) {
	for _, K := range []int{2, 4, 7} {
		t.Run(fmt.Sprintf("K=%d", K), func(t *testing.T) {
			t.Parallel()
			c := newOracleCase(t, int64(K), oracleFamilies[0], "", caseBuilt, 1, K)
			if st := c.lives[1].Stats(); st.Segments != K || st.Memtable == 0 || st.Tombstones == 0 {
				t.Fatalf("mixed state not established: %+v", st)
			}
			lives := c.liveShapes(false)
			lives[1].ref = &lives[0]
			c.checkAll(lives...)
		})
	}
}

// shardedSlice holds routed engines at K ∈ {1, 2, 4, 7} to the
// monolithic naive scan under ops.
func shardedSlice(t *testing.T, ops int) {
	for _, K := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("K=%d", K), func(t *testing.T) {
			slice(t, "uniform", int64(20+K), ops, nil, func(c *oracleCase) []shape { return []shape{c.sharded(K)} })
		})
	}
}

func TestShardedMatchesMonolithic(t *testing.T)      { shardedSlice(t, opSelect) }
func TestShardedTopKMatchesMonolithic(t *testing.T)  { shardedSlice(t, opTopK) }
func TestShardedBatchMatchesMonolithic(t *testing.T) { shardedSlice(t, opBatch) }
func TestSelectBatchMatchesSequential(t *testing.T)  { slice(t, "uniform", 16, opBatch, nil, mono) }

// TestQuickRandomInstances runs the length-tie family, mostly exact
// length ties, on the mixed live engine.
func TestQuickRandomInstances(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { slice(t, "ties", 100+seed, opSelect, nil, mixed) })
	}
}

// TestQuickPropertyAllAlgorithms draws cases of every family with
// testing/quick.
func TestQuickPropertyAllAlgorithms(t *testing.T) {
	t.Parallel()
	prop := func(seed int64, family uint8) bool {
		c := newOracleCase(t, seed, oracleFamilies[int(family)%len(oracleFamilies)], "", 0, 1)
		c.ops = opSelect
		c.checkAll(c.monolithic())
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

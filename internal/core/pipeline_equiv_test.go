package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/sim"
	"repro/internal/tokenize"
)

// buildPipelineCollection indexes the corpus monolithically.
func buildPipelineCollection(docs []string) *collection.Collection {
	b := collection.NewBuilder(tokenize.QGramTokenizer{Q: 3}, true)
	for _, s := range docs {
		b.Add(s)
	}
	return b.Build()
}

// The pipeline equivalence suite pins the query surface bit for bit:
// every fingerprint below was recorded against the pre-pipeline engines
// (commit 8ecceda) and the plan → route → execute → merge refactor must
// reproduce each one exactly — same ids, same float64 score bits, same
// order — across all nine algorithms, every engine shape, shard counts
// 1/2/4/8, pruning on and off, and mutated as well as compacted live
// states. Regenerate with SSFIXTURES=write only when a change is MEANT
// to alter answers. The last such change made every length one
// order-free sum (sim.SumSq), moving 128 of the 344 keys by ulps: 108
// live, 16 sharded and 4 mono; no other change should.

const pipelineFixturesPath = "testdata/pipeline_fixtures.json"

// pipelineDocs is the deterministic q-gram corpus every fixture is
// computed over.
func pipelineDocs(n int, seed int64, alphabet int) []string {
	rng := rand.New(rand.NewSource(seed))
	docs := make([]string, n)
	for i := range docs {
		ln := 3 + rng.Intn(14)
		var sb strings.Builder
		for j := 0; j < ln; j++ {
			sb.WriteByte(byte('a' + rng.Intn(alphabet)))
		}
		docs[i] = sb.String()
	}
	return docs
}

// fpFold hashes one result list into a running fingerprint, length and
// error outcome included, so reorderings, truncations and error-path
// changes all show up.
func fpFold(h interface{ Write([]byte) (int, error) }, rs []Result, err error) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	if err != nil {
		put(^uint64(0))
		return
	}
	put(uint64(len(rs)))
	for _, r := range rs {
		put(uint64(r.ID))
		put(math.Float64bits(r.Score))
	}
}

type pipelineFP struct {
	m map[string]string
}

func (f *pipelineFP) add(key string, folds func(h interface{ Write([]byte) (int, error) })) {
	h := fnv.New64a()
	folds(h)
	if _, dup := f.m[key]; dup {
		panic("duplicate fixture key " + key)
	}
	f.m[key] = fmt.Sprintf("%016x", h.Sum64())
}

var (
	pipelineTaus  = []float64{0.5, 0.8}
	pipelineKs    = []int{1, 3, 10, 25}
	pipelineTopKA = []Algorithm{Naive, SF}
)

func pipelineAllAlgs() []Algorithm {
	return append([]Algorithm{Naive}, Algorithms()...)
}

// computePipelineFingerprints runs the whole matrix. Query strings are
// drawn from the corpus itself so every engine shape prepares the same
// text against its own dictionary.
func computePipelineFingerprints(t *testing.T) map[string]string {
	t.Helper()
	docs := pipelineDocs(500, 1234, 6)
	queryDocs := []string{docs[3], docs[57], docs[120], docs[261], docs[402], docs[499]}
	f := &pipelineFP{m: map[string]string{}}

	// Monolithic default engine: all algorithms, a τ grid, the
	// ablation options, top-k, batch (SF and the naive scan) and the
	// self-join.
	eng := NewEngine(buildPipelineCollection(docs), Config{})
	for _, alg := range pipelineAllAlgs() {
		for _, tau := range []float64{0.5, 0.7, 0.8, 0.95} {
			f.add(fmt.Sprintf("mono/select/%v/tau=%g", alg, tau), func(h interface{ Write([]byte) (int, error) }) {
				for _, qs := range queryDocs {
					res, _, err := eng.Select(eng.Prepare(qs), tau, alg, nil)
					fpFold(h, res, err)
				}
			})
		}
		f.add(fmt.Sprintf("mono/select-nlb/%v", alg), func(h interface{ Write([]byte) (int, error) }) {
			for _, qs := range queryDocs {
				res, _, err := eng.Select(eng.Prepare(qs), 0.7, alg, &Options{NoLengthBound: true})
				fpFold(h, res, err)
			}
		})
	}
	for _, alg := range pipelineTopKA {
		for _, k := range pipelineKs {
			f.add(fmt.Sprintf("mono/topk/%v/k=%d", alg, k), func(h interface{ Write([]byte) (int, error) }) {
				for _, qs := range queryDocs {
					res, _, err := eng.SelectTopK(eng.Prepare(qs), k, alg, nil)
					fpFold(h, res, err)
				}
			})
		}
	}
	batch := func(alg Algorithm) func(h interface{ Write([]byte) (int, error) }) {
		return func(h interface{ Write([]byte) (int, error) }) {
			queries := make([]Query, len(queryDocs))
			for i, qs := range queryDocs {
				queries[i] = eng.Prepare(qs)
			}
			for _, br := range eng.SelectBatch(queries, 0.6, alg, nil, 4) {
				fpFold(h, br.Results, br.Err)
			}
		}
	}
	f.add("mono/batch", batch(SF))
	// The key names the parallel naive scan whose fingerprint the naive
	// batch reproduces bit for bit.
	f.add("mono/par/naive", batch(Naive))
	f.add("mono/join/sf", func(h interface{ Write([]byte) (int, error) }) {
		pairs, err := eng.SelfJoin(0.85, SF, nil, 4)
		var b [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		if err != nil {
			put(^uint64(0))
			return
		}
		put(uint64(len(pairs)))
		for _, p := range pairs {
			put(uint64(p.A))
			put(uint64(p.B))
			put(math.Float64bits(p.Score))
		}
	})

	// Sharded fleets: similarity-routed partitions at K∈{1,2,4,8}, every
	// algorithm, top-k and batch. The prune=off fixtures run on the
	// hash-partitioned (Config.NoRoute) build of the same corpus, which
	// carries no summaries and visits every shard.
	for _, K := range []int{1, 2, 4, 8} {
		se := BuildSharded(tokenize.QGramTokenizer{Q: 3}, docs, true, K, Config{})
		hashed := BuildSharded(tokenize.QGramTokenizer{Q: 3}, docs, true, K, Config{NoRoute: true})
		for _, alg := range pipelineAllAlgs() {
			for _, tau := range pipelineTaus {
				for _, fleet := range []struct {
					name string
					se   *ShardedEngine
				}{{"on", se}, {"off", hashed}} {
					f.add(fmt.Sprintf("sharded/K=%d/select/%v/tau=%g/prune=%s", K, alg, tau, fleet.name), func(h interface{ Write([]byte) (int, error) }) {
						for _, qs := range queryDocs {
							res, _, err := fleet.se.Select(fleet.se.Prepare(qs), tau, alg, nil)
							fpFold(h, res, err)
						}
					})
				}
			}
		}
		hashed.Close()
		for _, alg := range pipelineTopKA {
			for _, k := range pipelineKs {
				f.add(fmt.Sprintf("sharded/K=%d/topk/%v/k=%d", K, alg, k), func(h interface{ Write([]byte) (int, error) }) {
					for _, qs := range queryDocs {
						res, _, err := se.SelectTopK(se.Prepare(qs), k, alg, nil)
						fpFold(h, res, err)
					}
				})
			}
		}
		f.add(fmt.Sprintf("sharded/K=%d/batch", K), func(h interface{ Write([]byte) (int, error) }) {
			queries := make([]Query, len(queryDocs))
			for i, qs := range queryDocs {
				queries[i] = se.Prepare(qs)
			}
			for _, br := range se.SelectBatch(queries, 0.6, SF, nil, 4) {
				fpFold(h, br.Results, br.Err)
			}
		})
		se.Close()
	}

	// Live engines: a mutated state (segments + memtable + tombstones)
	// and its fully compacted twin, at one and two hash partitions.
	for _, shards := range []int{1, 2} {
		for _, compact := range []bool{false, true} {
			state := "mutated"
			if compact {
				state = "compacted"
			}
			le := buildPipelineLive(t, docs[:300], shards, compact)
			for _, alg := range pipelineAllAlgs() {
				for _, tau := range pipelineTaus {
					f.add(fmt.Sprintf("live/%s/shards=%d/select/%v/tau=%g", state, shards, alg, tau), func(h interface{ Write([]byte) (int, error) }) {
						for _, qs := range queryDocs {
							res, _, err := le.Select(le.Prepare(qs), tau, alg, nil)
							fpFold(h, res, err)
						}
					})
				}
			}
			for _, alg := range pipelineTopKA {
				for _, k := range pipelineKs {
					f.add(fmt.Sprintf("live/%s/shards=%d/topk/%v/k=%d", state, shards, alg, k), func(h interface{ Write([]byte) (int, error) }) {
						for _, qs := range queryDocs {
							res, _, err := le.SelectTopK(le.Prepare(qs), k, alg, nil)
							fpFold(h, res, err)
						}
					})
				}
			}
			f.add(fmt.Sprintf("live/%s/shards=%d/batch", state, shards), func(h interface{ Write([]byte) (int, error) }) {
				queries := make([]LiveQuery, len(queryDocs))
				for i, qs := range queryDocs {
					queries[i] = le.Prepare(qs)
				}
				for _, br := range le.SelectBatch(queries, 0.6, SF, nil, 4) {
					fpFold(h, br.Results, br.Err)
				}
			})
			le.Close()
		}
	}
	return f.m
}

// buildPipelineLive inserts the documents through the mutation API with
// a small flush threshold (many segments), deletes every 7th document,
// and optionally compacts — all deterministic under NoBackground.
func buildPipelineLive(t *testing.T, docs []string, shards int, compact bool) *LiveEngine {
	t.Helper()
	le := NewLive(liveTestTK, LiveConfig{
		Config:         Config{},
		NoBackground:   true,
		FlushThreshold: 32,
		Shards:         shards,
	})
	for i, s := range docs {
		id, err := le.Insert(s)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if i%7 == 3 {
			if !le.Delete(id) {
				t.Fatalf("delete %d failed", id)
			}
		}
	}
	if compact {
		le.Compact()
	}
	return le
}

func TestPipelineFixtures(t *testing.T) {
	got := computePipelineFingerprints(t)
	if os.Getenv("SSFIXTURES") == "write" {
		if err := os.MkdirAll(filepath.Dir(pipelineFixturesPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pipelineFixturesPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fixtures to %s", len(got), pipelineFixturesPath)
		return
	}
	data, err := os.ReadFile(pipelineFixturesPath)
	if err != nil {
		t.Fatalf("fixtures missing (run with SSFIXTURES=write to generate): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := 0
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			t.Errorf("fixture %q no longer computed", k)
			bad++
			continue
		}
		if g != want[k] {
			t.Errorf("fixture %q: got %s, want %s", k, g, want[k])
			bad++
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("new case %q has no recorded fixture (SSFIXTURES=write)", k)
			bad++
		}
	}
	if bad == 0 && len(keys) == 0 {
		t.Fatal("fixture file is empty")
	}
}

// TestPipelineFixtureGroupsAgree reads the recorded fixtures and holds
// every (shape, op, parameter) group to one fingerprint: every algorithm
// but SQL emits the canonical score, so each returns the same ids, in the
// same order, with the same score bits. SQL sums the relational engine's
// stored partial weights in its own order and is left out.
func TestPipelineFixtureGroupsAgree(t *testing.T) {
	data, err := os.ReadFile(pipelineFixturesPath)
	if err != nil {
		t.Fatal(err)
	}
	var fixtures map[string]string
	if err := json.Unmarshal(data, &fixtures); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, alg := range pipelineAllAlgs() {
		names[alg.String()] = true
	}
	type member struct{ key, fp string }
	groups := map[string][]member{}
	for key, fp := range fixtures {
		parts := strings.Split(key, "/")
		for i := len(parts) - 1; i >= 0; i-- {
			if names[parts[i]] {
				if parts[i] != SQL.String() {
					parts[i] = "*"
					g := strings.Join(parts, "/")
					groups[g] = append(groups[g], member{key, fp})
				}
				break
			}
		}
	}
	multi := 0
	for g, ms := range groups {
		if len(ms) < 2 {
			continue
		}
		multi++
		sort.Slice(ms, func(i, j int) bool { return ms[i].key < ms[j].key })
		for _, m := range ms[1:] {
			if m.fp != ms[0].fp {
				t.Errorf("group %s: %s = %s, %s = %s", g, m.key, m.fp, ms[0].key, ms[0].fp)
			}
		}
	}
	if multi < 60 {
		t.Fatalf("only %d multi-algorithm groups in %d fixtures", multi, len(fixtures))
	}
}

// TestScoresNearDocumentOrderSum holds every score the monolithic and
// sharded engines emit on the pipeline corpus — every algorithm, SQL
// included, selection over a τ grid and top-k — within sim.ScoreEpsilon
// of Eq. 1 summed the other way round: idf² over the document's tokens in
// token order, divided once. The canonical order moves scores by ulps,
// never by more.
func TestScoresNearDocumentOrderSum(t *testing.T) {
	docs := pipelineDocs(500, 1234, 6)
	queryDocs := []string{docs[3], docs[57], docs[120], docs[261], docs[402], docs[499]}
	eng := NewEngine(buildPipelineCollection(docs), Config{})
	c := eng.Collection()
	type engine interface {
		Prepare(string) Query
		Select(Query, float64, Algorithm, *Options) ([]Result, Stats, error)
		SelectTopK(Query, int, Algorithm, *Options) ([]Result, Stats, error)
	}
	shapes := map[string]engine{"mono": eng}
	for _, K := range []int{2, 8} {
		se := BuildSharded(tokenize.QGramTokenizer{Q: 3}, docs, true, K, Config{})
		defer se.Close()
		shapes[fmt.Sprintf("sharded/K=%d", K)] = se
	}
	checked := 0
	for _, qs := range queryDocs {
		q := eng.Prepare(qs)
		idfSq := map[tokenize.Token]float64{}
		for _, qt := range q.Tokens {
			idfSq[qt.Token] = qt.IDFSq
		}
		ref := func(id collection.SetID) float64 {
			var dot float64
			for _, cnt := range c.Set(id) {
				dot += idfSq[cnt.Token]
			}
			return dot / (q.Len * c.Length(id))
		}
		near := func(label string, rs []Result) {
			for _, r := range rs {
				if w := ref(r.ID); math.Abs(r.Score-w) > sim.ScoreEpsilon {
					t.Fatalf("%s %q: id %d scored %.17g, document-order sum %.17g", label, qs, r.ID, r.Score, w)
				}
				checked++
			}
		}
		for name, sh := range shapes {
			sq := sh.Prepare(qs)
			for _, alg := range pipelineAllAlgs() {
				for _, tau := range []float64{0.5, 0.7, 0.8, 0.95} {
					rs, _, err := sh.Select(sq, tau, alg, nil)
					if err != nil {
						t.Fatalf("%s %v τ=%g: %v", name, alg, tau, err)
					}
					near(fmt.Sprintf("%s %v τ=%g", name, alg, tau), rs)
				}
			}
			for _, alg := range pipelineTopKA {
				for _, k := range pipelineKs {
					rs, _, err := sh.SelectTopK(sq, k, alg, nil)
					if err != nil {
						t.Fatalf("%s top-%d %v: %v", name, k, alg, err)
					}
					near(fmt.Sprintf("%s top-%d %v", name, k, alg), rs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no score checked")
	}
}

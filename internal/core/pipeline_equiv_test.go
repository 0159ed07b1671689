package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/tokenize"
)

// The pipeline fixtures pin ground truth itself, the one thing the
// oracle (TestQueryEquivalence) cannot check: the naive scan's answer on
// each shape state of a fixed corpus — same ids, same float64 score
// bits, same order — for every τ or k cell. Every other algorithm and
// shape is held to the naive scan by the oracle, and every algorithm to
// these fingerprints by TestPipelineFixtureGroupsAgree. Regenerate with
// SSFIXTURES=write only when a change is MEANT to alter answers. The
// last such change made every length one order-free sum (sim.SumSq).

const pipelineFixturesPath = "testdata/pipeline_fixtures.json"

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

// computePipelineFingerprints runs alg over the pipeline corpus on each
// shape state, keyed by the naive scan's cells, with top-k by topk: the monolithic engine (selection over a τ
// grid, with NoLengthBound, top-k, the parallel batch and the self-join)
// and a live store mutated and compacted at one and two shards. Query
// strings are drawn from the corpus itself so every shape prepares the
// same text against its own dictionary.
func computePipelineFingerprints(t *testing.T, alg, topk Algorithm) map[string]string {
	t.Helper()
	docs := randomDocs(500, 1234, 6)
	queryDocs := []string{docs[3], docs[57], docs[120], docs[261], docs[402], docs[499]}
	f := &pipelineFP{m: map[string]string{}}
	type fold = interface{ Write([]byte) (int, error) }
	shapeFPs := func(prefix string, taus []float64, sh shape) {
		for _, tau := range taus {
			f.add(fmt.Sprintf("%s/select/naive/tau=%g", prefix, tau), func(h fold) {
				for _, qs := range queryDocs {
					res, _, err := sh.sel(qs, tau, alg, nil)
					fpFold(h, res, err)
				}
			})
		}
		for _, k := range []int{1, 3, 10, 25} {
			f.add(fmt.Sprintf("%s/topk/naive/k=%d", prefix, k), func(h fold) {
				for _, qs := range queryDocs {
					res, _, err := sh.topk(qs, k, topk, nil)
					fpFold(h, res, err)
				}
			})
		}
	}

	eng := engineFromDocs(docs, Config{})
	mono := engineShape("mono", eng)
	shapeFPs("mono", []float64{0.5, 0.7, 0.8, 0.95}, mono)
	f.add("mono/select-nlb/naive", func(h fold) {
		for _, qs := range queryDocs {
			res, _, err := mono.sel(qs, 0.7, alg, &Options{NoLengthBound: true})
			fpFold(h, res, err)
		}
	})
	// The key names the parallel naive scan whose fingerprint the naive
	// batch reproduces bit for bit.
	f.add("mono/par/naive", func(h fold) {
		for _, br := range mono.batch(queryDocs, 0.6, alg) {
			fpFold(h, br.Results, br.Err)
		}
	})
	f.add("mono/join/naive", func(h fold) {
		pairs, err := eng.SelfJoin(0.85, alg, nil, 4)
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

	// Live engines: a mutated state (segments + memtable + tombstones)
	// and its fully compacted twin, at one and two hash partitions.
	for _, shards := range []int{1, 2} {
		for _, state := range []string{"mutated", "compacted"} {
			le := buildPipelineLive(t, docs[:300], shards, state == "compacted")
			shapeFPs(fmt.Sprintf("live/%s/shards=%d", state, shards), []float64{0.5, 0.8}, liveShape("live", le))
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
	got := computePipelineFingerprints(t, Naive, Naive)
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
	checkPipelineFixtures(t, got)
}

// TestPipelineFixtureGroupsAgree holds every algorithm, with SF for
// top-k, to the recorded naive fingerprint of every cell.
func TestPipelineFixtureGroupsAgree(t *testing.T) {
	for _, alg := range Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			checkPipelineFixtures(t, computePipelineFingerprints(t, alg, SF))
		})
	}
}

// checkPipelineFixtures compares fingerprints with the recorded ones.
func checkPipelineFixtures(t *testing.T, got map[string]string) {
	t.Helper()
	data, err := os.ReadFile(pipelineFixturesPath)
	if err != nil {
		t.Fatalf("fixtures missing (run with SSFIXTURES=write to generate): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture file is empty")
	}
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("fixture %q no longer computed", k)
		} else if g != w {
			t.Errorf("fixture %q: got %s, want %s", k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("new case %q has no recorded fixture (SSFIXTURES=write)", k)
		}
	}
}

// TestScoresNearDocumentOrderSum holds every score the monolithic naive
// scan emits on the pipeline corpus, selection over a τ grid and top-k,
// within sim.ScoreEpsilon of Eq. 1 summed the other way round: idf² over
// the document's tokens in token order, divided once. The canonical
// order moves scores by ulps, never by more; the oracle holds every other
// algorithm and shape to these scores bit for bit.
func TestScoresNearDocumentOrderSum(t *testing.T) {
	docs := randomDocs(500, 1234, 6)
	eng := engineFromDocs(docs, Config{})
	c := eng.Collection()
	checked := 0
	for _, qs := range []string{docs[3], docs[57], docs[120], docs[261], docs[402], docs[499]} {
		q := eng.Prepare(qs)
		idfSq := map[tokenize.Token]float64{}
		for _, qt := range q.Tokens {
			idfSq[qt.Token] = qt.IDFSq
		}
		near := func(label string, rs []Result, err error) {
			if err != nil {
				t.Fatalf("%s %q: %v", label, qs, err)
			}
			for _, r := range rs {
				var dot float64
				for _, cnt := range c.Set(r.ID) {
					dot += idfSq[cnt.Token]
				}
				if w := dot / (q.Len * c.Length(r.ID)); math.Abs(r.Score-w) > sim.ScoreEpsilon {
					t.Fatalf("%s %q: id %d scored %.17g, document-order sum %.17g", label, qs, r.ID, r.Score, w)
				}
				checked++
			}
		}
		for _, tau := range []float64{0.5, 0.7, 0.8, 0.95} {
			rs, _, err := eng.Select(q, tau, Naive, nil)
			near(fmt.Sprintf("τ=%g", tau), rs, err)
		}
		for _, k := range []int{1, 3, 10, 25} {
			rs, _, err := eng.SelectTopK(q, k, Naive, nil)
			near(fmt.Sprintf("top-%d", k), rs, err)
		}
	}
	if checked == 0 {
		t.Fatal("no score checked")
	}
}

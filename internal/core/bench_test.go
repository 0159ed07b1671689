package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/dataset"
	"repro/internal/invlist"
	"repro/internal/tokenize"
)

// Core-path benchmarks: cold (first query on a fresh engine, pools
// empty), warm (steady state, the zero-allocation target), and parallel
// (batch throughput, per-worker scratch). Run with -benchmem; the CI
// smoke job executes them once per build.

// benchCorpus is shared across benchmarks in this package (built once).
var benchEngine *Engine

func getBenchEngine(b *testing.B) *Engine {
	b.Helper()
	if benchEngine == nil {
		benchEngine = engineFromDocs(randomDocs(20000, 7, 8), Config{})
	}
	return benchEngine
}

// benchQueries prepares a deterministic member-query workload.
func benchQueries(b *testing.B, e *Engine, n int) []Query {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = e.PrepareCounts(e.c.Set(collection.SetID(rng.Intn(e.c.NumSets()))))
	}
	return qs
}

// The clustered engine is the other regime of the round-robin
// algorithms: topic-clustered word documents, where a query admits ~570
// candidates (every document of its topic sharing a word) in a few
// hundred rounds and the F < τ gate opens late. Candidate bookkeeping
// that is cheap per round but dear per admission shows up here and not
// on the q-gram corpus. Its lists are long for its size: 279 of its 400
// cross the max(64, n/64) mark and carry bitmaps, so completion there
// tests bits. That is not clustered-sharded's regime; the shard engine
// below is.
var (
	benchClustered        *Engine
	benchClusteredQueries []Query
)

func getBenchClustered(b *testing.B) (*Engine, []Query) {
	b.Helper()
	if benchClustered == nil {
		benchClustered = NewEngine(collectionOf(tokenize.WordTokenizer{}, clusteredDocs(8, 3000, 13)), Config{})
		benchClusteredQueries = benchQueries(b, benchClustered, 16)
	}
	return benchClustered, benchClusteredQueries
}

// The shard engine is shaped like one shard of the clustered-sharded
// workload: 25 000 documents of 6 words drawn from 8 topics of 60 words.
// Each of its 480 lists holds about 300 postings, under the
// max(64, n/64) = 390 mark, so no list is dense: SF's and top-k's
// completion seeks, and iNRA's gate finishes no list with bit tests.
var (
	benchShard        *Engine
	benchShardQueries []Query
)

// shardDocs generates the shard engine's corpus.
func shardDocs(n int, seed int64) []string {
	const topics, words, perDoc = 8, 60, 6
	rng := rand.New(rand.NewSource(seed))
	docs := make([]string, n)
	for i := range docs {
		var sb strings.Builder
		for j := range perDoc {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "t%dw%d", i%topics, rng.Intn(words))
		}
		docs[i] = sb.String()
	}
	return docs
}

func getBenchShard(b *testing.B) (*Engine, []Query) {
	b.Helper()
	if benchShard == nil {
		benchShard = NewEngine(collectionOf(tokenize.WordTokenizer{}, shardDocs(25000, 17)), Config{})
		if d := len(benchShard.dense.tokens); d != 0 {
			b.Fatalf("shard engine has %d dense lists, want none", d)
		}
		benchShardQueries = benchQueries(b, benchShard, 16)
	}
	return benchShard, benchShardQueries
}

func BenchmarkSelectWarmSFShard(b *testing.B) {
	e, qs := getBenchShard(b)
	benchSelectWarmOn(b, e, qs, SF, 0.8, nil)
}
func BenchmarkSelectWarmINRAShard(b *testing.B) {
	e, qs := getBenchShard(b)
	benchSelectWarmOn(b, e, qs, INRA, 0.8, nil)
}
func BenchmarkSelectTopKWarmShard(b *testing.B) {
	e, qs := getBenchShard(b)
	benchTopKWarmOn(b, e, qs, nil)
}

// BenchmarkSelectWarmSkewShard measures SF selection at τ = 0.8 and SF
// top-10 on 8 routed shards over the shard corpus with one Zipf-hot word
// appended to every document (64 words, s = 1.2, the skewed twin the
// bench prober builds): the hot words tie the topics together, the case
// where shard summaries prune least. Each case reports the fraction of
// summary bound checks that skipped a segment, the baseline a
// partition-pruning change is measured against.
func BenchmarkSelectWarmSkewShard(b *testing.B) {
	docs := shardDocs(50000, 17)
	hot := dataset.NewVocabulary(rand.New(rand.NewSource(18)), 64, 1.2)
	for i := range docs {
		docs[i] += " " + hot.Sample()
	}
	se := BuildSharded(tokenize.WordTokenizer{}, docs, 8, Config{})
	defer se.Close()
	qs := make([]Query, 16)
	for i := range qs {
		qs[i] = se.Prepare(docs[i*1117])
	}
	run := func(name string, query func(Query) error) {
		b.Run(name, func(b *testing.B) {
			before := se.Metrics().Snapshot().Shard
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := query(qs[i%len(qs)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			after := se.Metrics().Snapshot().Shard
			if checks := after.BoundChecks - before.BoundChecks; checks > 0 {
				b.ReportMetric(float64(after.Skipped-before.Skipped)/float64(checks), "pruned/check")
			}
		})
	}
	run("select", func(q Query) error { _, _, err := se.Select(q, 0.8, SF, nil); return err })
	run("topk", func(q Query) error { _, _, err := se.SelectTopK(q, 10, SF, nil); return err })
}

// The dense engine is the q-gram corpus whose common grams' lists cross
// n/64 postings (denseDocs): those lists carry membership bitmaps, so
// iNRA and Hybrid finish them with bit tests when the admission gate
// shuts, and most postings they read while it is open are hopeless.
var (
	benchDense        *Engine
	benchDenseQueries []Query
)

func getBenchDense(b *testing.B) (*Engine, []Query) {
	b.Helper()
	if benchDense == nil {
		benchDense = engineFromDocs(denseDocs(20000, 8501), Config{})
		benchDenseQueries = benchQueries(b, benchDense, 16)
	}
	return benchDense, benchDenseQueries
}

func benchSelectWarm(b *testing.B, alg Algorithm, tau float64) {
	e := getBenchEngine(b)
	benchSelectWarmOn(b, e, benchQueries(b, e, 16), alg, tau, nil)
}

func benchSelectWarmOn(b *testing.B, e *Engine, qs []Query, alg Algorithm, tau float64, opts *Options) {
	// Warm the scratch pool and any cursor state before measuring.
	for _, q := range qs {
		if _, _, err := e.Select(q, tau, alg, opts); err != nil {
			b.Fatal(err)
		}
	}
	var reads, cands int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := e.Select(qs[i%len(qs)], tau, alg, opts)
		if err != nil {
			b.Fatal(err)
		}
		reads += st.ElementsRead
		cands += st.CandidatesInserted
	}
	b.StopTimer()
	b.ReportMetric(float64(reads)/float64(b.N), "elems/op")
	b.ReportMetric(float64(cands)/float64(b.N), "cands/op")
}

func BenchmarkSelectWarmSortByID(b *testing.B) { benchSelectWarm(b, SortByID, 0.8) }
func BenchmarkSelectWarmTA(b *testing.B)       { benchSelectWarm(b, TA, 0.8) }
func BenchmarkSelectWarmNRA(b *testing.B)      { benchSelectWarm(b, NRA, 0.8) }
func BenchmarkSelectWarmITA(b *testing.B)      { benchSelectWarm(b, ITA, 0.8) }
func BenchmarkSelectWarmINRA(b *testing.B)     { benchSelectWarm(b, INRA, 0.8) }
func BenchmarkSelectWarmSF(b *testing.B)       { benchSelectWarm(b, SF, 0.8) }
func BenchmarkSelectWarmHybrid(b *testing.B)   { benchSelectWarm(b, Hybrid, 0.8) }

// BenchmarkSelectWarmSFNoSkipIndex is BenchmarkSelectWarmSF as the paper
// writes SF: no skip index, so past µᵢ every posting up to maxLen(C) is
// read where the default seeks to its candidates. Read beside its twin,
// it prices the initial seek and the completion seeks together.
func BenchmarkSelectWarmSFNoSkipIndex(b *testing.B) {
	e := getBenchEngine(b)
	benchSelectWarmOn(b, e, benchQueries(b, e, 16), SF, 0.8, &Options{NoSkipIndex: true})
}

func BenchmarkSelectWarmINRAManyCandidates(b *testing.B) {
	e, qs := getBenchClustered(b)
	benchSelectWarmOn(b, e, qs, INRA, 0.8, nil)
}
func BenchmarkSelectWarmHybridManyCandidates(b *testing.B) {
	e, qs := getBenchClustered(b)
	benchSelectWarmOn(b, e, qs, Hybrid, 0.8, nil)
}

func BenchmarkSelectWarmINRADense(b *testing.B) {
	e, qs := getBenchDense(b)
	benchSelectWarmOn(b, e, qs, INRA, 0.8, nil)
}
func BenchmarkSelectWarmHybridDense(b *testing.B) {
	e, qs := getBenchDense(b)
	benchSelectWarmOn(b, e, qs, Hybrid, 0.8, nil)
}

// BenchmarkSelectWarmINRAFileStore is BenchmarkSelectWarmINRAManyCandidates
// over the clustered corpus's list file: the cursor path of listState,
// whose every move reloads the head through Valid and Posting.
func BenchmarkSelectWarmINRAFileStore(b *testing.B) {
	mem, qs := getBenchClustered(b)
	path := filepath.Join(b.TempDir(), "lists.ssidx")
	if err := invlist.WriteFile(path, mem.c, 0); err != nil {
		b.Fatal(err)
	}
	fs, err := invlist.OpenFile(path)
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	e := NewEngine(mem.c, Config{Store: fs})
	benchSelectWarmOn(b, e, qs, INRA, 0.8, nil)
}

func BenchmarkSelectWarmINRALowTau(b *testing.B) { benchSelectWarm(b, INRA, 0.5) }
func BenchmarkSelectWarmSFLowTau(b *testing.B)   { benchSelectWarm(b, SF, 0.5) }

// BenchmarkSelectCold measures the first query on a fresh engine: index
// build excluded, but no warm pools or caches.
func BenchmarkSelectCold(b *testing.B) {
	e := getBenchEngine(b)
	qs := benchQueries(b, e, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := NewEngine(e.c, Config{Store: e.store})
		b.StartTimer()
		if _, _, err := fresh.Select(qs[i%len(qs)], 0.8, SF, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectTopKWarm measures the steady-state top-k path.
func BenchmarkSelectTopKWarm(b *testing.B) { benchTopKWarm(b, nil) }

// BenchmarkSelectTopKWarmNoSkipIndex is its sequential-completion twin.
// Top-k opens its lists at their heads, so the whole difference between
// the two is completeSF.
func BenchmarkSelectTopKWarmNoSkipIndex(b *testing.B) {
	benchTopKWarm(b, &Options{NoSkipIndex: true})
}

// BenchmarkSelectTopKWarmLongQueries is top-10 over queries of 18 to 26
// grams, two member documents run together: the shape of the top-k tail,
// whose cost grows with the postings read and the candidates every list
// merges. BenchmarkSelectTopKWarm's member queries of about 8 grams never
// reach those candidate counts.
func BenchmarkSelectTopKWarmLongQueries(b *testing.B) {
	e := getBenchEngine(b)
	rng := rand.New(rand.NewSource(12))
	var qs []Query
	for len(qs) < 16 {
		a := e.c.Source(collection.SetID(rng.Intn(e.c.NumSets())))
		c := e.c.Source(collection.SetID(rng.Intn(e.c.NumSets())))
		if q := e.Prepare(a + c); len(q.Tokens) >= 18 && len(q.Tokens) <= 26 {
			qs = append(qs, q)
		}
	}
	benchTopKWarmOn(b, e, qs, nil)
}

func benchTopKWarm(b *testing.B, opts *Options) {
	e := getBenchEngine(b)
	benchTopKWarmOn(b, e, benchQueries(b, e, 16), opts)
}

func benchTopKWarmOn(b *testing.B, e *Engine, qs []Query, opts *Options) {
	for _, q := range qs {
		if _, _, err := e.SelectTopK(q, 10, SF, opts); err != nil {
			b.Fatal(err)
		}
	}
	var reads, cands int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := e.SelectTopK(qs[i%len(qs)], 10, SF, opts)
		if err != nil {
			b.Fatal(err)
		}
		reads += st.ElementsRead
		cands += st.CandidatesInserted
	}
	b.StopTimer()
	b.ReportMetric(float64(reads)/float64(b.N), "elems/op")
	b.ReportMetric(float64(cands)/float64(b.N), "cands/op")
}

// BenchmarkSelectTopKLive measures SF top-10 on one multi-segment live
// store before and after 500 deletes, with the postings read per query
// beside the time: tombstones must leave both where they were (k stays
// k), apart from the documents the queries lose.
func BenchmarkSelectTopKLive(b *testing.B) {
	corpus := randomDocs(20000, 7, 8)
	le := NewLive(liveTestTK, LiveConfig{
		NoBackground: true,
		DriftBound:   1e9, MaxSegments: 1 << 20,
	})
	defer le.Close()
	for i, s := range corpus {
		if _, err := le.Insert(s); err != nil {
			b.Fatal(err)
		}
		if i == 11999 || i == 16999 || i == 19499 {
			le.compactOnce(false)
		}
	}
	run := func(b *testing.B) {
		lqs := make([]LiveQuery, 16)
		for i := range lqs {
			lqs[i] = le.Prepare(corpus[i*1117])
		}
		elems := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, st, err := le.SelectTopK(lqs[i%len(lqs)], 10, SF, nil)
			if err != nil {
				b.Fatal(err)
			}
			elems += st.ElementsRead
		}
		b.ReportMetric(float64(elems)/float64(b.N), "elems/op")
	}
	b.Run("tombstones=0", run)
	for i := 0; i < 500; i++ {
		le.Delete(collection.SetID(i*37 + 1))
	}
	b.Run("tombstones=500", run)
}

// BenchmarkSelectWarmLiveSharded measures SF selection and SF top-10 on
// an 8-shard live store in the mixed state — every shard holding its
// built segment, a memtable and tombstones — the multi-shard live
// fan-out that no bench workload runs.
func BenchmarkSelectWarmLiveSharded(b *testing.B) {
	docs := clusteredDocs(8, 2500, 13)
	le := BuildLive(docs[:16000], tokenize.WordTokenizer{}, LiveConfig{NoBackground: true, Shards: 8, FlushThreshold: 1 << 20})
	defer le.Close()
	for i, s := range docs[16000:] {
		if _, err := le.Insert(s); err != nil {
			b.Fatal(err)
		}
		if i%4 == 0 {
			le.Delete(collection.SetID(i * 7))
		}
	}
	for si, sh := range le.snap.Load().shards {
		dead := int64(0)
		for _, g := range sh.segs {
			dead += g.dead.Load()
		}
		if len(sh.mem) == 0 || dead == 0 {
			b.Fatalf("shard %d: %d memtable documents, %d tombstones", si, len(sh.mem), dead)
		}
	}
	lqs := make([]LiveQuery, 16)
	for i := range lqs {
		lqs[i] = le.Prepare(docs[i*1117])
	}
	b.Run("select", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := le.Select(lqs[i%len(lqs)], 0.8, SF, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("topk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := le.SelectTopK(lqs[i%len(lqs)], 10, SF, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSelectBatchParallel measures batch throughput with per-worker
// scratch (one op = a 64-query batch).
func BenchmarkSelectBatchParallel(b *testing.B) {
	e := getBenchEngine(b)
	qs := benchQueries(b, e, 64)
	e.SelectBatch(qs, 0.8, SF, nil, 0) // warm every worker's pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := e.SelectBatch(qs, 0.8, SF, nil, 0)
		for j := range out {
			if out[j].Err != nil {
				b.Fatal(out[j].Err)
			}
		}
	}
}

// BenchmarkSelectWarmLiveVsStatic runs identical SF queries against the
// monolithic engine and against a fully compacted single-segment
// LiveEngine over the same corpus, back to back, so the segment store's
// steady-state dispatch overhead is measured in a controlled setting
// (cmd/ssbench's warm vs warm-live cases track the same comparison at
// 100k rows, but across a whole process run). The live path must stay
// within a few percent: it reuses the inner engine's pooled results
// (identity id mapping, zero tombstones, order preserved).
func BenchmarkSelectWarmLiveVsStatic(b *testing.B) {
	corpus := randomDocs(20000, 7, 8)
	le := BuildLive(corpus, liveTestTK, LiveConfig{NoBackground: true})
	defer le.Close()
	e := getBenchEngine(b) // same generator parameters: identical corpus
	sqs := make([]Query, 16)
	lqs := make([]LiveQuery, 16)
	for i := range sqs {
		q := corpus[i*1117]
		sqs[i] = e.Prepare(q)
		lqs[i] = le.Prepare(q)
	}
	b.Run("static", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := e.Select(sqs[i%len(sqs)], 0.8, SF, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("live", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := le.Select(lqs[i%len(lqs)], 0.8, SF, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBuildSharded measures the static sharded build end to end on
// a topic-clustered word corpus at 8 routed shards: the one tokenizing
// round, the clusterer, the per-shard collections and their indexes.
func BenchmarkBuildSharded(b *testing.B) {
	docs := clusteredDocs(8, 2500, 13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		se := BuildSharded(tokenize.WordTokenizer{}, docs, 8, Config{})
		if se.NumDocs() != len(docs) {
			b.Fatalf("built %d of %d documents", se.NumDocs(), len(docs))
		}
		se.Close()
	}
}

// BenchmarkLivePrepare times LiveEngine.Prepare on a one-shard store of
// one segment and of four, each with a memtable: a query's preparation
// should cost the same at any segment count.
func BenchmarkLivePrepare(b *testing.B) {
	for _, segs := range []int{1, 4} {
		b.Run(fmt.Sprintf("segments=%d", segs), func(b *testing.B) {
			le := livePrepStore(b, segs)
			defer le.Close()
			qs := randomDocs(64, 99, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				le.Prepare(qs[i%len(qs)])
			}
		})
	}
}

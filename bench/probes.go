package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/collection"
	"repro/internal/dataset"
	"repro/internal/invlist"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/route"
	"repro/internal/segpack"
	"repro/internal/skiplist"
	"repro/internal/tokenize"
	"repro/internal/wal"
	"repro/setsim"
)

// The layer probes time calls into each layer's public functions from
// here, with inputs taken from the workload, and read the counters those
// calls return. Each probe is one span named after the metric it feeds.
// A layer that does no work in a workload reports 0 there.

// probeCorpusMax caps the corpus the stand-alone layer probes rebuild, so
// that a traced run of the largest workload stays inside its time limit.
const probeCorpusMax = 100000

// prober carries what the probes share.
type prober struct {
	tr     *tracer
	parent int32
	w      *workload
	out    metricSet
	rng    *rand.Rand
}

// n shrinks a probe's input count with the workload.
func (p *prober) n(full int) int { return scaleInt(full, p.w.scale, 10) }

func (p *prober) timed(name string, fn func()) time.Duration { return p.tr.probe(name, p.parent, fn) }

// perCall runs fn n times inside one span and reports the mean in ns.
func (p *prober) perCall(name string, n int, fn func(i int)) {
	d := p.timed(name, func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	})
	p.out.put(name, float64(d.Nanoseconds())/float64(n))
}

// sink keeps the compiler from discarding probe results.
var sink float64

// probeLayers measures the layers under the engine on their own: it
// rebuilds collection, lists and engine from the workload's corpus and
// drives cursors, skip lists and kernels with the workload's queries. It
// returns the collection for the probes that need one.
func (p *prober) probeLayers() *collection.Collection {
	corpus := p.w.corpus
	if len(corpus) > probeCorpusMax {
		corpus = corpus[:probeCorpusMax]
	}
	var c *collection.Collection
	d := p.timed("collection.build_s", func() {
		b := setsim.NewBuilder(p.w.tk, true)
		for _, s := range corpus {
			b.Add(s)
		}
		c = b.Build()
	})
	p.out.put("collection.build_s", d.Seconds())

	var store *invlist.MemStore
	d = p.timed("invlist.build_s", func() { store = invlist.BuildMem(c, 0) })
	p.out.put("invlist.build_s", d.Seconds())
	p.out.put("invlist.index_mb", float64(store.Sizes().Total())/(1<<20))

	var eng *setsim.Engine
	d = p.timed("core.engine_build_s", func() { eng = setsim.NewEngine(c, setsim.ListsOnly()) })
	p.out.put("core.engine_build_s", d.Seconds())

	// The probe queries: the tape's first queries, against the probe
	// engine's dictionary.
	nq := min(len(p.w.tape.queries), 1000)
	queries := make([]setsim.Query, 0, nq)
	tokens := 0
	for _, s := range p.w.tape.queries[:nq] {
		q := eng.Prepare(s)
		if len(q.Tokens) > 0 {
			queries = append(queries, q)
			tokens += len(q.Tokens)
		}
	}
	p.out.put("tokenize.tokens_per_query", float64(tokens)/float64(len(queries)))

	postings := 0
	d = p.timed("invlist.scan_ns_per_posting", func() {
		for _, q := range queries {
			for _, t := range q.Tokens {
				postings += scanList(store.WeightCursor(t.Token))
			}
		}
	})
	p.out.put("invlist.scan_ns_per_posting", float64(d.Nanoseconds())/float64(max(postings, 1)))

	// SeekLen to the Theorem 1 lower bound τ·len(q), one fresh cursor per
	// list; opening the cursors is outside the span.
	var cursors []invlist.Cursor
	var bounds []float64
	for _, q := range queries {
		for _, t := range q.Tokens {
			cursors = append(cursors, store.WeightCursor(t.Token))
			bounds = append(bounds, tau*q.Len)
		}
	}
	p.perCall("invlist.seeklen_ns", len(cursors), func(i int) {
		skipped, _ := cursors[i].SeekLen(bounds[i])
		sink += float64(skipped)
	})

	// A skip list over the corpus' set lengths, the key the engine's skip
	// indexes are ordered by.
	sl := skiplist.New[float64, int](func(a, b float64) bool { return a < b }, 1)
	lengths := make([]float64, c.NumSets())
	for i := range lengths {
		lengths[i] = c.Length(collection.SetID(i))
		sl.Set(lengths[i], i)
	}
	p.perCall("skiplist.seek_ns", 200000, func(i int) {
		if it := sl.Seek(lengths[(i*7919)%len(lengths)]); it.Valid() {
			sink += it.Key()
		}
	})

	p.probeKernel(c, store, eng, queries)
	return c
}

// scanList reads a list to its end and returns its length.
func scanList(cur invlist.Cursor) int {
	n := 0
	for ; cur.Valid(); cur.Next() {
		sink += cur.Posting().Len
		n++
	}
	return n
}

func (p *prober) probeKernel(c *collection.Collection, store *invlist.MemStore, eng *setsim.Engine, queries []setsim.Query) {
	// DotCounts: each query against the documents it selects, the shape
	// of canonical rescoring.
	type pair struct {
		doc []tokenize.Count
		qt  []tokenize.Token
		qw  []float64
	}
	var pairs []pair
	for _, q := range queries {
		res, _, err := eng.Select(q, tau, setsim.SF, nil)
		if err != nil || len(res) == 0 {
			continue
		}
		toks := append(q.Tokens[:0:0], q.Tokens...)
		sort.Slice(toks, func(i, j int) bool { return toks[i].Token < toks[j].Token })
		qt, qw := make([]tokenize.Token, len(toks)), make([]float64, len(toks))
		for i, t := range toks {
			qt[i], qw[i] = t.Token, t.IDFSq
		}
		for _, r := range res[:min(len(res), 8)] {
			pairs = append(pairs, pair{c.Set(r.ID), qt, qw})
		}
	}
	if len(pairs) > 0 {
		p.perCall("kernel.dotcounts_ns", 200000, func(i int) {
			pr := pairs[i%len(pairs)]
			sink += kernel.DotCounts(pr.doc, pr.qt, pr.qw)
		})
	}

	// Sets from the id-sorted lists of the queries' tokens.
	var sets []kernel.Set
	for _, q := range queries {
		for _, t := range q.Tokens {
			if len(sets) == 256 {
				break
			}
			var b kernel.SetBuilder
			for cur := store.IDCursor(t.Token); cur.Valid(); cur.Next() {
				b.Add(uint64(cur.Posting().ID))
			}
			sets = append(sets, b.Build())
		}
	}
	if len(sets) < 2 {
		return
	}
	ids := 0
	var dst []uint64
	d := p.timed("kernel.intersect_ns_per_id", func() {
		for i := 0; i+1 < len(sets); i++ {
			ids += sets[i].Len() + sets[i+1].Len()
			dst = kernel.Intersect(dst[:0], &sets[i], &sets[i+1])
		}
	})
	p.out.put("kernel.intersect_ns_per_id", float64(d.Nanoseconds())/float64(max(ids, 1)))
	n := uint64(c.NumSets())
	p.perCall("kernel.contains_ns", 500000, func(i int) {
		if sets[i%len(sets)].Contains(uint64(i*7919) % n) {
			sink++
		}
	})
}

// probeTokenize times Prepare on the engine under test.
func (p *prober) probeTokenize(tg target) {
	var prepare func(s string)
	switch t := tg.(type) {
	case *staticTarget:
		prepare = func(s string) { t.eng.Prepare(s) }
	case *liveTarget:
		prepare = func(s string) { t.le.Prepare(s) }
	}
	n := min(len(p.w.tape.queries), 2000)
	d := p.timed("tokenize.prepare_us", func() {
		for _, s := range p.w.tape.queries[:n] {
			prepare(s)
		}
	})
	p.out.put("tokenize.prepare_us", float64(d.Microseconds())/float64(n))
}

// probeAllocs replays the slots of one class back to back and reports
// the heap objects and bytes allocated per operation: what a minimum over
// laps cannot see.
func (p *prober) probeAllocs(tg target, c opClass, objects, bytes string) {
	var ms0, ms1 runtime.MemStats
	n := 0
	runtime.ReadMemStats(&ms0)
	for _, s := range p.w.tape.slots {
		if s.class == c {
			execSlot(tg, s, nil, 0) //nolint:errcheck // counted by the replays
			n++
		}
	}
	runtime.ReadMemStats(&ms1)
	if n == 0 {
		return
	}
	p.out.put(objects, float64(ms1.Mallocs-ms0.Mallocs)/float64(n))
	if bytes != "" {
		p.out.put(bytes, float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(n))
	}
}

func (p *prober) probeMetrics() {
	reg := metrics.NewRegistry()
	p.perCall("metrics.observe_ns", 1000000, func(i int) {
		reg.ObserveQuery(time.Duration(10000+i%1000), 100+i%50, nil)
	})
}

// probeRoute measures the routing layer of a sharded engine.
func (p *prober) probeRoute(se *setsim.ShardedEngine, st *staticTarget, c *collection.Collection) {
	tp := p.w.tape
	var selects, topks []setsim.Query
	for _, s := range tp.slots {
		switch s.class {
		case opSelect:
			selects = append(selects, st.queries[s.arg])
		case opTopK:
			topks = append(topks, st.queries[s.arg])
		}
	}
	shards := se.NumShards()

	calls := 0
	d := p.timed("route.capfor_ns", func() {
		for _, q := range selects[:min(len(selects), 500)] {
			for i := 0; i < shards; i++ {
				sum := se.ShardSummary(i)
				for _, t := range q.Tokens {
					sink += sum.CapFor(t.Token)
					calls++
				}
			}
		}
	})
	p.out.put("route.capfor_ns", float64(d.Nanoseconds())/float64(max(calls, 1)))

	g0 := se.Metrics().Snapshot().Shard
	for _, q := range selects {
		se.Select(q, tau, setsim.SF, nil) //nolint:errcheck // counted by the replays
	}
	g1 := se.Metrics().Snapshot().Shard
	checks, skipped := float64(g1.BoundChecks-g0.BoundChecks), float64(g1.Skipped-g0.Skipped)
	if checks > 0 {
		p.out.put("route.prune_ratio", skipped/checks)
	}
	p.out.put("route.shards_visited_per_select", float64(shards)-skipped/float64(len(selects)))
	for _, q := range topks {
		se.SelectTopK(q, topK, setsim.SF, nil) //nolint:errcheck
	}
	g2 := se.Metrics().Snapshot().Shard
	p.out.put("core.bound_raises_per_topk", float64(g2.BoundRaises-g1.BoundRaises)/float64(len(topks)))

	// Fan-out overhead: the sharded call against the slowest of the
	// shards that contribute a result, each at its fastest of five.
	fastest := func(fn func()) time.Duration {
		best := time.Duration(1 << 62)
		for r := 0; r < 5; r++ {
			t0 := time.Now()
			fn()
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	var overheads []float64
	id := p.tr.begin("core.fanout_overhead_us", p.parent)
	for _, q := range selects[:min(len(selects), 300)] {
		whole := fastest(func() { se.Select(q, tau, setsim.SF, nil) }) //nolint:errcheck
		var slowest time.Duration
		for i := 0; i < shards; i++ {
			sh := se.Shard(i)
			if res, _, err := sh.Select(q, tau, setsim.SF, nil); err != nil || len(res) == 0 {
				continue
			}
			if d := fastest(func() { sh.Select(q, tau, setsim.SF, nil) }); d > slowest { //nolint:errcheck
				slowest = d
			}
		}
		if slowest > 0 {
			overheads = append(overheads, float64(whole-slowest)/1e3)
		}
	}
	p.tr.end(id)
	sort.Float64s(overheads)
	p.out.put("core.fanout_overhead_us", percentile(overheads, 50))

	// route.Partition on the probe collection's token sets.
	docs := make([][]tokenize.Token, c.NumSets())
	for i := range docs {
		set := c.Set(collection.SetID(i))
		docs[i] = make([]tokenize.Token, len(set))
		for j, ct := range set {
			docs[i][j] = ct.Token
		}
	}
	idf := make([]float64, c.NumTokens())
	for t := range idf {
		idf[t] = c.IDFWeight(tokenize.Token(t))
	}
	d = p.timed("route.partition_s", func() { route.Partition(docs, idf, shards) })
	p.out.put("route.partition_s", d.Seconds())

	p.probeSkew(shards)
}

// probeSkew runs selections on a twin of the clustered corpus whose every
// document also carries one hot token drawn by Zipf rank from a small
// shared vocabulary. The hot tokens tie the topics together; the prune
// ratio shows how much of the routing's selectivity survives.
func (p *prober) probeSkew(shards int) {
	docs, _ := clusteredDocs(p.rng, p.n(50000))
	hot := dataset.NewVocabulary(p.rng, 64, 1.2)
	for i := range docs {
		docs[i] += " " + hot.Sample()
	}
	var se *setsim.ShardedEngine
	p.timed("route.prune_ratio_skew", func() {
		se = setsim.BuildSharded(docs, setsim.WordTokenizer{}, shards, setsim.ListsOnly())
		for i, n := 0, p.n(1000); i < n; i++ {
			se.Select(se.Prepare(docs[p.rng.Intn(len(docs))]), tau, setsim.SF, nil) //nolint:errcheck // twin corpus, informational
		}
	})
	defer se.Close()
	if g := se.Metrics().Snapshot().Shard; g.BoundChecks > 0 {
		p.out.put("route.prune_ratio_skew", g.PruneRatio())
	}
}

// probeWAL drives the log directly, a lone writer waiting for each
// record, under each sync policy.
func (p *prober) probeWAL(dir string) error {
	records := p.w.tape.churn
	appendAll := func(name string, pol wal.SyncPolicy, n int) (string, error) {
		path := filepath.Join(dir, "probe-"+pol.String()+".wal")
		l, _, err := wal.Open(path, wal.Options{Sync: pol})
		if err != nil {
			return "", err
		}
		var werr error
		d := p.timed(name, func() {
			for i := 0; i < n && werr == nil; i++ {
				werr = l.WaitDurable(l.AppendInsert(records[i%len(records)]))
			}
		})
		p.out.put(name, float64(d.Microseconds())/float64(n))
		if cerr := l.Close(); werr == nil {
			werr = cerr
		}
		return path, werr
	}
	nOff := p.n(2000)
	offPath, err := appendAll("wal.append_off_us", wal.SyncOff, nOff)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	if _, err := appendAll("wal.append_group_us", wal.SyncGroup, p.n(200)); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	if _, err := appendAll("wal.append_always_us", wal.SyncAlways, p.n(400)); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	if fi, err := os.Stat(offPath); err == nil {
		p.out.put("wal.bytes_per_record", float64(fi.Size())/float64(nOff))
	}
	replayed := 0
	var rerr error
	d := p.timed("wal.replay_us_per_record", func() {
		_, rerr = wal.Replay(offPath, 0, func(wal.Record) error { replayed++; return nil })
	})
	if rerr != nil {
		return fmt.Errorf("wal probe: %w", rerr)
	}
	p.out.put("wal.replay_us_per_record", float64(d.Microseconds())/float64(max(replayed, 1)))

	// The device reference: a bare fsync after a small write.
	f, err := os.Create(filepath.Join(dir, "probe-fsync"))
	if err != nil {
		return err
	}
	defer f.Close()
	const syncs = 200
	buf := make([]byte, 64)
	d = p.timed("wal.fsync_ref_us", func() {
		for i := 0; i < syncs && err == nil; i++ {
			if _, err = f.Write(buf); err == nil {
				err = f.Sync()
			}
		}
	})
	p.out.put("wal.fsync_ref_us", float64(d.Microseconds())/syncs)
	return err
}

// probeSegpack writes, reads and verifies one package holding the corpus
// in records of a thousand documents.
func (p *prober) probeSegpack(dir string) error {
	var records [][]byte
	total := 0
	for i := 0; i < len(p.w.corpus); i += 1000 {
		rec := []byte(strings.Join(p.w.corpus[i:min(i+1000, len(p.w.corpus))], "\n"))
		records = append(records, rec)
		total += len(rec)
	}
	mb := float64(total) / (1 << 20)
	path := filepath.Join(dir, "probe.sspk")
	var err error
	d := p.timed("segpack.write_mb_per_s", func() {
		var fw *segpack.FileWriter
		if fw, err = segpack.Create(path); err != nil {
			return
		}
		for i, rec := range records {
			if err = fw.AddRecord(fmt.Sprintf("r%d", i), rec); err != nil {
				fw.Abort()
				return
			}
		}
		err = fw.Close()
	})
	if err != nil {
		return fmt.Errorf("segpack probe: %w", err)
	}
	p.out.put("segpack.write_mb_per_s", mb/d.Seconds())

	var fr *segpack.FileReader
	d = p.timed("segpack.read_mb_per_s", func() {
		if fr, err = segpack.Open(path); err != nil {
			return
		}
		for i := range records {
			if _, err = fr.ReadRecord(fmt.Sprintf("r%d", i)); err != nil {
				return
			}
		}
	})
	if fr != nil {
		defer fr.Close()
	}
	if err != nil {
		return fmt.Errorf("segpack probe: %w", err)
	}
	p.out.put("segpack.read_mb_per_s", mb/d.Seconds())
	d = p.timed("segpack.verify_mb_per_s", func() { _, err = fr.Verify() })
	if err != nil {
		return fmt.Errorf("segpack probe: %w", err)
	}
	p.out.put("segpack.verify_mb_per_s", mb/d.Seconds())
	return nil
}

// probeStore measures the live engine and its store after the tape. It
// checkpoints and closes the engine, so it runs last.
func (p *prober) probeStore(lt *liveTarget, dir string, sh durableShape) error {
	le := lt.le

	// The live store without a journal: the same documents into an
	// in-memory twin, then the full compaction a checkpoint rides on.
	twin := setsim.NewLive(p.w.tk, sh.cfg)
	docs := append(append([]string(nil), p.w.corpus...), p.w.tape.churn...)
	var err error
	d := p.timed("live.insert_nowal_us", func() {
		for _, s := range docs {
			if _, err = twin.Insert(s); err != nil {
				return
			}
		}
	})
	if err != nil {
		twin.Close()
		return fmt.Errorf("store probe: %w", err)
	}
	p.out.put("live.insert_nowal_us", float64(d.Microseconds())/float64(len(docs)))
	d = p.timed("live.compact_full_ms", func() { twin.Compact() })
	twin.Close()
	p.out.put("live.compact_full_ms", float64(d.Microseconds())/1e3)

	// CheckpointNow with half a lap of inserts outstanding: full
	// compaction plus packages, manifest and WAL truncation.
	churn := p.w.tape.churn
	for _, s := range churn[:len(churn)/2] {
		if _, err = le.Insert(s); err != nil {
			return fmt.Errorf("store probe: %w", err)
		}
	}
	d = p.timed("store.checkpoint_ms", func() { err = le.CheckpointNow() })
	if err != nil {
		return fmt.Errorf("store probe: checkpoint: %w", err)
	}
	p.out.put("store.checkpoint_ms", float64(d.Microseconds())/1e3)
	live := le.NumLive()
	le.Close()

	// What the store holds on disk, with an empty WAL tail.
	sdir := filepath.Dir(lt.path)
	ents, err := os.ReadDir(sdir)
	if err != nil {
		return err
	}
	var packBytes, walBytes int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return err
		}
		switch {
		case strings.HasSuffix(e.Name(), ".sspk"):
			packBytes += fi.Size()
		case strings.HasSuffix(e.Name(), ".wal"):
			walBytes += fi.Size()
		}
	}
	p.out.put("store.files", float64(len(ents)))
	p.out.put("store.pack_bytes", float64(packBytes))
	p.out.put("store.wal_bytes", float64(walBytes))
	p.out.put("segpack.bytes_per_doc", float64(packBytes)/float64(max(live, 1)))

	d = p.timed("store.verify_s", func() {
		var rep *setsim.VerifyReport
		if rep, err = setsim.Verify(lt.path); err == nil && !rep.OK {
			err = fmt.Errorf("store does not verify")
		}
	})
	if err != nil {
		return fmt.Errorf("store probe: verify: %w", err)
	}
	p.out.put("store.verify_s", d.Seconds())

	// Recovery from packages alone: the checkpointed store has no tail.
	rdir := filepath.Join(dir, "recover-packs")
	if err := copyDir(sdir, rdir); err != nil {
		return err
	}
	var re *setsim.LiveEngine
	d = p.timed("store.recover_packs_s", func() {
		re, _, err = setsim.OpenDurable(filepath.Join(rdir, filepath.Base(lt.path)), sh.cfg, setsim.DurableOptions{Sync: sh.sync})
	})
	if err != nil {
		return fmt.Errorf("store probe: reopen: %w", err)
	}
	if re.NumLive() != live {
		err = fmt.Errorf("store probe: reopened store has %d live documents, want %d", re.NumLive(), live)
	}
	re.Close()
	p.out.put("store.recover_packs_s", d.Seconds())
	return err
}

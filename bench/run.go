package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/setsim"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir is where the run keeps its files: durable stores (in a
	// per-process subdirectory, removed at the end) and the trace.
	dir string
	// scale shrinks corpus and tape. main runs at 1; only the smoke tests
	// set another value.
	scale float64
	// corruptOracle perturbs the oracle's expectation; only tests set it.
	corruptOracle bool
}

// result is everything a run found out.
type result struct {
	header    map[string]any
	tally     tally
	endToEnd  metricSet
	perLayer  metricSet // only filled by a traced run
	traceFile string
}

// lapsFor scales the workload's lap count with the run length. The count
// is fixed before the replay starts and always completed, so that every
// run of one length takes its minima over the same number of samples; the
// workloads are sized so that the replay of a designSeconds run takes about
// designSeconds on the box the benchmark was written on. A traced run
// replays a short tape twice, untraced and traced, so that the two take
// their minima over the same number of laps.
func lapsFor(w *workload, cfg config) int {
	if cfg.trace {
		return w.warm + tracedLaps - 1
	}
	measured := int(math.Round(float64(w.laps-w.warm) * cfg.seconds / designSeconds))
	return w.warm + max(measured, minMeasuredLaps)
}

func runWorkload(cfg config) (*result, error) {
	runtime.GOMAXPROCS(2)
	genStart := time.Now()
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	genTime := time.Since(genStart)

	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &result{endToEnd: newMetricSet(endToEndDefs), perLayer: newMetricSet(perLayerDefs)}
	tl := &res.tally
	if w.seed != nil {
		if err := w.seed(dir); err != nil {
			return nil, err
		}
	}

	// Set-up, repeated on fresh state. The engine of the last repetition
	// serves the tape; the earlier ones are released first, so only one
	// is ever live.
	var tg target
	setups := make([]float64, 0, w.setups)
	for rep := 0; rep < w.setups; rep++ {
		if tg != nil {
			tg.close()
			tg = nil
			runtime.GC()
		}
		t0 := time.Now()
		tg, err = w.open(dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if w.reopened != nil {
			checked, failed := w.reopened(tg)
			tl.attempted += checked
			tl.failed += failed
			if failed > 0 {
				tl.samples = append(tl.samples, fmt.Sprintf("reopen %d: %d of %d content checks failed", rep, failed, checked))
			}
		}
	}
	defer func() { tg.close() }()
	sort.Float64s(setups)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	io0 := writtenBytes()
	laps := lapsFor(w, cfg)
	rp := replay(w, tg, laps, nil, tl, cfg.corruptOracle)
	wrote := writtenBytes() - io0
	runtime.ReadMemStats(&ms1)

	// A traced run replays the same tape again with spans on, before
	// anything below disturbs the store's state.
	var tr *tracer
	var td *replayed
	if cfg.trace {
		tr = newTracer()
		td = replay(w, tg, laps, tr, tl, false)
	}

	// The heap a live engine holds depends on where background flushes
	// and compactions stand; a full compaction puts it in the one state
	// every run can reach. The last batch's prepared queries pin the
	// snapshot they were made on, so they go first.
	if lt, ok := tg.(*liveTarget); ok {
		clear(lt.lqs)
		lt.le.Compact()
	}
	runtime.GC()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(tg)

	cl := cleanByClass(w.tape, rp.lat, w.warm)
	e := res.endToEnd
	e.put("setup_s", percentile(setups, w.setupPct))
	e.put("topk_p50_us", percentile(cl[opTopK], 50)/1e3)
	e.put("topk_p95_us", percentile(cl[opTopK], 95)/1e3)
	e.put("hybrid_p50_us", percentile(cl[opHybrid], 50)/1e3)
	e.put("inra_p50_us", percentile(cl[opINRA], 50)/1e3)
	e.put("tape_us_per_op", tapeCost(cl)/1e3)
	e.put("heap_mb", float64(live.HeapAlloc)/(1<<20))

	slots := map[string]int{}
	for c := opClass(0); c < numClasses; c++ {
		if n := len(cl[c]); n > 0 {
			slots[c.String()] = n
		}
	}
	res.header = header(cfg, w, map[string]any{
		"laps": laps, "warmup_laps": w.warm,
		"slots": slots, "setup_reps": w.setups, "setup_percentile": w.setupPct, "setups_s": setups,
		"tape_hash":  fmt.Sprintf("%016x", w.tape.hash(w.corpus)),
		"corpus":     len(w.corpus),
		"generate_s": genTime.Seconds(),
		"replay_s":   sumDurations(rp.lapTimes).Seconds(),
		"laps_s":     seconds(rp.lapTimes),
		"store_fs":   fsType(dir),
		// The clean latencies that carry no bound, so that an untraced
		// run shows them too.
		"unbounded": map[string]float64{
			"select_p50_us":      percentile(cl[opSelect], 50) / 1e3,
			"select_p95_us":      percentile(cl[opSelect], 95) / 1e3,
			"batch_us_per_query": percentile(cl[opBatch], 50) / 1e3 / batchSize,
		},
	})
	if !cfg.trace {
		return res, nil
	}

	// The rest of a traced run: the layer probes, all parented to one
	// set-up span.
	l := res.perLayer
	runMetrics(w, rp, &ms0, &ms1, l)
	l.put("run.select_p50_us", percentile(cl[opSelect], 50)/1e3)
	l.put("run.select_p95_us", percentile(cl[opSelect], 95)/1e3)
	l.put("run.batch_us_per_query", percentile(cl[opBatch], 50)/1e3/batchSize)
	tcl := cleanByClass(w.tape, td.lat, w.warm)
	if base := percentile(cl[opSelect], 50); base > 0 {
		l.put("run.trace_overhead_pct", 100*(percentile(tcl[opSelect], 50)-base)/base)
	}
	countMetrics(td, l)

	root := tr.begin("setup", 0)
	p := &prober{tr: tr, parent: root, w: w, out: l, rng: rand.New(rand.NewSource(cfg.seed))}
	p.probeTokenize(tg)
	p.probeAllocs(tg, opSelect, "core.allocs_per_select", "core.bytes_per_select")
	p.probeAllocs(tg, opTopK, "core.allocs_per_topk", "")
	p.probeMetrics()
	probeColl := p.probeLayers()
	switch t := tg.(type) {
	case *staticTarget:
		if se, ok := t.eng.(*setsim.ShardedEngine); ok {
			p.probeRoute(se, t, probeColl)
		}
	case *liveTarget:
		inserted := 0
		for _, s := range w.tape.churn {
			inserted += len(s)
		}
		l.put("store.disk_bytes_per_user_byte", float64(wrote)/float64(inserted*laps))
		l.put("store.recover_tail_s", percentile(setups, w.setupPct))
		l.put("live.write_p50_us", percentile(cl[opInsert], 50)/1e3)
		l.put("live.write_p95_us", percentile(cl[opInsert], 95)/1e3)
		l.put("live.delete_p50_us", percentile(cl[opDelete], 50)/1e3)
		l.put("live.compactions_per_lap", float64(t.le.Stats().Compactions)/float64(2*laps))
		if err := p.probeWAL(dir); err != nil {
			return nil, err
		}
		if err := p.probeSegpack(dir); err != nil {
			return nil, err
		}
		if err := p.probeStore(t, dir, *w.durable); err != nil {
			return nil, err
		}
	}
	tr.end(root)

	res.traceFile = filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-%d.json", w.name, cfg.seed))
	if err := tr.write(res.traceFile, res.header); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return res, nil
}

// tapeCost is the cost of one operation of the workload's mix at clean
// speed: the clean latencies of all slots summed, over the operations
// they stand for (a batch slot is batchSize queries).
func tapeCost(cl [numClasses][]float64) float64 {
	total, ops := 0.0, 0
	for c := opClass(0); c < numClasses; c++ {
		total += sum(cl[c])
		if c == opBatch {
			ops += batchSize * len(cl[c])
		} else {
			ops += len(cl[c])
		}
	}
	return total / float64(ops)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func sumDurations(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// runMetrics reports what the clean-latency method filters out: the raw
// select latencies of all measured laps, throughput as it was, the spread
// of lap times, and the collector's activity during the replay.
func runMetrics(w *workload, rp *replayed, ms0, ms1 *runtime.MemStats, l metricSet) {
	var raw []float64
	ops := 0
	for i, s := range w.tape.slots {
		if s.class == opBatch {
			ops += batchSize
		} else {
			ops++
		}
		if s.class == opSelect {
			for _, ns := range rp.lat.slot(i)[w.warm:] {
				raw = append(raw, float64(ns))
			}
		}
	}
	sort.Float64s(raw)
	l.put("run.raw_select_p50_us", percentile(raw, 50)/1e3)
	l.put("run.raw_select_p99_us", percentile(raw, 99)/1e3)
	measured := rp.lapTimes[w.warm:]
	total := sumDurations(measured).Seconds()
	l.put("run.ops_per_s", float64(ops*len(measured))/total)
	mean := total / float64(len(measured))
	varsum := 0.0
	for _, d := range measured {
		varsum += (d.Seconds() - mean) * (d.Seconds() - mean)
	}
	l.put("run.lap_time_cv", math.Sqrt(varsum/float64(len(measured)))/mean)
	l.put("run.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	l.put("run.gc_pause_total_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
}

// countMetrics turns the library's own counters, summed over the last
// traced lap, into per-operation figures. On the static engines they are
// exact: the same tape gives the same counts on every run.
func countMetrics(td *replayed, l metricSet) {
	per := func(name string, total float64, c opClass) {
		if n := td.byClass[c].ops; n > 0 {
			l.put(name, total/float64(n))
		}
	}
	sel := td.byClass[opSelect]
	per("core.elems_read_per_select", float64(sel.read), opSelect)
	per("core.elems_skipped_per_select", float64(sel.skipped), opSelect)
	per("core.pruning_power", sel.pruning, opSelect)
	per("core.candidates_per_select", float64(sel.candidates), opSelect)
	per("core.results_per_select", float64(sel.results), opSelect)
	per("core.elems_read_per_topk", float64(td.byClass[opTopK].read), opTopK)
	per("core.rounds_per_hybrid", float64(td.byClass[opHybrid].rounds), opHybrid)
	per("core.elems_read_per_inra", float64(td.byClass[opINRA].read), opINRA)
	if n := td.live.n; n > 0 {
		l.put("live.segments_avg", float64(td.live.segments)/float64(n))
		l.put("live.memtable_docs_avg", float64(td.live.memtable)/float64(n))
		l.put("live.tombstones_avg", float64(td.live.tombstones)/float64(n))
	}
}

package main

import "fmt"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEndDefs are the metrics a user of the library sees, reported by
// every workload. BENCHMARK.json carries their bounds.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"topk_p50_us", "us"},
	{"topk_p95_us", "us"},
	{"hybrid_p50_us", "us"},
	{"inra_p50_us", "us"},
	{"tape_us_per_op", "us"},
	{"heap_mb", "MB"},
}

// perLayerDefs are the metrics of single layers, named layer.metric after
// the repository's modules. A layer that does nothing in a workload
// reports 0. The run.* group is what the clean-latency method filters
// out, reported unfiltered, plus the clean latencies that do not repeat
// well enough between runs to carry a bound (see README.md, Bounds): SF
// selection, whose random accesses follow the host's memory system, and
// SelectBatch, which needs both vCPUs undisturbed at once.
var perLayerDefs = []metricDef{
	{"tokenize.prepare_us", "us"},
	{"tokenize.tokens_per_query", "count"},
	{"collection.build_s", "s"},
	{"invlist.build_s", "s"},
	{"invlist.index_mb", "MB"},
	{"invlist.scan_ns_per_posting", "ns"},
	{"invlist.seeklen_ns", "ns"},
	{"skiplist.seek_ns", "ns"},
	{"kernel.dotcounts_ns", "ns"},
	{"kernel.intersect_ns_per_id", "ns"},
	{"kernel.contains_ns", "ns"},
	{"core.engine_build_s", "s"},
	{"core.elems_read_per_select", "count"},
	{"core.elems_skipped_per_select", "count"},
	{"core.pruning_power", "%"},
	{"core.candidates_per_select", "count"},
	{"core.results_per_select", "count"},
	{"core.elems_read_per_topk", "count"},
	{"core.rounds_per_hybrid", "count"},
	{"core.elems_read_per_inra", "count"},
	{"core.allocs_per_select", "count"},
	{"core.bytes_per_select", "bytes"},
	{"core.allocs_per_topk", "count"},
	{"core.bound_raises_per_topk", "count"},
	{"core.fanout_overhead_us", "us"},
	{"route.partition_s", "s"},
	{"route.capfor_ns", "ns"},
	{"route.prune_ratio", "ratio"},
	{"route.shards_visited_per_select", "count"},
	{"route.prune_ratio_skew", "ratio"},
	{"live.write_p50_us", "us"},
	{"live.write_p95_us", "us"},
	{"live.delete_p50_us", "us"},
	{"live.insert_nowal_us", "us"},
	{"live.segments_avg", "count"},
	{"live.memtable_docs_avg", "count"},
	{"live.tombstones_avg", "count"},
	{"live.compactions_per_lap", "count"},
	{"live.compact_full_ms", "ms"},
	{"wal.append_off_us", "us"},
	{"wal.append_group_us", "us"},
	{"wal.append_always_us", "us"},
	{"wal.bytes_per_record", "bytes"},
	{"wal.replay_us_per_record", "us"},
	{"wal.fsync_ref_us", "us"},
	{"segpack.write_mb_per_s", "MB/s"},
	{"segpack.read_mb_per_s", "MB/s"},
	{"segpack.verify_mb_per_s", "MB/s"},
	{"segpack.bytes_per_doc", "bytes"},
	{"store.checkpoint_ms", "ms"},
	{"store.recover_tail_s", "s"},
	{"store.recover_packs_s", "s"},
	{"store.verify_s", "s"},
	{"store.pack_bytes", "bytes"},
	{"store.wal_bytes", "bytes"},
	{"store.files", "count"},
	{"store.disk_bytes_per_user_byte", "ratio"},
	{"metrics.observe_ns", "ns"},
	{"run.select_p50_us", "us"},
	{"run.select_p95_us", "us"},
	{"run.batch_us_per_query", "us"},
	{"run.raw_select_p50_us", "us"},
	{"run.raw_select_p99_us", "us"},
	{"run.ops_per_s", "1/s"},
	{"run.lap_time_cv", "ratio"},
	{"run.gc_cycles", "count"},
	{"run.gc_pause_total_ms", "ms"},
	{"run.trace_overhead_pct", "%"},
}

// metricSet holds the values of one group of definitions, by name.
type metricSet map[string]metric

// newMetricSet starts every defined metric at 0.
func newMetricSet(defs []metricDef) metricSet {
	m := metricSet{}
	for _, d := range defs {
		m[d.name] = metric{0, d.unit}
	}
	return m
}

// put sets a defined metric; naming an undefined one is a bug in the
// benchmark, not in its input.
func (m metricSet) put(name string, v float64) {
	def, ok := m[name]
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is not defined", name))
	}
	m[name] = metric{v, def.Unit}
}

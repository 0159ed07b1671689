// Command ssbench regenerates every table and figure of the paper's
// evaluation (§VIII) on synthetic stand-ins for the IMDB/DBLP/cu
// datasets and prints paper-style reports.
//
// Usage:
//
//	ssbench [flags] [table1|fig5|fig6|fig7|fig8|fig9|tuning|all]
//
// Flags:
//
//	-rows N      synthetic IMDB-like rows (default 100000)
//	-queries N   queries per workload cell (default 100)
//	-seed N      RNG seed (default 1)
//	-clusters N  Table I clusters per dataset (default 150)
//	-dups N      Table I duplicates per cluster (default 4)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/eval"
	"repro/internal/experiments"
)

func main() {
	rows := flag.Int("rows", 100000, "synthetic IMDB-like rows")
	queries := flag.Int("queries", 100, "queries per workload cell")
	seed := flag.Int64("seed", 1, "RNG seed")
	clusters := flag.Int("clusters", 150, "Table I clusters per dataset")
	dups := flag.Int("dups", 4, "Table I duplicates per cluster")
	flag.Parse()

	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}
	setup := experiments.Setup{Seed: *seed, Rows: *rows, Queries: *queries}

	run := map[string]bool{}
	switch which {
	case "all":
		for _, k := range []string{"table1", "fig5", "fig6", "fig7", "fig8", "fig9", "tuning"} {
			run[k] = true
		}
	case "table1", "fig5", "fig6", "fig7", "fig8", "fig9", "tuning":
		run[which] = true
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", which)
		os.Exit(2)
	}

	if run["table1"] {
		runTable1(*seed, *clusters, *dups, *queries)
	}
	needEnv := run["fig5"] || run["fig6"] || run["fig7"] || run["fig8"] || run["fig9"] || run["tuning"]
	if !needEnv {
		return
	}
	fmt.Printf("building environment: %d rows, seed %d ... ", setup.Rows, setup.Seed)
	start := time.Now()
	env := experiments.BuildEnv(setup)
	fmt.Printf("done in %v (%d words, %d grams)\n\n",
		time.Since(start).Round(time.Millisecond), env.C.NumSets(), env.C.NumTokens())

	if run["fig5"] {
		runFig5(env)
	}
	if run["fig6"] {
		runCells("Figure 6(a): wall-clock time vs threshold (11-15 grams, 0 mods)", experiments.Fig6a(env), "tau")
		runCells("Figure 6(b): wall-clock time vs query size (tau=0.8, 0 mods)", experiments.Fig6b(env), "size")
		runCells("Figure 6(c): wall-clock time vs modifications (tau=0.6, 11-15 grams)", experiments.Fig6c(env), "mods")
	}
	if run["fig7"] {
		runCells("Figure 7(a): pruning power vs threshold", experiments.Fig7a(env), "tau")
		runCells("Figure 7(b): pruning power vs query size (tau=0.8)", experiments.Fig7b(env), "size")
		runCells("Figure 7(c): pruning power vs modifications (tau=0.6)", experiments.Fig7c(env), "mods")
	}
	if run["fig8"] {
		runCells("Figure 8(a): Length Bounding ablation vs threshold", experiments.Fig8a(env), "tau")
		runCells("Figure 8(b): Length Bounding ablation vs query size (tau=0.8)", experiments.Fig8b(env), "size")
	}
	if run["fig9"] {
		runCells("Figure 9: skip-list ablation vs threshold", experiments.Fig9(env), "tau")
	}
	if run["tuning"] {
		runTuning(env, setup)
	}

	// Every query the experiments ran fed the engine's metrics registry;
	// the aggregate distributions summarize the whole bench run.
	fmt.Println("engine metrics across all experiment queries:")
	fmt.Println(env.E.Metrics().Snapshot())
}

func runTuning(env *experiments.Env, setup experiments.Setup) {
	pt := experiments.PageTuning(env, []int{256, 512, 1024, 2048, 4096})
	t := eval.NewTable("Ablation: extendible-hashing page size (the paper tuned to 1KB)",
		"page", "index size", "probes/query", "probe KB/query")
	for _, r := range pt {
		t.AddRow(r.PageSize, eval.Bytes(r.IndexBytes), r.ProbesPerQuery, r.ProbeBytesPerQuery/1024)
	}
	fmt.Println(t)

	st := experiments.SkipTuning(setup, []int{8, 16, 64, 256, 1024})
	t2 := eval.NewTable("Ablation: skip-index interval (SF, tau=0.8)",
		"interval", "index size", "reads/query", "skipped/query")
	for _, r := range st {
		t2.AddRow(r.Interval, eval.Bytes(r.IndexBytes), r.ReadsPerQuery, r.SkippedPerQuery)
	}
	fmt.Println(t2)
}

func runTable1(seed int64, clusters, dups, queries int) {
	fmt.Println("running Table I (average precision on cu1..cu8)...")
	rows := experiments.Table1(seed, clusters, dups, queries)
	t := eval.NewTable("Table I: datasets and average precision", "Dataset", "TFIDF", "IDF", "BM25", "BM25'")
	for _, r := range rows {
		t.AddRow(r.Dataset, r.TFIDF, r.IDF, r.BM25, r.BM25P)
	}
	fmt.Println(t)
}

func runFig5(env *experiments.Env) {
	z := experiments.Fig5(env)
	t := eval.NewTable("Figure 5: index sizes", "component", "size", "used by")
	t.AddRow("base table", eval.Bytes(z.Relational.BaseTable), "(data)")
	t.AddRow("q-gram table", eval.Bytes(z.Relational.QGramTable), "SQL")
	t.AddRow("composite B-tree", eval.Bytes(z.Relational.BTree), "SQL")
	t.AddRow("inverted lists (by weight)", eval.Bytes(z.Lists.WeightLists), "sort-by-id/TA/NRA/iTA/iNRA/SF/Hybrid")
	t.AddRow("skip lists", eval.Bytes(z.Lists.SkipIndexes), "iTA/iNRA/SF/Hybrid")
	t.AddRow("dense-list bitmaps", eval.Bytes(z.Lists.Bitmaps), "SF")
	t.AddRow("extendible hashing", eval.Bytes(z.ExtHash), "TA/iTA")
	fmt.Println(t)
}

func runCells(title string, cells []experiments.Cell, param string) {
	t := eval.NewTable(title, param, "algorithm", "ms/query", "p99 ms", "results", "pruned%", "reads", "probes")
	for _, c := range cells {
		var p interface{}
		switch param {
		case "tau":
			p = c.Tau
		case "size":
			p = c.Bucket
		default:
			p = c.Mods
		}
		t.AddRow(p, c.Label,
			float64(c.MeanTime.Microseconds())/1000.0,
			float64(c.P99Time.Microseconds())/1000.0,
			c.MeanRes, c.Pruning, c.Reads, c.Probes)
	}
	fmt.Println(t)
}

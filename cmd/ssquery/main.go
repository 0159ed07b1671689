// Command ssquery answers ad-hoc set-similarity selection queries over a
// corpus of strings, printing matches with their IDF scores.
//
// Usage:
//
//	ssquery -in strings.txt [-q 3] [-tau 0.8] [-alg sf] [-k 0] [-shards N] [query ...]
//	ssquery -load corpus.sssnap [-lists corpus.ssidx] [flags] [query ...]
//
// With no query arguments it reads queries from stdin, one per line.
// -k > 0 switches to top-k mode (ignores -tau; -alg naive or sf, any
// other algorithm exits 2 before indexing). -save writes the corpus
// built from -in as a store (setsim.Save). -load opens a store — a
// manifest plus segment packages and, for a durable store, a
// write-ahead log, as setsim.Save, setsim.SaveLive and
// setsim.OpenDurable write it — and runs crash recovery first: the
// manifest's packages are loaded, the WAL tail replayed, and a torn
// tail reported. It is served through a LiveEngine, and -v prints its
// segment count and last-compaction stats alongside the query metrics.
// -lists serves the loaded store's queries from a disk-resident list
// file (setsim.SaveLists / ssindex build) built from the same corpus.
//
// -shards N partitions the corpus into N complete engines sharing
// global statistics — similarity-aware clustering by default, so the
// router can skip shards whose summary bound cannot reach τ (the -v
// metrics summary prints the prune: line with the observed ratio) — and
// fans every query across the rest; answers are bitwise-identical to the
// unsharded run. With -in, N > 1 builds a sharded static engine; with
// -load, N is passed to the live engine (0 keeps the shard count a
// durable store was saved with). Sharding is incompatible with
// -lists and -save.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/tokenize"
	"repro/setsim"
)

var algNames = map[string]core.Algorithm{
	"naive": core.Naive, "sort-by-id": core.SortByID, "sql": core.SQL,
	"ta": core.TA, "nra": core.NRA, "ita": core.ITA, "inra": core.INRA,
	"sf": core.SF, "hybrid": core.Hybrid,
}

func main() {
	in := flag.String("in", "", "corpus file, one string per line")
	load := flag.String("load", "", "load a saved store instead of -in")
	lists := flag.String("lists", "", "with -load: serve queries from this on-disk list file")
	save := flag.String("save", "", "after building from -in, save the corpus here as a store")
	q := flag.Int("q", 3, "q-gram size")
	tau := flag.Float64("tau", 0.8, "similarity threshold")
	algName := flag.String("alg", "sf", "algorithm: naive|sort-by-id|sql|ta|nra|ita|inra|sf|hybrid")
	k := flag.Int("k", 0, "top-k mode when > 0 (naive or sf only)")
	timeout := flag.Duration("timeout", 0, "per-query deadline (0 disables); expired queries abort mid-scan")
	shards := flag.Int("shards", 0, "routed partitions to fan queries across (0 = unsharded, or a snapshot's saved count)")
	verbose := flag.Bool("v", false, "print access statistics and a final metrics summary")
	flag.Parse()
	if *in == "" && *load == "" {
		fmt.Fprintln(os.Stderr, "usage: ssquery -in strings.txt | -load corpus.sssnap [-tau 0.8] [-alg sf] [-shards N] [query ...]")
		os.Exit(2)
	}
	if *shards > 1 && *lists != "" {
		fmt.Fprintln(os.Stderr, "ssquery: -shards is incompatible with -lists (disk lists are unsharded)")
		os.Exit(2)
	}
	if *shards > 1 && *save != "" {
		fmt.Fprintln(os.Stderr, "ssquery: -shards is incompatible with -save (save the corpus unsharded, then reload with -shards)")
		os.Exit(2)
	}
	alg, ok := algNames[*algName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algName)
		os.Exit(2)
	}
	if *k > 0 && alg != core.Naive && alg != core.SF {
		fmt.Fprintf(os.Stderr, "ssquery: -k: %v %q (top-k runs naive or sf)\n", core.ErrUnknownAlg, *algName)
		os.Exit(2)
	}

	// The three corpus sources share one query surface.
	var (
		doQuery func(ctx context.Context, line string) ([]core.Result, core.Stats, error)
		source  func(id collection.SetID) string
		summary func()
	)

	switch {
	case *load != "" && *lists != "":
		// On-disk lists are served beside the store's static collection.
		engine, err := setsim.LoadWithLists(*load, *lists, core.Config{})
		if err != nil {
			fatal(err)
		}
		defer engine.Store().Close()
		c := engine.Collection()
		fmt.Fprintf(os.Stderr, "indexed %d sets, %d grams (disk lists)\n", c.NumSets(), c.NumTokens())
		doQuery = staticQuery(engine, alg, *tau, *k)
		source = c.Source
		summary = func() { fmt.Fprintln(os.Stderr, engine.Metrics().Snapshot()) }
	case *load != "":
		le, info, err := setsim.OpenLive(*load, setsim.LiveConfig{NoBackground: true, Shards: *shards})
		if err != nil {
			fatal(err)
		}
		defer le.Close()
		st := le.Stats()
		fmt.Fprintf(os.Stderr, "loaded v%d snapshot: %d docs (%d live), %d shard(s), %d segment(s)\n",
			info.Version, info.Docs, info.Live, le.NumShards(), st.Segments)
		torn := ""
		if info.WALTorn {
			torn = ", torn tail truncated"
		}
		fmt.Fprintf(os.Stderr, "store: generation %d, %d segment package(s), %d wal record(s) replayed%s\n",
			info.Generation, len(info.Segpacks), info.WALTail, torn)
		doQuery = liveQuery(le, alg, *tau, *k)
		source = func(id collection.SetID) string {
			s, _ := le.Source(id)
			return s
		}
		summary = func() {
			fmt.Fprintln(os.Stderr, le.Metrics().Snapshot())
			st := le.Stats()
			fmt.Fprintf(os.Stderr, "compactions: %d (last folded %d docs in %v)\n",
				st.Compactions, st.LastCompactionDocs, st.LastCompaction)
		}
	case *shards > 1:
		lines, err := readLines(*in)
		if err != nil {
			fatal(err)
		}
		se := core.BuildSharded(tokenize.QGramTokenizer{Q: *q}, lines, *shards, core.Config{})
		defer se.Close()
		fmt.Fprintf(os.Stderr, "indexed %d sets across %d shards\n", se.NumDocs(), se.NumShards())
		doQuery = shardedQuery(se, alg, *tau, *k)
		source = se.Source
		summary = func() { fmt.Fprintln(os.Stderr, se.Metrics().Snapshot()) }
	default:
		lines, err := readLines(*in)
		if err != nil {
			fatal(err)
		}
		c := core.BuildCollection(tokenize.QGramTokenizer{Q: *q}, lines, true)
		engine := core.NewEngine(c, core.Config{})
		if *save != "" {
			if err := setsim.Save(*save, engine); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "saved store to %s\n", *save)
		}
		fmt.Fprintf(os.Stderr, "indexed %d sets, %d grams\n", c.NumSets(), c.NumTokens())
		doQuery = staticQuery(engine, alg, *tau, *k)
		source = c.Source
		summary = func() { fmt.Fprintln(os.Stderr, engine.Metrics().Snapshot()) }
	}

	answer := func(line string) {
		ctx := context.Background()
		cancel := func() {}
		if *timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, *timeout)
		}
		res, st, err := doQuery(ctx, line)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "query %q: %v\n", line, err)
			return
		}
		for _, r := range res {
			fmt.Printf("%.4f\t%s\n", r.Score, source(r.ID))
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "  [%d results, %v, read %d/%d postings, skipped %d, %.1f%% pruned, %d probes]\n",
				len(res), st.Elapsed, st.ElementsRead, st.ListTotal, st.ElementsSkipped, st.PruningPower(), st.RandomProbes)
		}
	}

	if flag.NArg() > 0 {
		answer(strings.Join(flag.Args(), " "))
	} else {
		stdin := bufio.NewScanner(os.Stdin)
		for stdin.Scan() {
			answer(stdin.Text())
		}
	}
	if *verbose {
		summary()
	}
}

func readLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines, sc.Err()
}

func staticQuery(e *core.Engine, alg core.Algorithm, tau float64, k int) func(context.Context, string) ([]core.Result, core.Stats, error) {
	return func(ctx context.Context, line string) ([]core.Result, core.Stats, error) {
		q := e.Prepare(line)
		if k > 0 {
			return e.SelectTopKCtx(ctx, q, k, alg, nil)
		}
		return e.SelectCtx(ctx, q, tau, alg, nil)
	}
}

func shardedQuery(se *core.ShardedEngine, alg core.Algorithm, tau float64, k int) func(context.Context, string) ([]core.Result, core.Stats, error) {
	return func(ctx context.Context, line string) ([]core.Result, core.Stats, error) {
		q := se.Prepare(line)
		if k > 0 {
			return se.SelectTopKCtx(ctx, q, k, alg, nil)
		}
		return se.SelectCtx(ctx, q, tau, alg, nil)
	}
}

func liveQuery(le *core.LiveEngine, alg core.Algorithm, tau float64, k int) func(context.Context, string) ([]core.Result, core.Stats, error) {
	return func(ctx context.Context, line string) ([]core.Result, core.Stats, error) {
		q := le.Prepare(line)
		if k > 0 {
			return le.SelectTopKCtx(ctx, q, k, alg, nil)
		}
		return le.SelectCtx(ctx, q, tau, alg, nil)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssquery:", err)
	os.Exit(1)
}

// Command ssindex builds and inspects disk-resident inverted-list
// indexes (internal/invlist's list files: segment packages of the flat
// index's arenas).
//
// Usage:
//
//	ssindex build  -in strings.txt -out index.bin [-q 3] [-skip 64]
//	ssindex stat   -index index.bin [-in strings.txt]
//	ssindex stat   -snap corpus.sssnap [-shards N] [-v]
//	ssindex verify -snap corpus.sssnap
//	ssindex verify -index index.bin
//
// build tokenizes one string per input line into q-grams and writes the
// (len, id)-sorted lists and their skip indexes. stat validates
// the file and prints storage accounting; with -snap it instead opens a
// saved store (setsim.Save, setsim.SaveLive or a durable engine's
// checkpoint) and prints its layout — the stored shard count, the
// similarity-aware routing table (live docs per shard), each shard's
// pruning summary and the manifest (generation, segment-package list,
// WAL tail length, and where the open spent its time: load, the one
// build round, tail replay) — plus segment and compaction stats under
// -v. -shards overrides the stored shard count when replaying the store
// (0 keeps it).
//
// verify checks a store's integrity without building an engine: the
// manifest checksum, every segment package's every block CRC and stored
// token vectors, and the write-ahead log tail. With -index it checks
// a list file the same way, block by block. It exits non-zero when any
// checksum fails.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/collection"
	"repro/internal/eval"
	"repro/internal/invlist"
	"repro/internal/tokenize"
	"repro/setsim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		buildCmd(os.Args[2:])
	case "stat":
		statCmd(os.Args[2:])
	case "verify":
		verifyCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ssindex build  -in strings.txt -out index.bin [-q 3] [-skip 64]")
	fmt.Fprintln(os.Stderr, "       ssindex stat   -index index.bin")
	fmt.Fprintln(os.Stderr, "       ssindex stat   -snap corpus.sssnap [-shards N] [-v]")
	fmt.Fprintln(os.Stderr, "       ssindex verify -snap corpus.sssnap")
	fmt.Fprintln(os.Stderr, "       ssindex verify -index index.bin")
	os.Exit(2)
}

func buildCmd(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	in := fs.String("in", "", "input file, one string per line")
	out := fs.String("out", "", "output index file")
	q := fs.Int("q", 3, "q-gram size")
	skip := fs.Int("skip", 0, "skip-index interval (0 = default)")
	fs.Parse(args)
	if *in == "" || *out == "" {
		usage()
	}

	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	b := collection.NewBuilder(tokenize.QGramTokenizer{Q: *q}, false)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	skipped := 0
	for sc.Scan() {
		if !b.Add(sc.Text()) {
			skipped++
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	c := b.Build()
	if err := invlist.WriteFile(*out, c, *skip); err != nil {
		fatal(err)
	}
	fmt.Printf("indexed %d sets (%d empty lines skipped), %d distinct %d-grams\n",
		c.NumSets(), skipped, c.NumTokens(), *q)

	st, err := invlist.OpenFile(*out)
	if err != nil {
		fatal(err)
	}
	defer st.Close()
	printSizes(st)
}

func statCmd(args []string) {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	index := fs.String("index", "", "index file")
	snap := fs.String("snap", "", "store manifest")
	shards := fs.Int("shards", 0, "with -snap: replay with this many shards (0 = as saved)")
	verbose := fs.Bool("v", false, "with -snap: print segment and compaction stats")
	fs.Parse(args)
	switch {
	case *snap != "":
		snapStat(*snap, *shards, *verbose)
	case *index != "":
		st, err := invlist.OpenFile(*index)
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		fmt.Printf("%s: valid index\n", *index)
		printSizes(st)
	default:
		usage()
	}
}

// snapStat opens a store through the live loader — which validates
// checksums and bulk-loads the document log — and prints what it holds.
func snapStat(path string, shards int, verbose bool) {
	le, info, err := setsim.OpenLive(path, setsim.LiveConfig{
		NoBackground: true, Shards: shards,
	})
	if err != nil {
		fatal(err)
	}
	defer le.Close()
	fmt.Printf("%s: valid v%d snapshot, %d docs (%d live, %d tombstoned), saved with %d shard(s)\n",
		path, info.Version, info.Docs, info.Live, info.Docs-info.Live, info.Shards)
	fmt.Printf("routing: similarity-aware, live docs per shard %v\n", info.RouteCounts)
	for i, s := range info.Summaries {
		fmt.Printf("shard %d summary: %d docs, len [%.3f, %.3f], %d hot tokens, sketch %d/%d slots\n",
			i, s.Docs, s.LenMin, s.LenMax, s.HotTokens, s.SketchOccupied, s.SketchSlots)
	}
	fmt.Printf("manifest: generation %d, %d segment package(s), wal covered through seq %d; open: load %v, build %v, tail replay %v\n",
		info.Generation, len(info.Segpacks), info.WALStart,
		info.LoadTime.Round(time.Microsecond), info.BuildTime.Round(time.Microsecond), info.TailTime.Round(time.Microsecond))
	for _, ref := range info.Segpacks {
		fmt.Printf("  package %s: shard %d, %d docs\n", ref.Name, ref.Shard, ref.Docs)
	}
	torn := ""
	if info.WALTorn {
		torn = " (torn tail truncated at recovery)"
	}
	fmt.Printf("wal tail: %d record(s) replayed%s\n", info.WALTail, torn)
	if verbose {
		st := le.Stats()
		fmt.Printf("shards: %d, segments: %d (epoch %d), memtable %d docs\n",
			le.NumShards(), st.Segments, st.Epoch, st.Memtable)
		fmt.Printf("compactions: %d (last folded %d docs in %v), max drift %.3f\n",
			st.Compactions, st.LastCompactionDocs, st.LastCompaction, st.MaxDrift)
	}
}

// verifyCmd checks every checksum a store carries — the manifest, each
// segment package block by block, and the WAL — or every block checksum
// of a list file.
func verifyCmd(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	snap := fs.String("snap", "", "store manifest")
	index := fs.String("index", "", "list file")
	fs.Parse(args)
	if *index != "" {
		verifyIndex(*index)
		return
	}
	if *snap == "" {
		usage()
	}
	rep, err := setsim.Verify(*snap)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: v%d manifest ok, generation %d, wal covered through seq %d\n",
		*snap, rep.Version, rep.Generation, rep.WALStart)
	for _, p := range rep.Packs {
		status := fmt.Sprintf("%d block checksum(s) ok", p.Blocks)
		if p.Err != nil {
			status = "FAILED: " + p.Err.Error()
		}
		fmt.Printf("  package %s (shard %d, %d docs): %s\n", p.Ref.Name, p.Ref.Shard, p.Ref.Docs, status)
	}
	torn := ""
	if rep.WALTorn {
		torn = ", torn tail"
	}
	fmt.Printf("wal: %d intact record(s)%s\n", rep.WALRecords, torn)
	if !rep.OK {
		fatal(fmt.Errorf("%s: verification failed", *snap))
	}
	fmt.Println("ok")
}

// verifyIndex opens a list file, which validates its tables, and checks
// every block of every record.
func verifyIndex(path string) {
	st, err := invlist.OpenFile(path)
	if err != nil {
		fatal(err)
	}
	defer st.Close()
	blocks, err := st.Verify()
	if err != nil {
		fatal(fmt.Errorf("%s: %d block checksum(s) ok, then FAILED: %w", path, blocks, err))
	}
	fmt.Printf("%s: list file, %d block checksum(s) ok\nok\n", path, blocks)
}

func printSizes(st *invlist.FileStore) {
	z := st.Sizes()
	t := eval.NewTable("storage", "section", "bytes")
	t.AddRow("weight-sorted lists", eval.Bytes(z.WeightLists))
	t.AddRow("skip indexes", eval.Bytes(z.SkipIndexes))
	t.AddRow("total", eval.Bytes(z.Total()))
	fmt.Println(t)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssindex:", err)
	os.Exit(1)
}

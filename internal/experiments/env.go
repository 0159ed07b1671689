// Package experiments contains one driver per table and figure of the
// paper's evaluation (§VIII): Table I (measure quality), Fig. 5 (index
// sizes), Fig. 6 (wall-clock time), Fig. 7 (pruning power), Fig. 8
// (Length Bounding ablation) and Fig. 9 (skip-list ablation). The
// drivers return structured rows; cmd/ssbench renders them.
package experiments

import (
	"math/rand"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/tokenize"
)

// Setup scales an experiment run. The paper used 7M IMDB rows (950K
// distinct words); the defaults here run the same pipeline laptop-sized.
type Setup struct {
	Seed    int64
	Rows    int // IMDB-like rows to synthesize
	Queries int // queries per workload cell (paper: 100)
	// SkipInterval overrides the skip-index spacing (0 = library
	// default, which is tuned for paper-scale lists; small corpora
	// want a denser index).
	SkipInterval int
}

// Env is a built experimental environment: the synthetic corpus, the
// word collection (each word decomposed into 3-grams, as in §VIII-A) and
// the engine over it.
type Env struct {
	Setup Setup
	Rows  []string
	Words []string
	C     *collection.Collection
	E     *core.Engine
	rng   *rand.Rand
}

// BuildEnv synthesizes the corpus and builds its inverted lists (the
// engine builds TA's bitmaps and SQL's tables on their first query).
func BuildEnv(s Setup) *Env {
	rng := rand.New(rand.NewSource(s.Seed))
	rows := dataset.IMDBLike(rng, s.Rows)
	words := dataset.Words(rows)
	b := collection.NewBuilder(tokenize.QGramTokenizer{Q: 3}, true)
	for _, w := range words {
		b.Add(w)
	}
	c := b.Build()
	return &Env{
		Setup: s,
		Rows:  rows,
		Words: words,
		C:     c,
		E:     core.NewEngine(c, core.Config{SkipInterval: s.SkipInterval}),
		rng:   rng,
	}
}

// Workload draws a query workload from the corpus words.
func (env *Env) Workload(b dataset.SizeBucket, mods int) dataset.Workload {
	wl, ok := dataset.MakeWorkload(env.rng, env.Words, b, env.Setup.Queries, mods)
	if !ok {
		return dataset.Workload{Bucket: b, Modifications: mods}
	}
	return wl
}

// Cell is one measured experiment cell: an algorithm run over a workload
// at one parameter setting.
type Cell struct {
	Alg      core.Algorithm
	Label    string // e.g. "sf", "sf NLB", "inra NSL"
	Tau      float64
	Bucket   string
	Mods     int
	MeanTime time.Duration // mean wall-clock per query
	P99Time  time.Duration // 99th-percentile wall-clock per query
	MeanRes  float64       // mean results per query (the paper's top row)
	Pruning  float64       // percentage of elements never read
	Reads    float64       // mean postings read
	Probes   float64       // mean random accesses
}

// runCell executes a workload under one algorithm/option setting.
func (env *Env) runCell(wl dataset.Workload, tau float64, alg core.Algorithm, label string, opts *core.Options) Cell {
	var total time.Duration
	var results, reads, listTotal, probes int
	var lat []float64
	n := 0
	for _, w := range wl.Queries {
		q := env.E.Prepare(w)
		if len(q.Tokens) == 0 {
			continue
		}
		res, st, err := env.E.Select(q, tau, alg, opts)
		if err != nil {
			continue
		}
		n++
		total += st.Elapsed
		lat = append(lat, float64(st.Elapsed))
		results += len(res)
		reads += st.ElementsRead
		listTotal += st.ListTotal
		probes += st.RandomProbes
	}
	cell := Cell{Alg: alg, Label: label, Tau: tau, Bucket: wl.Bucket.Name, Mods: wl.Modifications}
	if n == 0 {
		return cell
	}
	cell.MeanTime = total / time.Duration(n)
	cell.P99Time = time.Duration(eval.Quantile(lat, 0.99))
	cell.MeanRes = float64(results) / float64(n)
	cell.Reads = float64(reads) / float64(n)
	cell.Probes = float64(probes) / float64(n)
	if listTotal > 0 {
		cell.Pruning = 100 * (1 - float64(reads)/float64(listTotal))
		if cell.Pruning < 0 {
			cell.Pruning = 0
		}
	}
	return cell
}

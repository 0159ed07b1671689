package core

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/tokenize"
)

// warmAllocBudget is the steady-state allocation budget of one warm
// MemStore query: exactly the copy that moves results out of the pooled
// scratch into caller-owned memory (zero when the result set is empty).
// Everything else — candidate tables, slabs, masks, cursors, float
// buffers — must come from the scratch.
const warmAllocBudget = 1.0

// warmOptions are the per-query switches the wide arms run under: none,
// and each of the paper's two ablations.
var warmOptions = []struct {
	name string
	opts *Options
}{{"default", nil}, {"NSL", &Options{NoSkipIndex: true}}, {"NLB", &Options{NoLengthBound: true}}}

// warmAllocs runs query over queries once to grow every scratch buffer
// to its high-water mark, then returns its average allocations per call
// over four more passes. GOMAXPROCS is 1 across both, as
// testing.AllocsPerRun sets it for the passes it measures: a scratch
// warmed in another P's private pool slot is never stolen, so a
// measurement could start from a fresh scratch that AllocsPerRun's one
// warm-up call sizes for the first query only.
func warmAllocs(t *testing.T, queries []Query, query func(Query) error) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, q := range queries {
		if err := query(q); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	return testing.AllocsPerRun(4*len(queries), func() {
		q := queries[i%len(queries)]
		i++
		if err := query(q); err != nil {
			t.Fatal(err)
		}
	})
}

// wideEngine indexes 2-grams of long strings, as TestWideQueries does,
// and returns four queries of more than 64 tokens each. Their
// candidates carry list masks with overflow words, and at τ = 0.5 three
// of them return more than sortResultsInsertionMax results.
func wideEngine(t *testing.T) (*Engine, []Query) {
	t.Helper()
	rng := rand.New(rand.NewSource(73))
	b := collection.NewBuilder(tokenize.QGramTokenizer{Q: 2}, true)
	for i := 0; i < 400; i++ {
		ln := 40 + rng.Intn(60)
		var sb strings.Builder
		for j := 0; j < ln; j++ {
			sb.WriteByte(byte('a' + rng.Intn(12)))
		}
		b.Add(sb.String())
	}
	e := NewEngine(b.Build(), Config{})
	var queries []Query
	for id := 0; id < e.c.NumSets() && len(queries) < 4; id++ {
		if q := e.PrepareCounts(e.c.Set(collection.SetID(id))); len(q.Tokens) > 64 {
			queries = append(queries, q)
		}
	}
	if len(queries) < 4 {
		t.Fatalf("only %d queries of more than 64 tokens", len(queries))
	}
	return e, queries
}

// TestWarmQueryAllocations is the tentpole's regression proof: after a
// warm-up pass that sizes the pooled scratch, every algorithm must answer
// MemStore selection queries within warmAllocBudget allocations. The
// wide arm repeats it for queries of more than 64 lists, under each
// ablation: the only warm paths past the masks' inline word.
func TestWarmQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	e := engineFromDocs(randomDocs(5000, 3, 8), Config{})
	rng := rand.New(rand.NewSource(17))
	queries := make([]Query, 8)
	for i := range queries {
		queries[i] = e.PrepareCounts(e.c.Set(collection.SetID(rng.Intn(e.c.NumSets()))))
	}
	we, wide := wideEngine(t)
	// SQL is left out: its relational engine allocates per query.
	for _, alg := range []Algorithm{Naive, SortByID, TA, NRA, ITA, INRA, SF, Hybrid} {
		for _, tau := range []float64{0.8, 0.5} {
			avg := warmAllocs(t, queries, func(q Query) error {
				_, _, err := e.Select(q, tau, alg, nil)
				return err
			})
			if avg > warmAllocBudget {
				t.Errorf("%v tau=%.1f: %.2f allocs per warm query, budget %.0f",
					alg, tau, avg, warmAllocBudget)
			}
			for _, o := range warmOptions {
				avg := warmAllocs(t, wide, func(q Query) error {
					_, _, err := we.Select(q, tau, alg, o.opts)
					return err
				})
				if avg > warmAllocBudget {
					t.Errorf("wide %v %s tau=%.1f: %.2f allocs per warm query, budget %.0f",
						alg, o.name, tau, avg, warmAllocBudget)
				}
			}
		}
	}
}

// warmPrepareAllocs is what a warm Prepare allocates on the input of
// TestWarmPrepareAllocations, all of it for the Query it returns: its Raw
// vector and its Tokens. A Prepare that drops its scratch instead of
// returning it to the pool regrows the raw token buffer on every call,
// five allocations more.
const warmPrepareAllocs = 2

// TestWarmPrepareAllocations pins Prepare's scratch round trip: the raw
// token buffer comes from the query pool and must go back to it.
func TestWarmPrepareAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	e := engineFromDocs(randomDocs(3000, 21, 7), Config{})
	const s = "abcdefgabcdefg"
	e.Prepare(s)
	if avg := testing.AllocsPerRun(20, func() { e.Prepare(s) }); avg > warmPrepareAllocs {
		t.Errorf("warm Prepare: %.2f allocs, budget %d", avg, warmPrepareAllocs)
	}
}

// TestWarmKernelAllocations pins the word-packed paths to the warm
// budget: masks carve from the scratch arena, TA/iTA's kernel sets are
// built by the first query that reads them (the warm-up pass here), and
// the rescore's token arrays and match-mask words are scratch slabs.
// TA/iTA probe the packed bitmaps; SortByID, NRA, iNRA, Hybrid and
// Naive score through the rescore.
func TestWarmKernelAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	e := engineFromDocs(randomDocs(5000, 3, 8), Config{})
	rng := rand.New(rand.NewSource(19))
	queries := make([]Query, 8)
	for i := range queries {
		queries[i] = e.PrepareCounts(e.c.Set(collection.SetID(rng.Intn(e.c.NumSets()))))
	}
	for _, alg := range []Algorithm{TA, NRA, INRA, Hybrid, SortByID, Naive} {
		avg := warmAllocs(t, queries, func(q Query) error {
			_, _, err := e.Select(q, 0.8, alg, nil)
			return err
		})
		if avg > warmAllocBudget {
			t.Errorf("%v: %.2f allocs per warm query, budget %.0f", alg, avg, warmAllocBudget)
		}
	}
}

// TestWarmTopKAllocations holds the warm top-k path to selection's
// budget: the final descending sort is a slices.SortFunc whose
// comparator captures nothing, so the result copy is all it allocates.
// The wide arm runs SF and Naive over queries of more than 64 lists,
// under each ablation.
func TestWarmTopKAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	e := engineFromDocs(randomDocs(5000, 3, 8), Config{})
	rng := rand.New(rand.NewSource(18))
	queries := make([]Query, 8)
	for i := range queries {
		queries[i] = e.PrepareCounts(e.c.Set(collection.SetID(rng.Intn(e.c.NumSets()))))
	}
	avg := warmAllocs(t, queries, func(q Query) error {
		_, _, err := e.SelectTopK(q, 10, SF, nil)
		return err
	})
	if avg > warmAllocBudget {
		t.Errorf("topk sf: %.2f allocs per warm query, budget %.0f", avg, warmAllocBudget)
	}
	we, wide := wideEngine(t)
	for _, alg := range []Algorithm{SF, Naive} {
		for _, o := range warmOptions {
			avg := warmAllocs(t, wide, func(q Query) error {
				_, _, err := we.SelectTopK(q, 10, alg, o.opts)
				return err
			})
			if avg > warmAllocBudget {
				t.Errorf("wide topk %v %s: %.2f allocs per warm query, budget %.0f",
					alg, o.name, avg, warmAllocBudget)
			}
		}
	}
}

// TestWarmShardedAllocations extends the warm budget to the fan-out: a
// warm sharded selection may allocate at most one result copy per shard
// (each shard's copy out of its scratch) plus a bounded constant — the
// merged result slice among it. The per-call fan buffers, which are the
// executor's dispatch too, and every shard's scratch are pooled.
func TestWarmShardedAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	docs := randomDocs(5000, 3, 8)
	for _, K := range []int{1, 4} {
		se := BuildSharded(tokenize.QGramTokenizer{Q: 3}, docs, K, Config{})
		rng := rand.New(rand.NewSource(17))
		queries := make([]Query, 8)
		for i := range queries {
			queries[i] = se.Prepare(docs[rng.Intn(len(docs))])
		}
		budget := float64(K) + 3
		for _, alg := range []Algorithm{SF, Hybrid} {
			avg := warmAllocs(t, queries, func(q Query) error {
				_, _, err := se.Select(q, 0.6, alg, nil)
				return err
			})
			if avg > budget {
				t.Errorf("K=%d %v: %.2f allocs per warm sharded query, budget %.0f",
					K, alg, avg, budget)
			}
		}
		se.Close()
	}
}

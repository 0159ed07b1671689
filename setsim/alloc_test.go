package setsim_test

import (
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/setsim"
)

// durableCorpus mirrors the core package's random corpus generator so
// the durable-engine budgets here measure the same workload shape the
// in-memory budgets are pinned against.
func durableCorpus(n int, seed int64, alphabet int) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		ln := 3 + rng.Intn(14)
		var sb strings.Builder
		for j := 0; j < ln; j++ {
			sb.WriteByte(byte('a' + rng.Intn(alphabet)))
		}
		out[i] = sb.String()
	}
	return out
}

// openDurableCorpus builds a compacted durable engine (WAL attached,
// mutations journaled) over a random corpus.
func openDurableCorpus(t *testing.T, corpus []string, shards int) *setsim.LiveEngine {
	t.Helper()
	path := filepath.Join(t.TempDir(), "alloc.sssnap")
	le, _, err := setsim.OpenDurable(path, setsim.LiveConfig{
		NoBackground: true,
		Shards:       shards, CheckpointEvery: -1,
	}, setsim.DurableOptions{Sync: setsim.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range corpus {
		if _, err := le.Insert(s); err != nil {
			le.Close()
			t.Fatal(err)
		}
	}
	le.Compact()
	return le
}

// TestDurableWarmAllocations pins the warm query path of a durable
// engine to the same budgets as the in-memory one: attaching a WAL and
// journaling every mutation must not add a single allocation to warm
// selection (budget 1: the result copy out of the pooled scratch).
func TestDurableWarmAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	corpus := durableCorpus(5000, 3, 8)
	le := openDurableCorpus(t, corpus, 1)
	defer le.Close()

	queries := make([]setsim.LiveQuery, 8)
	for i := range queries {
		queries[i] = le.Prepare(corpus[i*13])
	}
	algs := []setsim.Algorithm{setsim.SF, setsim.INRA, setsim.NRA, setsim.SortByID, setsim.Hybrid, setsim.TA, setsim.ITA}
	for _, alg := range algs {
		for _, lq := range queries {
			if _, _, err := le.Select(lq, 0.6, alg, nil); err != nil {
				t.Fatalf("%v warm-up: %v", alg, err)
			}
		}
	}
	for _, alg := range algs {
		alg := alg
		i := 0
		allocs := testing.AllocsPerRun(4*len(queries), func() {
			lq := queries[i%len(queries)]
			i++
			if _, _, err := le.Select(lq, 0.6, alg, nil); err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
		})
		if allocs > 1 {
			t.Errorf("%v: %.1f allocs per warm durable query, budget 1", alg, allocs)
		}
	}
}

// buildLiveCorpus is openDurableCorpus's WAL-free twin: the same
// corpus, config and compaction through plain NewLive, giving the
// baseline every durable measurement is compared against.
func buildLiveCorpus(t *testing.T, corpus []string, shards int) *setsim.LiveEngine {
	t.Helper()
	le := setsim.NewLive(setsim.QGramTokenizer{Q: 3}, setsim.LiveConfig{
		NoBackground: true,
		Shards:       shards, CheckpointEvery: -1,
	})
	for _, s := range corpus {
		if _, err := le.Insert(s); err != nil {
			le.Close()
			t.Fatal(err)
		}
	}
	le.Compact()
	return le
}

// measureWarm returns the warm per-query allocation count of fn over
// the prepared queries after a warm-up pass: the minimum of three
// AllocsPerRun rounds. A multi-shard live query fans out over plain
// goroutines, whose scheduling can add one allocation to a whole round's
// average; the minimum is the count the code itself is responsible for,
// so durable and WAL-free engines still compare allocation for
// allocation.
func measureWarm(t *testing.T, queries []setsim.LiveQuery, fn func(setsim.LiveQuery) error) float64 {
	t.Helper()
	for _, lq := range queries {
		if err := fn(lq); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	best := math.Inf(1)
	for round := 0; round < 3; round++ {
		best = min(best, testing.AllocsPerRun(4*len(queries), func() {
			lq := queries[i%len(queries)]
			i++
			if err := fn(lq); err != nil {
				t.Fatal(err)
			}
		}))
	}
	return best
}

// TestDurableWarmTopKAllocations pins the durable engine's warm top-k
// path to the WAL-free live engine's count: journaling must not add a
// single allocation.
func TestDurableWarmTopKAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	corpus := durableCorpus(5000, 3, 8)
	le := openDurableCorpus(t, corpus, 1)
	defer le.Close()
	base := buildLiveCorpus(t, corpus, 1)
	defer base.Close()

	queries := make([]setsim.LiveQuery, 8)
	baseQueries := make([]setsim.LiveQuery, 8)
	for i := range queries {
		queries[i] = le.Prepare(corpus[i*11])
		baseQueries[i] = base.Prepare(corpus[i*11])
	}
	got := measureWarm(t, queries, func(lq setsim.LiveQuery) error {
		_, _, err := le.SelectTopK(lq, 10, setsim.SF, nil)
		return err
	})
	want := measureWarm(t, baseQueries, func(lq setsim.LiveQuery) error {
		_, _, err := base.SelectTopK(lq, 10, setsim.SF, nil)
		return err
	})
	if got > want {
		t.Errorf("topk sf: %.1f allocs per warm durable query, WAL-free baseline %.1f", got, want)
	}
}

// TestDurableWarmShardedAllocations pins the durable engine's sharded
// fan-out to the WAL-free live engine's count for the same shard
// counts: the K-proportional budget must be unchanged by the WAL.
func TestDurableWarmShardedAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	corpus := durableCorpus(5000, 3, 8)
	for _, K := range []int{1, 4} {
		le := openDurableCorpus(t, corpus, K)
		base := buildLiveCorpus(t, corpus, K)
		queries := make([]setsim.LiveQuery, 8)
		baseQueries := make([]setsim.LiveQuery, 8)
		for i := range queries {
			queries[i] = le.Prepare(corpus[i*13])
			baseQueries[i] = base.Prepare(corpus[i*13])
		}
		for _, alg := range []setsim.Algorithm{setsim.SF, setsim.Hybrid} {
			alg := alg
			got := measureWarm(t, queries, func(lq setsim.LiveQuery) error {
				_, _, err := le.Select(lq, 0.6, alg, nil)
				return err
			})
			want := measureWarm(t, baseQueries, func(lq setsim.LiveQuery) error {
				_, _, err := base.Select(lq, 0.6, alg, nil)
				return err
			})
			if got > want {
				t.Errorf("K=%d %v: %.1f allocs per warm durable sharded query, WAL-free baseline %.1f",
					K, alg, got, want)
			}
		}
		le.Close()
		base.Close()
	}
}

// TestDurableWarmPrepareAllocations pins a durable engine's Prepare — a
// compacted segment per shard and a memtable in front of it — to the
// WAL-free live engine's count on 1 and 4 shards: journaling must not
// add an allocation, and neither must the shard count.
func TestDurableWarmPrepareAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	corpus := durableCorpus(3000, 5, 8)
	var counts []float64
	for _, K := range []int{1, 4} {
		le := openDurableCorpus(t, corpus[:2500], K)
		base := buildLiveCorpus(t, corpus[:2500], K)
		for _, s := range corpus[2500:] {
			if _, err := le.Insert(s); err != nil {
				t.Fatal(err)
			}
			if _, err := base.Insert(s); err != nil {
				t.Fatal(err)
			}
		}
		prepare := func(e *setsim.LiveEngine) float64 {
			i := 0
			e.Prepare(corpus[0])
			return testing.AllocsPerRun(64, func() {
				e.Prepare(corpus[i%len(corpus)])
				i++
			})
		}
		got, want := prepare(le), prepare(base)
		if got > want {
			t.Errorf("%d shards: %.1f allocs per warm durable Prepare, WAL-free baseline %.1f", K, got, want)
		}
		counts = append(counts, got)
		le.Close()
		base.Close()
	}
	if counts[0] != counts[1] {
		t.Errorf("warm durable Prepare: %.1f allocs on 1 shard, %.1f on 4", counts[0], counts[1])
	}
}

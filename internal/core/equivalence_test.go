package core

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/collection"
	"repro/internal/invlist"
	"repro/internal/sim"
	"repro/internal/tokenize"
)

// buildEngine constructs a random q-gram corpus and full engine.
func buildEngine(tb testing.TB, n int, seed int64, alphabet int, cfg Config) *Engine {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := collection.NewBuilder(tokenize.QGramTokenizer{Q: 3}, true)
	for i := 0; i < n; i++ {
		ln := 3 + rng.Intn(14)
		var sb strings.Builder
		for j := 0; j < ln; j++ {
			sb.WriteByte(byte('a' + rng.Intn(alphabet)))
		}
		b.Add(sb.String())
	}
	return NewEngine(b.Build(), cfg)
}

// assertSameResults compares an algorithm's output with the oracle's,
// Naive's. Every algorithm but SQL emits the canonical score, so it must
// agree bitwise: same ids, same order, same score bits. SQL sums its
// stored partial weights in the relational engine's order, so it must
// return the same ids with scores within sim.ScoreEpsilon.
func assertSameResults(t *testing.T, alg Algorithm, tau float64, got, want []Result) {
	t.Helper()
	label := fmt.Sprintf("%v τ=%g", alg, tau)
	if alg != SQL {
		assertBitwise(t, label, got, want)
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, oracle %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > sim.ScoreEpsilon {
			t.Fatalf("%s: result[%d] (%d, %.17g), oracle (%d, %.17g)",
				label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

func TestAllAlgorithmsMatchOracle(t *testing.T) {
	e := buildEngine(t, 800, 42, 7, Config{})
	rng := rand.New(rand.NewSource(43))
	taus := []float64{0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0}
	for trial := 0; trial < 25; trial++ {
		qid := collection.SetID(rng.Intn(e.c.NumSets()))
		q := e.PrepareCounts(e.c.Set(qid))
		tau := taus[trial%len(taus)]
		want, _, err := e.Select(q, tau, Naive, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range Algorithms() {
			got, _, err := e.Select(q, tau, alg, nil)
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			assertSameResults(t, alg, tau, got, want)
		}
	}
}

func TestAllAlgorithmsMatchOracleNoLengthBound(t *testing.T) {
	e := buildEngine(t, 500, 7, 6, Config{})
	rng := rand.New(rand.NewSource(8))
	opts := &Options{NoLengthBound: true}
	for trial := 0; trial < 12; trial++ {
		qid := collection.SetID(rng.Intn(e.c.NumSets()))
		q := e.PrepareCounts(e.c.Set(qid))
		tau := 0.5 + 0.1*float64(trial%5)
		want, _, err := e.Select(q, tau, Naive, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range Algorithms() {
			got, _, err := e.Select(q, tau, alg, opts)
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			assertSameResults(t, alg, tau, got, want)
		}
	}
}

func TestAllAlgorithmsMatchOracleNoSkipIndex(t *testing.T) {
	e := buildEngine(t, 400, 9, 6, Config{})
	rng := rand.New(rand.NewSource(10))
	opts := &Options{NoSkipIndex: true}
	for trial := 0; trial < 10; trial++ {
		qid := collection.SetID(rng.Intn(e.c.NumSets()))
		q := e.PrepareCounts(e.c.Set(qid))
		tau := 0.6 + 0.1*float64(trial%4)
		want, _, err := e.Select(q, tau, Naive, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range Algorithms() {
			got, _, err := e.Select(q, tau, alg, opts)
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			assertSameResults(t, alg, tau, got, want)
		}
	}
}

// TestModifiedQueries exercises queries that are not corpus members
// (random edits), including out-of-vocabulary grams.
func TestModifiedQueries(t *testing.T) {
	e := buildEngine(t, 600, 11, 6, Config{})
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		src := e.c.Source(collection.SetID(rng.Intn(e.c.NumSets())))
		mod := mutate(rng, src, 1+rng.Intn(3))
		q := e.Prepare(mod)
		if len(q.Tokens) == 0 {
			continue
		}
		tau := 0.4 + 0.15*float64(trial%4)
		want, _, err := e.Select(q, tau, Naive, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range Algorithms() {
			got, _, err := e.Select(q, tau, alg, nil)
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			assertSameResults(t, alg, tau, got, want)
		}
	}
}

// mutate applies random letter insertions, deletions and swaps — the
// paper's "modifications".
func mutate(rng *rand.Rand, s string, n int) string {
	b := []byte(s)
	for i := 0; i < n && len(b) > 0; i++ {
		switch rng.Intn(3) {
		case 0: // insert
			pos := rng.Intn(len(b) + 1)
			b = append(b[:pos], append([]byte{byte('a' + rng.Intn(26))}, b[pos:]...)...)
		case 1: // delete
			pos := rng.Intn(len(b))
			b = append(b[:pos], b[pos+1:]...)
		case 2: // swap
			if len(b) >= 2 {
				pos := rng.Intn(len(b) - 1)
				b[pos], b[pos+1] = b[pos+1], b[pos]
			}
		}
	}
	return string(b)
}

// TestQuickRandomInstances is a randomized property sweep over small
// instances where every algorithm must agree with the oracle exactly.
func TestQuickRandomInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			e := buildEngine(t, 120+rng.Intn(200), seed*131+1, 4+rng.Intn(4), Config{})
			for trial := 0; trial < 10; trial++ {
				qid := collection.SetID(rng.Intn(e.c.NumSets()))
				q := e.PrepareCounts(e.c.Set(qid))
				tau := 0.25 + rng.Float64()*0.74
				want, _, err := e.Select(q, tau, Naive, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, alg := range Algorithms() {
					got, _, err := e.Select(q, tau, alg, nil)
					if err != nil {
						t.Fatalf("%v: %v", alg, err)
					}
					assertSameResults(t, alg, tau, got, want)
				}
			}
			// A duplicate-length-heavy instance: short strings over two
			// letters, so most sets repeat another's token set exactly
			// and (len, id) ties decide the candidate order of iNRA,
			// Hybrid and SF — and SF's merge of C with each list — on
			// every list-positioning path, for selection and top-k. The
			// (len, id) heap of the merge baseline runs over the in-memory
			// lists and over a list file of them.
			ties := engineFromDocs(tieDocs(rng, 150+rng.Intn(200)), Config{})
			path := filepath.Join(t.TempDir(), "ties.lists")
			if err := invlist.WriteFile(path, ties.c, 4); err != nil {
				t.Fatal(err)
			}
			fs, err := invlist.OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			tiesOnDisk := NewEngine(ties.c, Config{Store: fs})
			for trial := 0; trial < 10; trial++ {
				q := ties.PrepareCounts(ties.c.Set(collection.SetID(rng.Intn(ties.c.NumSets()))))
				tau := 0.25 + rng.Float64()*0.74
				want, _, err := ties.Select(q, tau, Naive, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, eng := range []*Engine{ties, tiesOnDisk} {
					got, _, err := eng.Select(q, tau, SortByID, nil)
					if err != nil {
						t.Fatalf("SortByID: %v", err)
					}
					assertSameResults(t, SortByID, tau, got, want)
				}
				for _, o := range []*Options{nil, {NoLengthBound: true}, {NoSkipIndex: true}} {
					for _, alg := range []Algorithm{INRA, Hybrid, SF} {
						got, _, err := ties.Select(q, tau, alg, o)
						if err != nil {
							t.Fatalf("%v %+v: %v", alg, o, err)
						}
						assertSameResults(t, alg, tau, got, want)
					}
					for _, k := range []int{1, 10, ties.c.NumSets()} {
						got, _, err := ties.SelectTopK(q, k, SF, o)
						if err != nil {
							t.Fatalf("SF top-%d %+v: %v", k, o, err)
						}
						assertTopK(t, ties, q, k, SF, got)
					}
				}
			}
			// The same shape on a live store whose segments carry
			// tombstones, so SF top-k refuses deleted candidates while
			// length ties decide its merge.
			docs := tieDocs(rng, 200+rng.Intn(100))
			le := NewLive(liveTestTK, LiveConfig{
				NoBackground:   true,
				FlushThreshold: 16, DriftBound: 1e9, MaxSegments: 1 << 20,
			})
			defer le.Close()
			for i, d := range docs {
				if _, err := le.Insert(d); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
				if i%64 == 63 {
					le.compactOnce(false)
				}
			}
			for i := 0; i < len(docs); i += 3 {
				le.Delete(collection.SetID(i))
			}
			if st := le.Stats(); st.Segments < 2 || st.Tombstones == 0 {
				t.Fatalf("live scenario not established: %+v", st)
			}
			for trial := 0; trial < 5; trial++ {
				// Ids 1 mod 3 survive every delete.
				lq := le.Prepare(docs[1+3*rng.Intn(len(docs)/3)])
				for _, k := range []int{1, 10, len(docs)} {
					assertLiveTopK(t, le, lq, k)
				}
			}
		})
	}
}

// tieDocs generates n strings of 3 to 7 letters over {a, b}: at most 248
// distinct strings and far fewer distinct 3-gram sets, so a corpus of a
// few hundred is mostly exact length ties.
func tieDocs(rng *rand.Rand, n int) []string {
	docs := make([]string, n)
	for i := range docs {
		b := make([]byte, 3+rng.Intn(5))
		for j := range b {
			b[j] = byte('a' + rng.Intn(2))
		}
		docs[i] = string(b)
	}
	return docs
}

func TestSelfQueryAtTauOne(t *testing.T) {
	e := buildEngine(t, 300, 99, 8, Config{})
	for id := 0; id < 20; id++ {
		q := e.PrepareCounts(e.c.Set(collection.SetID(id)))
		for _, alg := range Algorithms() {
			got, _, err := e.Select(q, 1.0, alg, nil)
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			found := false
			for _, r := range got {
				if r.ID == collection.SetID(id) {
					found = true
					if math.Abs(r.Score-1) > 1e-9 {
						t.Errorf("%v: self score %g", alg, r.Score)
					}
				}
			}
			if !found {
				t.Errorf("%v: query %d did not match itself at τ=1", alg, id)
			}
		}
	}
}

func TestSelectValidation(t *testing.T) {
	e := buildEngine(t, 50, 1, 6, Config{})
	q := e.PrepareCounts(e.c.Set(0))
	if _, _, err := e.Select(Query{}, 0.5, SF, nil); err != ErrEmptyQuery {
		t.Errorf("empty query err = %v", err)
	}
	if _, _, err := e.Select(q, 0, SF, nil); err != ErrBadThreshold {
		t.Errorf("τ=0 err = %v", err)
	}
	if _, _, err := e.Select(q, 1.5, SF, nil); err != ErrBadThreshold {
		t.Errorf("τ=1.5 err = %v", err)
	}
	if _, _, err := e.Select(q, 0.5, Algorithm(99), nil); err != ErrUnknownAlg {
		t.Errorf("bad alg err = %v", err)
	}
}

// TestEngineWithoutOptionalIndexes holds the default engine to building
// only the inverted lists: the list-only algorithms and top-k leave TA's
// bitmaps and SQL's tables unbuilt, and the first TA, iTA or SQL query
// builds what it reads and answers as Naive does.
func TestEngineWithoutOptionalIndexes(t *testing.T) {
	e := buildEngine(t, 100, 2, 6, Config{})
	q := e.PrepareCounts(e.c.Set(0))
	want, _, err := e.Select(q, 0.8, Naive, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{SortByID, NRA, INRA, SF, Hybrid} {
		got, _, err := e.Select(q, 0.8, alg, nil)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		assertSameResults(t, alg, 0.8, got, want)
	}
	if _, _, err := e.SelectTopK(q, 5, SF, nil); err != nil {
		t.Fatal(err)
	}
	if e.member != nil || e.rel != nil {
		t.Fatalf("list-only queries built member=%v rel=%v", e.member != nil, e.rel != nil)
	}
	for _, alg := range []Algorithm{TA, ITA, SQL} {
		got, _, err := e.Select(q, 0.8, alg, nil)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		assertSameResults(t, alg, 0.8, got, want)
	}
	if e.member == nil || e.rel == nil {
		t.Fatalf("TA/SQL queries left member=%v rel=%v unbuilt", e.member != nil, e.rel != nil)
	}
}

// TestQuickPropertyAllAlgorithms drives the full lineup through
// testing/quick: arbitrary (seed, size, alphabet, tau) instances must
// produce oracle-identical answers for every algorithm.
func TestQuickPropertyAllAlgorithms(t *testing.T) {
	f := func(seed int64, nRaw uint16, alphaRaw uint8, tauRaw uint16) bool {
		n := 50 + int(nRaw)%250
		alphabet := 4 + int(alphaRaw)%6
		tau := 0.2 + 0.79*float64(tauRaw)/65535
		e := buildEngine(t, n, seed, alphabet, Config{})
		rng := rand.New(rand.NewSource(seed + 1))
		for trial := 0; trial < 3; trial++ {
			qid := collection.SetID(rng.Intn(e.c.NumSets()))
			q := e.PrepareCounts(e.c.Set(qid))
			want, _, err := e.Select(q, tau, Naive, nil)
			if err != nil {
				return false
			}
			wm := map[collection.SetID]float64{}
			for _, r := range want {
				wm[r.ID] = r.Score
			}
			for _, alg := range Algorithms() {
				got, _, err := e.Select(q, tau, alg, nil)
				if err != nil {
					return false
				}
				if len(got) != len(want) {
					t.Logf("seed=%d n=%d alpha=%d tau=%g alg=%v: %d vs %d results",
						seed, n, alphabet, tau, alg, len(got), len(want))
					return false
				}
				for i, r := range got {
					// SQL sums in the relational engine's order; every
					// other algorithm emits Naive's score bits.
					w, ok := wm[r.ID]
					if !ok || math.Abs(r.Score-w) > sim.ScoreEpsilon ||
						alg != SQL && r != want[i] {
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

package sim

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tokenize"
)

func TestIDFMonotoneInDF(t *testing.T) {
	n := 1000
	prev := math.Inf(1)
	for df := 1; df <= n; df *= 2 {
		w := IDF(df, n)
		if w >= prev {
			t.Fatalf("idf not strictly decreasing: idf(%d)=%g >= %g", df, w, prev)
		}
		if w <= 0 {
			t.Fatalf("idf(%d,%d)=%g not positive", df, n, w)
		}
		prev = w
	}
}

func TestIDFEdgeCases(t *testing.T) {
	if got := IDF(10, 0); got != 0 {
		t.Errorf("IDF with n=0 = %g, want 0", got)
	}
	// Unseen token (df=0) must weigh more than any seen token.
	n := 500
	if IDF(0, n) <= IDF(1, n) {
		t.Errorf("unseen-token idf %g not above df=1 idf %g", IDF(0, n), IDF(1, n))
	}
	// df == n gives log2(2) == 1.
	if got := IDF(n, n); math.Abs(got-1) > 1e-12 {
		t.Errorf("IDF(n,n) = %g, want 1", got)
	}
}

// TestSumSq holds the length accumulator to a math/big sum of the same
// idf² values, rounded once to float64 before the root, in shuffled
// orders: zero summands, the unseen-token weight at the largest N (whose
// square, 2¹², reaches the high word on its own), weights just below it
// (whose sums carry out of the low word) and sums past 2⁶⁴ units all
// included.
func TestSumSq(t *testing.T) {
	var zero SumSq
	if got := zero.Len(); got != 0 {
		t.Errorf("empty SumSq Len = %g", got)
	}
	exact := func(xs []float64) float64 {
		sum := new(big.Float).SetPrec(256)
		for _, x := range xs {
			sum.Add(sum, new(big.Float).SetFloat64(x))
		}
		f, _ := sum.Float64()
		return f
	}
	add := func(xs []float64) SumSq {
		var acc SumSq
		for _, x := range xs {
			acc.Add(x)
		}
		return acc
	}
	if got := add([]float64{9, 16}).Len(); got != 5 {
		t.Errorf("Len(9+16) = %g, want 5", got)
	}
	rng := rand.New(rand.NewSource(44))
	highWord := 0
	for trial := 0; trial < 3000; trial++ {
		xs := make([]float64, 1+rng.Intn(600))
		for i := range xs {
			var w float64
			switch r := rng.Intn(20); {
			case r == 0:
				w = IDF(0, math.MaxInt)
			case r == 1:
				w = IDF(3, 0) // n = 0: a zero summand
			case r < 5:
				w = IDF(1+rng.Intn(64), math.MaxInt)
			default:
				n := 1 + rng.Intn(1<<uint(1+rng.Intn(40)))
				w = IDF(rng.Intn(n+1), n)
			}
			xs[i] = w * w
		}
		want := exact(xs)
		for pass := 0; pass < 2; pass++ {
			acc := add(xs)
			if acc.hi != 0 {
				highWord++
			}
			if got := acc.sum(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d pass %d: sum = %v, exact sum rounded once = %v", trial, pass, got, want)
			}
			if got := acc.Len(); got != math.Sqrt(want) {
				t.Fatalf("trial %d pass %d: Len = %v, want %v", trial, pass, got, math.Sqrt(want))
			}
			rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		}
	}
	if highWord == 0 {
		t.Fatal("no trial reached the high word")
	}
	if one := add([]float64{IDF(0, math.MaxInt) * IDF(0, math.MaxInt)}); one.hi == 0 {
		t.Error("IDF(0, MaxInt)² did not reach the high word")
	}
	// 2⁶⁴ + 2¹¹ + 1 units: the top 64 bits end in a tie that only the
	// sticky bit of the dropped one breaks upwards.
	if xs := []float64{4096, 0x1p-41, 0x1p-52}; add(xs).sum() != exact(xs) {
		t.Error("a dropped low bit did not break a rounding tie")
	}
	// Summands up to the 128-bit range: 2⁷⁰ is 2¹²² units.
	if xs := []float64{0x1p70, 3, 0x1.8p65, 0x1p-52}; add(xs).sum() != exact(xs) {
		t.Errorf("large summands: sum = %v, want %v", add(xs).sum(), exact(xs))
	}
	// A summand's fraction of a unit is dropped summand by summand, so
	// even sums of such summands are order-free.
	if got := add([]float64{1, 0x1.8p-53, 0x1.8p-53}).sum(); got != 1 {
		t.Errorf("1 + two 0.75 units = %v, want 1", got)
	}
	small := []float64{0.3, 1e-17, 0x1p-53, 2.5, 1e-300, 7}
	first := add(small)
	for pass := 0; pass < 20; pass++ {
		rng.Shuffle(len(small), func(i, j int) { small[i], small[j] = small[j], small[i] })
		if acc := add(small); acc != first {
			t.Fatalf("order changed a sum of sub-unit summands: %v vs %v", acc.sum(), first.sum())
		}
	}
}

func TestLengthBounds(t *testing.T) {
	lo, hi := LengthBounds(10, 0.5)
	if lo != 5 || hi != 20 {
		t.Errorf("LengthBounds(10,0.5) = %g,%g want 5,20", lo, hi)
	}
	lo, hi = LengthBounds(10, 1)
	if lo != 10 || hi != 10 {
		t.Errorf("LengthBounds(10,1) = %g,%g want 10,10", lo, hi)
	}
	// tau=0 must not produce Inf·0 trouble.
	lo, hi = LengthBounds(10, 0)
	if lo < 0 || math.IsInf(hi, 0) == false && hi < 10 {
		t.Errorf("LengthBounds(10,0) = %g,%g", lo, hi)
	}
}

func TestLambdaMonotone(t *testing.T) {
	f := func(raw []float64, tauRaw float64) bool {
		if len(raw) == 0 {
			return true
		}
		idfSq := make([]float64, 0, len(raw))
		for _, v := range raw {
			v = math.Abs(v)
			if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) || v > 1e9 {
				v = 1
			}
			idfSq = append(idfSq, v)
		}
		tau := 0.1 + math.Mod(math.Abs(tauRaw), 0.9)
		lam := Lambda(idfSq, 10, tau)
		for i := 1; i < len(lam); i++ {
			if lam[i] > lam[i-1]+1e-9 {
				return false
			}
		}
		// λ_n must equal idfSq[n-1]/(τ·lenQ).
		want := idfSq[len(idfSq)-1] / (tau * 10)
		return math.Abs(lam[len(lam)-1]-want) < 1e-9*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// corpus is a tiny Stats implementation for measure tests.
type corpus struct {
	n   int
	df  map[tokenize.Token]int
	avg float64
}

func (c corpus) NumSets() int            { return c.n }
func (c corpus) DF(t tokenize.Token) int { return c.df[t] }
func (c corpus) AvgTokens() float64      { return c.avg }

func counts(pairs ...uint32) []tokenize.Count {
	out := make([]tokenize.Count, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, tokenize.Count{Token: tokenize.Token(pairs[i]), TF: pairs[i+1]})
	}
	return out
}

func testCorpus() corpus {
	return corpus{
		n:   100,
		df:  map[tokenize.Token]int{0: 50, 1: 10, 2: 2, 3: 25, 4: 1},
		avg: 4,
	}
}

func TestIDFMeasureSelfSimilarity(t *testing.T) {
	m := IDFMeasure{Stats: testCorpus()}
	s := counts(0, 1, 1, 2, 2, 1) // tf ignored by IDF
	if got := m.Score(s, s); math.Abs(got-1) > 1e-12 {
		t.Errorf("self similarity = %g, want 1", got)
	}
}

func TestIDFMeasureIgnoresTF(t *testing.T) {
	m := IDFMeasure{Stats: testCorpus()}
	a := counts(0, 1, 1, 1)
	b := counts(0, 7, 1, 3)
	if m.Score(a, b) != 1 {
		t.Errorf("IDF should ignore tf: score = %g", m.Score(a, b))
	}
}

func TestIDFMeasureDisjoint(t *testing.T) {
	m := IDFMeasure{Stats: testCorpus()}
	if got := m.Score(counts(0, 1), counts(1, 1)); got != 0 {
		t.Errorf("disjoint sets score %g, want 0", got)
	}
}

func TestIDFMeasureEmpty(t *testing.T) {
	m := IDFMeasure{Stats: testCorpus()}
	if got := m.Score(nil, counts(0, 1)); got != 0 {
		t.Errorf("empty query score %g, want 0", got)
	}
}

func TestIDFMeasureRareTokenDominates(t *testing.T) {
	m := IDFMeasure{Stats: testCorpus()}
	q := counts(0, 1, 4, 1) // common token 0, rare token 4
	shareRare := counts(1, 1, 4, 1)
	shareCommon := counts(0, 1, 1, 1)
	if m.Score(q, shareRare) <= m.Score(q, shareCommon) {
		t.Errorf("sharing the rare token should score higher: %g vs %g",
			m.Score(q, shareRare), m.Score(q, shareCommon))
	}
}

func TestTFIDFSelfSimilarity(t *testing.T) {
	m := TFIDFMeasure{Stats: testCorpus()}
	s := counts(0, 2, 2, 1)
	if got := m.Score(s, s); math.Abs(got-1) > 1e-12 {
		t.Errorf("self similarity = %g, want 1", got)
	}
}

func TestTFIDFUsesTF(t *testing.T) {
	m := TFIDFMeasure{Stats: testCorpus()}
	q := counts(0, 2, 1, 1)
	same := counts(0, 2, 1, 1)
	diff := counts(0, 9, 1, 1) // tf discrepancy on token 0
	if m.Score(q, diff) >= m.Score(q, same) {
		t.Errorf("tf discrepancy should lower TF/IDF: %g vs %g",
			m.Score(q, diff), m.Score(q, same))
	}
}

func TestBM25Basics(t *testing.T) {
	c := testCorpus()
	m := BM25Measure{Stats: c, Params: DefaultBM25}
	q := counts(2, 1)
	hit := counts(2, 1, 0, 1)
	miss := counts(0, 1, 1, 1)
	if m.Score(q, hit) <= m.Score(q, miss) {
		t.Errorf("BM25 hit %g not above miss %g", m.Score(q, hit), m.Score(q, miss))
	}
	if m.Score(q, miss) != 0 {
		t.Errorf("BM25 disjoint = %g, want 0", m.Score(q, miss))
	}
}

func TestBM25DefaultParams(t *testing.T) {
	c := testCorpus()
	zero := BM25Measure{Stats: c} // zero params must fall back to defaults
	def := BM25Measure{Stats: c, Params: DefaultBM25}
	q, s := counts(2, 1, 1, 2), counts(2, 1, 1, 1, 0, 3)
	if zero.Score(q, s) != def.Score(q, s) {
		t.Errorf("zero params %g != default params %g", zero.Score(q, s), def.Score(q, s))
	}
}

func TestBM25PrimeIgnoresTF(t *testing.T) {
	c := testCorpus()
	m := BM25PrimeMeasure{Stats: c, Params: DefaultBM25}
	q := counts(2, 1, 1, 1)
	a := counts(2, 1, 1, 1)
	b := counts(2, 6, 1, 9)
	if m.Score(q, a) != m.Score(q, b) {
		t.Errorf("BM25' should ignore tf: %g vs %g", m.Score(q, a), m.Score(q, b))
	}
}

func TestBM25PrefersShorterSets(t *testing.T) {
	// With b > 0 a match inside a longer set scores lower.
	c := testCorpus()
	m := BM25Measure{Stats: c, Params: DefaultBM25}
	q := counts(2, 1)
	short := counts(2, 1)
	long := counts(2, 1, 0, 5, 1, 5, 3, 5)
	if m.Score(q, long) >= m.Score(q, short) {
		t.Errorf("long set %g should score below short %g", m.Score(q, long), m.Score(q, short))
	}
}

func TestMeasureNames(t *testing.T) {
	c := testCorpus()
	names := map[string]Measure{
		"IDF":   IDFMeasure{Stats: c},
		"TFIDF": TFIDFMeasure{Stats: c},
		"BM25":  BM25Measure{Stats: c},
		"BM25'": BM25PrimeMeasure{Stats: c},
	}
	for want, m := range names {
		if got := m.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

// randomCounts builds a sorted random count vector over tokens [0, 5).
func randomCounts(rng *rand.Rand) []tokenize.Count {
	var out []tokenize.Count
	for t := 0; t < 5; t++ {
		if rng.Intn(2) == 1 {
			out = append(out, tokenize.Count{Token: tokenize.Token(t), TF: uint32(1 + rng.Intn(3))})
		}
	}
	return out
}

func TestIDFMeasureSymmetricAndBounded(t *testing.T) {
	c := testCorpus()
	m := IDFMeasure{Stats: c}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		a, b := randomCounts(rng), randomCounts(rng)
		sab, sba := m.Score(a, b), m.Score(b, a)
		if math.Abs(sab-sba) > 1e-12 {
			t.Fatalf("asymmetric: %g vs %g for %v %v", sab, sba, a, b)
		}
		if sab < 0 || sab > 1+1e-12 {
			t.Fatalf("score out of [0,1]: %g", sab)
		}
	}
}

// TestTheorem1 checks Length Boundedness against brute-force scores: any
// pair with I(q,s) ≥ τ must satisfy τ·len(q) ≤ len(s) ≤ len(q)/τ.
func TestTheorem1(t *testing.T) {
	c := testCorpus()
	m := IDFMeasure{Stats: c}
	rng := rand.New(rand.NewSource(99))
	length := func(v []tokenize.Count) float64 {
		var sum float64
		for _, cnt := range v {
			w := IDF(c.DF(cnt.Token), c.NumSets())
			sum += w * w
		}
		return math.Sqrt(sum)
	}
	for i := 0; i < 2000; i++ {
		q, s := randomCounts(rng), randomCounts(rng)
		if len(q) == 0 || len(s) == 0 {
			continue
		}
		score := m.Score(q, s)
		for _, tau := range []float64{0.3, 0.5, 0.8, 0.95} {
			if score >= tau {
				lo, hi := LengthBounds(length(q), tau)
				ls := length(s)
				if ls < lo-1e-9 || ls > hi+1e-9 {
					t.Fatalf("Theorem 1 violated: score=%g tau=%g len(s)=%g not in [%g,%g]",
						score, tau, ls, lo, hi)
				}
			}
		}
	}
}

func TestContribution(t *testing.T) {
	got := Contribution(3, 2, 5)
	if math.Abs(got-0.9) > 1e-12 {
		t.Errorf("Contribution(3,2,5) = %g, want 0.9", got)
	}
}

func BenchmarkIDFScore(b *testing.B) {
	m := IDFMeasure{Stats: testCorpus()}
	q := counts(0, 1, 1, 1, 2, 1)
	s := counts(0, 1, 2, 1, 3, 1, 4, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Score(q, s)
	}
}

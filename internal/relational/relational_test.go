package relational

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/sim"
	"repro/internal/tokenize"
)

func buildCorpus(t testing.TB, n int, seed int64) *collection.Collection {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := collection.NewBuilder(tokenize.QGramTokenizer{Q: 3}, true)
	for i := 0; i < n; i++ {
		ln := 4 + rng.Intn(10)
		var sb strings.Builder
		for j := 0; j < ln; j++ {
			sb.WriteByte(byte('a' + rng.Intn(7)))
		}
		b.Add(sb.String())
	}
	return b.Build()
}

// queryFor preprocesses set id as a query (tokens, idf², len).
func queryFor(c *collection.Collection, id collection.SetID) ([]QueryToken, float64) {
	set := c.Set(id)
	toks := make([]QueryToken, 0, len(set))
	var len2 float64
	for _, cnt := range set {
		w := c.IDFWeight(cnt.Token)
		toks = append(toks, QueryToken{Gram: cnt.Token, IDFSq: w * w})
		len2 += w * w
	}
	return toks, math.Sqrt(len2)
}

// naive computes the oracle answer with the IDF measure.
func naive(c *collection.Collection, q []tokenize.Count, tau float64) map[collection.SetID]float64 {
	m := sim.IDFMeasure{Stats: c}
	out := map[collection.SetID]float64{}
	for id := 0; id < c.NumSets(); id++ {
		if s := m.Score(q, c.Set(collection.SetID(id))); sim.Meets(s, tau) {
			out[collection.SetID(id)] = s
		}
	}
	return out
}

// selectAt runs the plan at threshold tau: over Theorem 1's window
// τ·len(q) to len(q)/τ, widened by 1e-12 against rounding at τ = 1, when
// lengthBound holds and over every length otherwise, keeping the groups
// whose score meets τ.
func selectAt(e *Engine, toks []QueryToken, lenQ, tau float64, lengthBound bool) ([]Match, ScanStats) {
	lo, hi := 0.0, math.MaxFloat64
	if lengthBound {
		lo, hi = tau*lenQ*(1-1e-12), lenQ/tau*(1+1e-12)
	}
	m, stats, _ := e.SelectStop(toks, lenQ, lo, hi, func(score float64) bool { return sim.Meets(score, tau) }, nil)
	return m, stats
}

func TestSelectMatchesOracle(t *testing.T) {
	c := buildCorpus(t, 500, 1)
	e := Build(c)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		qid := collection.SetID(rng.Intn(c.NumSets()))
		toks, lenQ := queryFor(c, qid)
		for _, tau := range []float64{0.5, 0.7, 0.9, 1.0} {
			for _, lb := range []bool{true, false} {
				got, _ := selectAt(e, toks, lenQ, tau, lb)
				want := naive(c, c.Set(qid), tau)
				if len(got) != len(want) {
					t.Fatalf("q=%d τ=%g lb=%v: got %d matches, want %d",
						qid, tau, lb, len(got), len(want))
				}
				for _, m := range got {
					w, ok := want[m.ID]
					if !ok {
						t.Fatalf("q=%d τ=%g: unexpected match %d", qid, tau, m.ID)
					}
					if math.Abs(m.Score-w) > 1e-9 {
						t.Fatalf("q=%d τ=%g id=%d: score %g want %g",
							qid, tau, m.ID, m.Score, w)
					}
				}
			}
		}
	}
}

func TestSelectSelfMatch(t *testing.T) {
	c := buildCorpus(t, 200, 3)
	e := Build(c)
	toks, lenQ := queryFor(c, 7)
	got, _ := selectAt(e, toks, lenQ, 1.0, true)
	found := false
	for _, m := range got {
		if m.ID == 7 {
			found = true
			if math.Abs(m.Score-1) > 1e-9 {
				t.Errorf("self score = %g", m.Score)
			}
		}
	}
	if !found {
		t.Error("exact match not returned at τ=1")
	}
}

func TestLengthBoundingPrunes(t *testing.T) {
	c := buildCorpus(t, 2000, 4)
	e := Build(c)
	toks, lenQ := queryFor(c, 11)
	_, withLB := selectAt(e, toks, lenQ, 0.8, true)
	_, withoutLB := selectAt(e, toks, lenQ, 0.8, false)
	if withoutLB.RowsScanned != withoutLB.RowsTotal {
		t.Errorf("NLB scan should read every gram row: %d != %d",
			withoutLB.RowsScanned, withoutLB.RowsTotal)
	}
	if withLB.RowsScanned >= withoutLB.RowsScanned {
		t.Errorf("length bounding did not prune: %d >= %d",
			withLB.RowsScanned, withoutLB.RowsScanned)
	}
}

func TestUnknownGramScansNothing(t *testing.T) {
	c := buildCorpus(t, 100, 5)
	e := Build(c)
	toks := []QueryToken{{Gram: tokenize.Token(c.NumTokens() + 99), IDFSq: 4}}
	got, stats := selectAt(e, toks, 2.0, 0.5, true)
	if len(got) != 0 || stats.RowsScanned != 0 {
		t.Errorf("unknown gram produced matches=%d scanned=%d", len(got), stats.RowsScanned)
	}
}

func TestEmptyQuery(t *testing.T) {
	c := buildCorpus(t, 50, 6)
	e := Build(c)
	if got, _ := selectAt(e, nil, 0, 0.5, true); got != nil {
		t.Errorf("empty query returned %v", got)
	}
}

func TestSizesAccounting(t *testing.T) {
	c := buildCorpus(t, 300, 7)
	e := Build(c)
	z := e.Sizes()
	if z.BaseTable <= 0 || z.QGramTable <= 0 || z.BTree <= 0 {
		t.Errorf("sizes not populated: %+v", z)
	}
	// The paper's Fig. 5: q-gram table + B-tree dwarf the base table.
	if z.QGramTable+z.BTree <= z.BaseTable {
		t.Errorf("gram table (%d) + btree (%d) should exceed base table (%d)",
			z.QGramTable, z.BTree, z.BaseTable)
	}
	if e.Rows() != func() int {
		n := 0
		for tok := 0; tok < c.NumTokens(); tok++ {
			n += c.DF(tokenize.Token(tok))
		}
		return n
	}() {
		t.Errorf("Rows() mismatch with Σ df")
	}
}

func BenchmarkSelect(b *testing.B) {
	c := buildCorpus(b, 3000, 8)
	e := Build(c)
	toks, lenQ := queryFor(c, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		selectAt(e, toks, lenQ, 0.8, true)
	}
}

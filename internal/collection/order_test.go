package collection

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tokenize"
)

// lengthOrderRef is the comparator sort SetsByLength replaced: ids by
// (length, id) ascending.
func lengthOrderRef(lens []float64) []SetID {
	order := make([]SetID, len(lens))
	for i := range order {
		order[i] = SetID(i)
	}
	slices.SortFunc(order, func(a, b SetID) int {
		if la, lb := lens[a], lens[b]; la < lb {
			return -1
		} else if la > lb {
			return 1
		}
		return cmp.Compare(a, b)
	})
	return order
}

// TestSetsByLengthMatchesComparator holds the radix order to the
// comparator sort on the shapes where the two could part: no set and
// one set, every length equal (no pass runs), a few lengths each shared
// by many sets (the passes must keep ties in id order), lengths one ulp
// apart (only the lowest digit tells them apart), lengths spanning many
// binades, and the lengths of built collections, BuildWithStats's
// global-statistics lengths included.
func TestSetsByLengthMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := map[string][]float64{"none": nil, "one": {2.5}}
	equal := make([]float64, 300)
	for i := range equal {
		equal[i] = 3.75
	}
	shapes["all equal"] = equal
	few := make([]float64, 2000)
	values := []float64{1.5, 2.25, 7, 0.125, 2.2500000000000004}
	for i := range few {
		few[i] = values[rng.Intn(len(values))]
	}
	shapes["heavy ties"] = few
	ulp := make([]float64, 1000)
	for i := range ulp {
		ulp[i] = 4
		for range rng.Intn(4) {
			ulp[i] = math.Nextafter(ulp[i], math.Inf(1))
		}
	}
	shapes["one ulp apart"] = ulp
	wide := make([]float64, 3000)
	for i := range wide {
		wide[i] = math.Ldexp(1+rng.Float64(), rng.Intn(200)-100)
	}
	shapes["many binades"] = wide

	docs := make([]string, 1500)
	for i := range docs {
		s := make([]byte, 2+rng.Intn(4))
		for j := range s {
			s[j] = 'a' + byte(rng.Intn(3))
		}
		docs[i] = string(s)
	}
	builder := func() *Builder {
		b := NewBuilder(tokenize.QGramTokenizer{Q: 2}, false)
		for _, s := range docs {
			b.Add(s)
		}
		return b
	}
	built := builder().Build()
	stats := builder().BuildWithStats(100000, func(tok string) int { return 1 + int(tok[0])%7 })

	for name, lens := range shapes {
		if got, want := byLength(lens), lengthOrderRef(lens); !slices.Equal(got, want) {
			t.Errorf("%s: radix order differs from the comparator's", name)
		}
	}
	for name, c := range map[string]*Collection{"Build": built, "BuildWithStats": stats} {
		got, want := c.SetsByLength(), lengthOrderRef(c.lens)
		if !slices.Equal(got, want) || len(got) != cap(got) {
			t.Errorf("%s: radix order differs from the comparator's", name)
		}
		if ties := len(c.lens) - len(distinct(c.lens)); ties < len(c.lens)/2 {
			t.Fatalf("%s: %d of %d lengths tie, too few to test the tie order", name, ties, len(c.lens))
		}
	}
}

func distinct(lens []float64) map[float64]bool {
	m := map[float64]bool{}
	for _, l := range lens {
		m[l] = true
	}
	return m
}

// BenchmarkSetsByLength orders 40 000 q-gram sets of name-like words, the
// size of a durable-serve store's one segment.
func BenchmarkSetsByLength(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	bd := NewBuilder(tokenize.QGramTokenizer{Q: 3}, false)
	syl := []string{"an", "ber", "co", "da", "el", "fi", "gor", "ha", "in", "jo", "ka", "lu", "mi", "nor", "os", "pe"}
	for range 40000 {
		w := ""
		for k := 2 + rng.Intn(4); k > 0; k-- {
			w += syl[int(rng.ExpFloat64()*4)%len(syl)]
		}
		bd.Add(w)
	}
	c := bd.Build()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		c.SetsByLength()
	}
}

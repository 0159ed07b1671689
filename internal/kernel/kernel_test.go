package kernel

import (
	"math/rand"
	"testing"

	"repro/internal/tokenize"
)

// buildSet packs ids (must be ascending) into a Set.
func buildSet(ids []uint64) Set {
	var b SetBuilder
	for _, id := range ids {
		b.Add(id)
	}
	return b.Build()
}

// refIntersect is the scalar reference: a map-based intersection,
// returned ascending (both inputs are ascending and distinct).
func refIntersect(a, b []uint64) []uint64 {
	in := make(map[uint64]bool, len(a))
	for _, id := range a {
		in[id] = true
	}
	var out []uint64
	for _, id := range b {
		if in[id] {
			out = append(out, id)
		}
	}
	return out
}

func sameIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// span generates ascending ids: count ids spread over [start, start+spread).
func span(start, spread uint64, count int, r *rand.Rand) []uint64 {
	if count == 0 {
		return nil
	}
	seen := make(map[uint64]bool, count)
	for len(seen) < count {
		seen[start+r.Uint64()%spread] = true
	}
	out := make([]uint64, 0, count)
	for id := range seen {
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func TestSetLayouts(t *testing.T) {
	// Tight ids → dense directory; scattered ids → sparse keys.
	dense := buildSet([]uint64{0, 1, 63, 64, 130, 200, 255})
	if !dense.Dense() {
		t.Errorf("tight id range chose sparse layout")
	}
	sparse := buildSet([]uint64{0, 1 << 20, 1 << 30, 1 << 40})
	if sparse.Dense() {
		t.Errorf("scattered id range chose dense layout")
	}
}

func TestSetContains(t *testing.T) {
	cases := [][]uint64{
		nil,                               // empty
		{42},                              // single element
		{0, 1, 2, 3, 63, 64, 65},          // block boundaries, dense
		{7, 1 << 16, 1 << 32, 1<<40 + 63}, // scattered, sparse
	}
	for _, ids := range cases {
		s := buildSet(ids)
		if s.Len() != len(ids) {
			t.Errorf("Len = %d, want %d", s.Len(), len(ids))
		}
		member := make(map[uint64]bool, len(ids))
		for _, id := range ids {
			member[id] = true
			if !s.Contains(id) {
				t.Errorf("Contains(%d) = false for member", id)
			}
		}
		// Probe around every member and a band below the smallest.
		for _, id := range ids {
			for d := uint64(1); d <= 130; d += 13 {
				if p := id + d; !member[p] && s.Contains(p) {
					t.Errorf("Contains(%d) = true for non-member", p)
				}
				if p := id - d; p < id && !member[p] && s.Contains(p) {
					t.Errorf("Contains(%d) = true for non-member", p)
				}
			}
		}
	}
}

func TestSetBuilderRejectsRegression(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("out-of-order Add did not panic")
		}
	}()
	var b SetBuilder
	b.Add(100)
	b.Add(99)
}

// TestIntersectEdgeCases covers the galloping edge cases the issue
// names: empty, single-element, all-overlap, disjoint ranges, and a
// partial final word.
func TestIntersectEdgeCases(t *testing.T) {
	all := func(lo, hi uint64) []uint64 {
		out := make([]uint64, 0, hi-lo)
		for id := lo; id < hi; id++ {
			out = append(out, id)
		}
		return out
	}
	cases := []struct {
		name string
		a, b []uint64
	}{
		{"both-empty", nil, nil},
		{"one-empty", nil, []uint64{1, 2, 3}},
		{"single-hit", []uint64{77}, []uint64{1, 77, 1 << 30}},
		{"single-miss", []uint64{78}, []uint64{1, 77, 1 << 30}},
		{"all-overlap", all(100, 300), all(100, 300)},
		{"disjoint-ranges", all(0, 200), all(1<<20, 1<<20+200)},
		{"interleaved-blocks", []uint64{0, 128, 256}, []uint64{64, 192, 320}},
		// 70 ids ending mid-word: the final block holds 6 bits only.
		{"final-block-partial-word", all(0, 70), all(64, 70)},
		// Skewed enough to engage galloping (ratio ≥ gallopRatio), with
		// scattered blocks so both sets stay sparse.
		{"gallop-skew", []uint64{1 << 10, 1 << 20, 1 << 30},
			span(0, 1<<32, 4096, rand.New(rand.NewSource(1)))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sa, sb := buildSet(tc.a), buildSet(tc.b)
			want := refIntersect(tc.a, tc.b)
			for _, got := range [][]uint64{Intersect(nil, &sa, &sb), Intersect(nil, &sb, &sa)} {
				if !sameIDs(got, want) {
					t.Errorf("Intersect = %v, want %v", got, want)
				}
			}
		})
	}
}

func TestIntersectRandomLayoutPairs(t *testing.T) {
	// Cross dense×dense, dense×sparse and sparse×sparse with varying
	// skew; compare against the scalar reference each time.
	r := rand.New(rand.NewSource(7))
	shapes := []struct {
		spread uint64
		count  int
	}{
		{1 << 10, 400},  // dense
		{1 << 24, 400},  // sparse
		{1 << 10, 30},   // dense, small
		{1 << 28, 3000}, // sparse, large (gallop target)
	}
	for ai, as := range shapes {
		for bi, bs := range shapes {
			a := span(0, as.spread, as.count, r)
			b := span(as.spread/2, bs.spread, bs.count, r)
			sa, sb := buildSet(a), buildSet(b)
			want := refIntersect(a, b)
			if got := Intersect(nil, &sa, &sb); !sameIDs(got, want) {
				t.Errorf("shapes %d×%d: got %d ids, want %d", ai, bi, len(got), len(want))
			}
		}
	}
}

func TestGallopKeys(t *testing.T) {
	keys := []uint64{2, 5, 5, 9, 100, 1000}
	for _, tc := range []struct {
		from int
		key  uint64
		want int
	}{
		{0, 0, 0}, {0, 2, 0}, {0, 3, 1}, {0, 5, 1}, {0, 6, 3},
		{2, 5, 2}, {0, 9, 3}, {0, 10, 4}, {0, 1000, 5}, {0, 1001, 6},
		{5, 1001, 6}, {6, 7, 6},
	} {
		if got := gallopKeys(keys, tc.from, tc.key); got != tc.want {
			t.Errorf("gallopKeys(from=%d, key=%d) = %d, want %d", tc.from, tc.key, got, tc.want)
		}
	}
}

func TestMask(t *testing.T) {
	for _, n := range []int{1, 3, 64, 65, 128, 200} {
		m := Mask{Hi: make([]uint64, HiWords(n))}
		ref := make([]bool, n)
		r := rand.New(rand.NewSource(int64(n)))
		for t := 0; t < n; t++ {
			i := r.Intn(n)
			m.Set(i)
			ref[i] = true
		}
		for i := 0; i < n; i++ {
			if m.Has(i) != ref[i] {
				t.Fatalf("n=%d: Has(%d) = %v, want %v", n, i, m.Has(i), ref[i])
			}
		}
		// NextClear from every origin must agree with the scalar scan.
		for from := 0; from <= n; from++ {
			want := -1
			for i := from; i < n; i++ {
				if !ref[i] {
					want = i
					break
				}
			}
			if got := m.NextClear(from, n); got != want {
				t.Fatalf("n=%d: NextClear(%d) = %d, want %d", n, from, got, want)
			}
		}
	}
}

func TestUpperAbsentMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 7, 64, 65, 130} {
		w := make([]float64, n)
		for i := range w {
			w[i] = r.Float64()
		}
		for trial := 0; trial < 50; trial++ {
			seen := Mask{Hi: make([]uint64, HiWords(n))}
			active := Mask{Hi: make([]uint64, HiWords(n))}
			seenRef := make([]bool, n)
			activeRef := make([]bool, n)
			for i := 0; i < n; i++ {
				if r.Intn(2) == 0 {
					seen.Set(i)
					seenRef[i] = true
				}
				if r.Intn(4) != 0 {
					active.Set(i)
					activeRef[i] = true
				}
			}
			base := r.Float64()
			// The scalar loop UpperAbsent replaces (nra.go): bitwise
			// equality is the contract, so compare with ==.
			upper := base
			complete := true
			for i := 0; i < n; i++ {
				if seenRef[i] {
					continue
				}
				if activeRef[i] {
					upper += w[i]
					complete = false
				}
			}
			gotUpper, gotComplete := UpperAbsent(base, &seen, &active, w)
			if gotUpper != upper || gotComplete != complete {
				t.Fatalf("n=%d: UpperAbsent = (%v, %v), scalar = (%v, %v)",
					n, gotUpper, gotComplete, upper, complete)
			}
		}
	}
}

func TestDotCountsMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		// Queries past 64 tokens, as for the match kernel.
		nd, nq := r.Intn(400), r.Intn(12)
		if trial%4 == 0 {
			nq = 60 + r.Intn(90)
		}
		doc := make([]tokenize.Count, 0, nd)
		tok := tokenize.Token(0)
		for i := 0; i < nd; i++ {
			tok += tokenize.Token(1 + r.Intn(5))
			doc = append(doc, tokenize.Count{Token: tok, TF: 1})
		}
		qt := make([]tokenize.Token, 0, nq)
		qw := make([]float64, 0, nq)
		tok = 0
		for i := 0; i < nq; i++ {
			tok += tokenize.Token(1 + r.Intn(120))
			qt = append(qt, tok)
			qw = append(qw, r.Float64())
		}
		var want float64
		j := 0
		for _, c := range doc {
			for j < len(qt) && qt[j] < c.Token {
				j++
			}
			if j < len(qt) && qt[j] == c.Token {
				want += qw[j]
			}
		}
		if got := DotCounts(doc, qt, qw); got != want {
			t.Fatalf("trial %d: DotCounts = %v, want %v", trial, got, want)
		}
	}
}

// TestMatchCountsMarksPositions checks the match kernel, MatchTokens,
// against a scalar merge on both of its paths (sorted merge, galloping
// seek), for queries inside one mask word and past it: exactly the
// positions at[j] of the query tokens the document holds are set.
func TestMatchCountsMarksPositions(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		nd, nq := r.Intn(400), r.Intn(12)
		if trial%3 == 0 {
			nq = 60 + r.Intn(90)
		}
		doc := make([]tokenize.Token, 0, nd)
		tok := tokenize.Token(0)
		for i := 0; i < nd; i++ {
			tok += tokenize.Token(1 + r.Intn(5))
			doc = append(doc, tok)
		}
		qt := make([]tokenize.Token, 0, nq)
		tok = 0
		for i := 0; i < nq; i++ {
			tok += tokenize.Token(1 + r.Intn(8))
			qt = append(qt, tok)
		}
		at := r.Perm(nq)
		m := Mask{Hi: make([]uint64, HiWords(nq))}
		MatchTokens(doc, qt, at, &m)
		in := map[tokenize.Token]bool{}
		for _, d := range doc {
			in[d] = true
		}
		for j, tk := range qt {
			if m.Has(at[j]) != in[tk] {
				t.Fatalf("trial %d: token %d (position %d) marked %v, in document %v", trial, tk, at[j], m.Has(at[j]), in[tk])
			}
		}
	}
}

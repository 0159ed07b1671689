package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/invlist"
	"repro/internal/kernel"
	"repro/internal/tokenize"
)

// TestMassiveLengthTies builds a corpus where huge numbers of sets share
// identical normalized lengths (permutations of the same token pool), so
// the (len, id) tie-breaking in Order Preservation, skip seeks and the
// SF/Hybrid stop rules is exercised hard.
func TestMassiveLengthTies(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	b := collection.NewBuilder(tokenize.WordTokenizer{}, false)
	vocab := []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"}
	seen := map[string]bool{}
	// Every 3-subset of an 8-word vocabulary: tokens appear in many sets,
	// and sets built from same-df tokens share lengths exactly.
	for i := 0; i < len(vocab); i++ {
		for j := i + 1; j < len(vocab); j++ {
			for k := j + 1; k < len(vocab); k++ {
				s := vocab[i] + " " + vocab[j] + " " + vocab[k]
				if !seen[s] {
					seen[s] = true
					b.Add(s)
				}
			}
		}
	}
	e := NewEngine(b.Build(), Config{})
	for trial := 0; trial < 30; trial++ {
		qid := collection.SetID(rng.Intn(e.c.NumSets()))
		q := e.PrepareCounts(e.c.Set(qid))
		for _, tau := range []float64{0.3, 0.5, 0.67, 1.0} {
			want, _, err := e.Select(q, tau, Naive, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range Algorithms() {
				got, _, err := e.Select(q, tau, alg, nil)
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				assertBitwise(t, fmt.Sprintf("%v τ=%g", alg, tau), got, want)
			}
		}
	}
}

// TestWideQueries exercises queries with more than 64 distinct tokens so
// the candidates' multi-word list masks are covered: random 2-gram
// queries, and one word query built so that every candidate is admitted
// with lists past the first 64 already ruled out. iNRA's and Hybrid's
// reads and admissions, summed over the queries, are pinned as well, and
// each of their queries, rerun on a scratch whose arena never grows,
// must leave exactly the admitted candidates' overflow words in it: a
// rejected posting carves none.
func TestWideQueries(t *testing.T) {
	work := map[Algorithm][2]int{}
	check := func(e *Engine, q Query) {
		t.Helper()
		for _, tau := range []float64{0.5, 0.8} {
			want, _, err := e.Select(q, tau, Naive, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range Algorithms() {
				got, st, err := e.Select(q, tau, alg, nil)
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				assertBitwise(t, fmt.Sprintf("%v τ=%g", alg, tau), got, want)
				if alg != INRA && alg != Hybrid {
					continue
				}
				w := work[alg]
				work[alg] = [2]int{w[0] + st.ElementsRead, w[1] + st.CandidatesInserted}

				p, err := selectPlan(q, tau, alg, nil)
				if err != nil {
					t.Fatal(err)
				}
				s := &queryScratch{arena: make([]uint64, 0, 1<<16)}
				var rst Stats
				if _, err := e.runAlg(s, &canceller{ctx: context.Background()}, q, &p, &rst, nil); err != nil {
					t.Fatal(err)
				}
				if rst.ElementsRead != st.ElementsRead || rst.CandidatesInserted != st.CandidatesInserted {
					t.Errorf("%v τ=%g: rerun read %d and admitted %d, Select %d and %d",
						alg, tau, rst.ElementsRead, rst.CandidatesInserted, st.ElementsRead, st.CandidatesInserted)
				}
				if words := kernel.HiWords(len(q.Tokens)); len(s.arena) != words*st.CandidatesInserted {
					t.Errorf("%v τ=%g over %d lists: arena holds %d words, want %d for each of %d admitted candidates",
						alg, tau, len(q.Tokens), len(s.arena), words, st.CandidatesInserted)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(72))
	b := collection.NewBuilder(tokenize.QGramTokenizer{Q: 2}, true)
	for i := 0; i < 400; i++ {
		ln := 40 + rng.Intn(60) // long strings: 2-grams give 40-100 tokens
		var sb strings.Builder
		for j := 0; j < ln; j++ {
			sb.WriteByte(byte('a' + rng.Intn(12)))
		}
		b.Add(sb.String())
	}
	e := NewEngine(b.Build(), Config{})
	for trial := 0; trial < 8; trial++ {
		qid := collection.SetID(rng.Intn(e.c.NumSets()))
		if q := e.PrepareCounts(e.c.Set(qid)); len(q.Tokens) > 64 {
			check(e, q)
		}
	}

	// The query is 64 rare words and 6 common ones, which sort last. The
	// common words fill 200 short documents below the length window, and
	// inside it they occur only in the query document. The rare words also
	// share 20 near copies of it, each missing two of them, which are
	// shorter and so come first in every list. A rare list's near copy is
	// thus admitted while every common list's frontier is the query
	// document, already past it: lists 64–69 are ruled out at admission.
	var rare []string
	for i := 0; i < 64; i++ {
		rare = append(rare, fmt.Sprintf("r%d", i))
	}
	common := "c0 c1 c2 c3 c4 c5"
	wb := collection.NewBuilder(tokenize.WordTokenizer{}, true)
	for i := 0; i < 200; i++ {
		wb.Add(fmt.Sprintf("%s f%d", common, i))
	}
	for i := 0; i < 20; i++ {
		var words []string
		for k, w := range rare {
			if k != i && k != (7*i+3)%64 {
				words = append(words, w)
			}
		}
		wb.Add(strings.Join(words, " "))
	}
	query := strings.Join(rare, " ") + " " + common
	wb.Add(query)
	we := NewEngine(wb.Build(), Config{})
	if q := we.Prepare(query); len(q.Tokens) != 70 {
		t.Fatalf("word query has %d tokens, want 70", len(q.Tokens))
	} else {
		check(we, q)
	}

	// The answers alone need not notice admission bookkeeping that goes
	// wrong past the first 64 lists, only the work does. The reads are
	// those of dense lists finished by bit tests when the gate shuts.
	if want := [2]int{21180, 743}; work[INRA] != want {
		t.Errorf("iNRA summed {read, inserted} = %v, want %v", work[INRA], want)
	}
	if want := [2]int{21154, 743}; work[Hybrid] != want {
		t.Errorf("Hybrid summed {read, inserted} = %v, want %v", work[Hybrid], want)
	}
}

// TestFileStoreBackedEngine runs the full algorithm lineup on the
// disk-resident list format, which must answer as the in-memory engine.
func TestFileStoreBackedEngine(t *testing.T) { slice(t, "uniform", 17, opSelect, nil, listed) }

// TestListFileDetectsEveryFlip flips one bit at a time across a whole
// list file — every byte of the package header and footer, every 61st
// byte between — and requires each mutant to be refused: OpenFile fails,
// or a selection that reads the damaged block (SF, or SortByID, which
// reads every posting of the query's lists) returns an error wrapping
// invlist.ErrCorrupt. A selection that does succeed must return the
// MemStore engine's answer; nothing may panic. Every record of the file
// is read by open or by these selections: a record nothing reads would
// let its flips go undetected.
func TestListFileDetectsEveryFlip(t *testing.T) {
	e := engineFromDocs(randomDocs(300, 75, 7), Config{SkipInterval: 8})
	c := e.Collection()
	dir := t.TempDir()
	path := filepath.Join(dir, "lists.bin")
	if err := invlist.WriteFile(path, c, 8); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	q := e.PrepareCounts(c.Set(17))
	const tau = 0.3
	want, _, err := e.Select(q, tau, Naive, nil)
	if err != nil || len(want) < 2 {
		t.Fatalf("reference selection: %d results, err %v", len(want), err)
	}
	mutant := filepath.Join(dir, "mutant.bin")
	for at := 0; at < len(valid); at++ {
		if at >= 16 && at < len(valid)-24 && at%61 != 0 {
			continue
		}
		bad := append([]byte(nil), valid...)
		bad[at] ^= 1 << (at % 8)
		if err := os.WriteFile(mutant, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := invlist.OpenFile(mutant)
		if err != nil {
			if !errors.Is(err, invlist.ErrCorrupt) {
				t.Fatalf("flip at byte %d: OpenFile error %v does not wrap ErrCorrupt", at, err)
			}
			continue
		}
		disk := NewEngine(c, Config{Store: fs})
		detected := false
		for _, alg := range []Algorithm{SF, SortByID} {
			got, _, err := disk.Select(q, tau, alg, nil)
			switch {
			case errors.Is(err, invlist.ErrCorrupt):
				detected = true
			case err != nil:
				t.Fatalf("flip at byte %d: %v error %v does not wrap ErrCorrupt", at, alg, err)
			default:
				assertBitwise(t, fmt.Sprintf("%v τ=%g", alg, tau), got, want)
			}
		}
		fs.Close()
		if !detected {
			t.Fatalf("flip at byte %d of %d went undetected", at, len(valid))
		}
	}
}

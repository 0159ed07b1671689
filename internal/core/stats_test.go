package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/collection"
)

// TestPruningOrdering checks the paper's qualitative claims about element
// accesses (§V–§VIII): sort-by-id reads everything; the improved
// algorithms read far less than their classic counterparts; and Hybrid
// reads no more than either iNRA or SF (Lemma 4) up to the one-round
// granularity of round-robin processing. Lemma 4 is a statement about the
// paper's SF, which reads every posting up to maxLen(C); the default SF
// seeks past µᵢ instead (completeSF), so the paper's SF is the one under
// NoSkipIndex and Hybrid is held against that, while the default is held
// against the paper's.
func TestPruningOrdering(t *testing.T) {
	// Skip interval sized to this corpus's short lists, as the default
	// interval is tuned for paper-scale lists.
	e := engineFromDocs(randomDocs(3000, 5, 8), Config{SkipInterval: 8})
	rng := rand.New(rand.NewSource(6))
	var sumSortByID, sumNRA, sumINRA, sumSF, sumPaperSF, sumHybrid, sumPaperHybrid int
	queries := 0
	paper := &Options{NoSkipIndex: true}
	for trial := 0; trial < 15; trial++ {
		qid := collection.SetID(rng.Intn(e.c.NumSets()))
		q := e.PrepareCounts(e.c.Set(qid))
		tau := 0.8

		read := func(alg Algorithm, o *Options) int {
			_, st, err := e.Select(q, tau, alg, o)
			if err != nil {
				t.Fatal(err)
			}
			if alg == SortByID && st.ElementsRead != st.ListTotal {
				t.Errorf("sort-by-id read %d of %d", st.ElementsRead, st.ListTotal)
			}
			return st.ElementsRead
		}
		queries++
		sumSortByID += read(SortByID, nil)
		sumNRA += read(NRA, nil)
		sumINRA += read(INRA, nil)
		sumSF += read(SF, nil)
		sumHybrid += read(Hybrid, nil)
		// Without the skip index both also read their way to τ·len(q),
		// so the two are compared on equal terms.
		sumPaperSF += read(SF, paper)
		sumPaperHybrid += read(Hybrid, paper)
	}
	// Aggregate claims (robust against per-query noise). Lemma 4's
	// per-instance "Hybrid ≤ SF" holds under the paper's idealized
	// accounting; a faithful round-robin spends reads before absences
	// become resolvable, so we assert the orderings the paper's own
	// measurements (Figs. 6–7) support: improved ≪ classic, SF the
	// cheapest, Hybrid at or below iNRA.
	if sumINRA >= sumNRA {
		t.Errorf("iNRA total reads %d not below NRA %d", sumINRA, sumNRA)
	}
	if sumSF >= sumSortByID*2/3 {
		t.Errorf("SF total reads %d not well below sort-by-id %d", sumSF, sumSortByID)
	}
	if sumSF >= sumNRA*2/3 {
		t.Errorf("SF total reads %d not well below NRA %d", sumSF, sumNRA)
	}
	if sumHybrid > sumINRA {
		t.Errorf("Hybrid total reads %d above iNRA %d", sumHybrid, sumINRA)
	}
	if sumPaperHybrid > sumPaperSF*3/2 {
		t.Errorf("Hybrid total reads %d far above the paper's SF %d (both without the skip index)", sumPaperHybrid, sumPaperSF)
	}
	if sumSF > sumPaperSF {
		t.Errorf("seeking SF total reads %d above the paper's SF %d", sumSF, sumPaperSF)
	}
	t.Logf("reads over %d queries: sort-by-id=%d nra=%d inra=%d sf=%d hybrid=%d; without the skip index sf=%d hybrid=%d",
		queries, sumSortByID, sumNRA, sumINRA, sumSF, sumHybrid, sumPaperSF, sumPaperHybrid)
}

// TestEventDrivenAccessPattern pins the access pattern of iNRA and Hybrid
// — postings read, rounds, candidates admitted — over the
// TestPruningOrdering queries. Both run one round-robin loop: admission is
// a slab append while F ≥ τ, one sweep freezes the candidate set when the
// gate shuts, and per-list merge pointers take over from there, so each
// query makes at most one candidate sweep. Under NoSkipIndex, the paper's
// access pattern, iNRA's counts are the sweeping implementation's
// (recorded at c0a3741, with the opening seek read as a walk). By default
// three things change the reads and rounds. When the gate shuts, a list
// with a membership bitmap settles every live candidate left in it with
// one bit test and is finished (completeDense; the default rows were
// re-pinned for it). From then on every other list seeks to its next live
// candidate instead of reading up to it (seekCandidate). And the opening
// SeekLen searches its landing block instead of walking it. Admission is untouched by all three, so the admissions are the same in
// either mode. Hybrid's rows were re-pinned when it took iNRA's loop: its
// pause bound until the sweep is the longest candidate admitted, not the
// longest live one, which reads more at τ = 0.8 but never lets a
// candidate die and be readmitted while the gate is open.
func TestEventDrivenAccessPattern(t *testing.T) {
	e := engineFromDocs(randomDocs(3000, 5, 8), Config{SkipInterval: 8})
	type sums struct{ read, rounds, inserted int }
	recorded := map[bool]map[float64]map[Algorithm]sums{
		false: {
			0.5: {INRA: {5451, 584, 2313}, Hybrid: {5424, 587, 2263}},
			0.8: {INRA: {3615, 331, 556}, Hybrid: {3582, 344, 502}},
		},
		true: {
			0.5: {INRA: {5557, 618, 2313}, Hybrid: {5513, 626, 2263}},
			0.8: {INRA: {4498, 342, 556}, Hybrid: {4416, 356, 502}},
		},
	}
	for _, paper := range []bool{false, true} {
		for _, tau := range []float64{0.5, 0.8} {
			rng := rand.New(rand.NewSource(6))
			got := map[Algorithm]sums{}
			for trial := 0; trial < 15; trial++ {
				qid := collection.SetID(rng.Intn(e.c.NumSets()))
				q := e.PrepareCounts(e.c.Set(qid))
				for alg, maxScans := range map[Algorithm]int{INRA: 1, Hybrid: 1} {
					_, st, err := e.Select(q, tau, alg, &Options{NoSkipIndex: paper})
					if err != nil {
						t.Fatal(err)
					}
					if st.CandidateScans > maxScans {
						t.Errorf("%v τ=%g query %d: %d candidate scans, want at most %d", alg, tau, qid, st.CandidateScans, maxScans)
					}
					s := got[alg]
					s.read += st.ElementsRead
					s.rounds += st.Rounds
					s.inserted += st.CandidatesInserted
					got[alg] = s
				}
			}
			for alg, want := range recorded[paper][tau] {
				if got[alg] != want {
					t.Errorf("%v τ=%g NoSkipIndex=%v: {read rounds inserted} = %v, want %v", alg, tau, paper, got[alg], want)
				}
			}
		}
	}
}

// TestSFAccessPattern pins Shortest-First's access pattern — postings
// read and skipped, candidates admitted, candidate scans — over the
// TestPruningOrdering queries, for selection and top-k, with and without
// the skip index. How C is stored and merged must not move any of these
// counts: they fix which postings are read and which candidates are
// admitted. A membership test on length alone,
// instead of the id under the merge pointer, misattributes length ties
// and changes the admissions here. Past µᵢ the skip-index runs complete
// dense lists by bit tests, which read and skip nothing; NoSkipIndex
// completes every list by reading.
func TestSFAccessPattern(t *testing.T) {
	e := engineFromDocs(randomDocs(3000, 5, 8), Config{SkipInterval: 8})
	type sums struct{ read, skipped, inserted, scans int }
	recorded := map[bool]map[string]sums{
		false: {
			"τ=0.5": {4394, 764, 2462, 134}, "τ=0.8": {2298, 1696, 708, 134},
			"k=1": {3659, 991, 2449, 134}, "k=10": {5588, 227, 3754, 134},
		},
		true: {
			"τ=0.5": {4967, 0, 2462, 134}, "τ=0.8": {3601, 0, 708, 134},
			"k=1": {4628, 0, 2449, 134}, "k=10": {5863, 0, 3754, 134},
		},
	}
	for _, paper := range []bool{false, true} {
		o := &Options{NoSkipIndex: paper}
		got := map[string]sums{}
		add := func(key string, st Stats, err error) {
			if err != nil {
				t.Fatal(err)
			}
			s := got[key]
			s.read += st.ElementsRead
			s.skipped += st.ElementsSkipped
			s.inserted += st.CandidatesInserted
			s.scans += st.CandidateScans
			got[key] = s
		}
		rng := rand.New(rand.NewSource(6))
		for trial := 0; trial < 15; trial++ {
			qid := collection.SetID(rng.Intn(e.c.NumSets()))
			q := e.PrepareCounts(e.c.Set(qid))
			for _, tau := range []float64{0.5, 0.8} {
				_, st, err := e.Select(q, tau, SF, o)
				add(fmt.Sprintf("τ=%g", tau), st, err)
			}
			for _, k := range []int{1, 10} {
				_, st, err := e.SelectTopK(q, k, SF, o)
				add(fmt.Sprintf("k=%d", k), st, err)
			}
		}
		for key, want := range recorded[paper] {
			if got[key] != want {
				t.Errorf("SF %s NoSkipIndex=%v: {read skipped inserted scans} = %v, want %v", key, paper, got[key], want)
			}
		}
	}
}

// TestLengthBoundingEffect mirrors Fig. 8: disabling Theorem 1 must
// increase elements read for the improved algorithms.
func TestLengthBoundingEffect(t *testing.T) {
	e := engineFromDocs(randomDocs(3000, 15, 8), Config{SkipInterval: 8})
	rng := rand.New(rand.NewSource(16))
	var with, without int
	for trial := 0; trial < 10; trial++ {
		qid := collection.SetID(rng.Intn(e.c.NumSets()))
		q := e.PrepareCounts(e.c.Set(qid))
		for _, alg := range []Algorithm{INRA, SF, Hybrid, ITA} {
			_, st1, err := e.Select(q, 0.8, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, st2, err := e.Select(q, 0.8, alg, &Options{NoLengthBound: true})
			if err != nil {
				t.Fatal(err)
			}
			with += st1.ElementsRead
			without += st2.ElementsRead
		}
	}
	if with >= without {
		t.Errorf("length bounding did not reduce reads: %d vs %d", with, without)
	}
	t.Logf("reads with LB=%d, without=%d (%.1fx)", with, without, float64(without)/float64(with))
}

// TestSkipIndexEffect mirrors Fig. 9: without the skip index the initial
// seek is performed by sequential reads, so ElementsRead grows while
// ElementsSkipped drops to zero.
func TestSkipIndexEffect(t *testing.T) {
	// A dense skip index relative to these short test lists, so the
	// initial seek actually jumps.
	e := engineFromDocs(randomDocs(3000, 17, 8), Config{SkipInterval: 4})
	rng := rand.New(rand.NewSource(18))
	var withReads, withoutReads, skips int
	for trial := 0; trial < 10; trial++ {
		qid := collection.SetID(rng.Intn(e.c.NumSets()))
		q := e.PrepareCounts(e.c.Set(qid))
		for _, alg := range []Algorithm{INRA, SF, Hybrid} {
			_, st1, err := e.Select(q, 0.8, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, st2, err := e.Select(q, 0.8, alg, &Options{NoSkipIndex: true})
			if err != nil {
				t.Fatal(err)
			}
			withReads += st1.ElementsRead
			withoutReads += st2.ElementsRead
			skips += st1.ElementsSkipped
			if st2.ElementsSkipped != 0 {
				t.Errorf("%v NSL skipped %d elements", alg, st2.ElementsSkipped)
			}
		}
	}
	if skips == 0 {
		t.Error("skip index never skipped anything")
	}
	if withReads >= withoutReads {
		t.Errorf("skip index did not reduce reads: %d vs %d", withReads, withoutReads)
	}
}

// TestReadsAndSkipsWithinListTotal pins the accounting contract: a
// posting is read or skipped at most once, however often a search
// compares it, so the two counters never add up to more than the lists
// hold. SF's completion seeks are the case that can get this wrong — a
// gallop and the searches after it compare some postings several times —
// but the bound is every algorithm's.
func TestReadsAndSkipsWithinListTotal(t *testing.T) {
	e := engineFromDocs(randomDocs(3000, 5, 8), Config{SkipInterval: 8})
	rng := rand.New(rand.NewSource(6))
	check := func(what string, st Stats, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if st.ElementsSkipped < 0 || st.ElementsRead+st.ElementsSkipped > st.ListTotal {
			t.Errorf("%s: read %d + skipped %d of %d postings", what, st.ElementsRead, st.ElementsSkipped, st.ListTotal)
		}
	}
	for trial := 0; trial < 15; trial++ {
		qid := collection.SetID(rng.Intn(e.c.NumSets()))
		q := e.PrepareCounts(e.c.Set(qid))
		for _, alg := range Algorithms() {
			for _, tau := range []float64{0.5, 0.7, 0.8, 0.95} {
				_, st, err := e.Select(q, tau, alg, nil)
				check(fmt.Sprintf("%v τ=%g query %d", alg, tau, qid), st, err)
			}
		}
		for _, k := range []int{1, 5, 50} {
			_, st, err := e.SelectTopK(q, k, SF, nil)
			check(fmt.Sprintf("sf top-%d query %d", k, qid), st, err)
		}
	}
	// A live engine adds the memtable, whose lists hold memtable
	// positions, and tombstones in both the segments and the memtable.
	corpus := randomDocs(2000, 7, 8)
	for _, shards := range []int{1, 2} {
		le := BuildLive(corpus[:1500], liveTestTK, LiveConfig{
			Config: Config{SkipInterval: 8}, NoBackground: true, Shards: shards,
		})
		for _, s := range corpus[1500:] {
			if _, err := le.Insert(s); err != nil {
				t.Fatal(err)
			}
		}
		for id := collection.SetID(0); id < 2000; id += 9 {
			le.Delete(id)
		}
		if st := le.Stats(); st.Segments == 0 || st.Memtable == 0 || st.Tombstones == 0 {
			t.Fatalf("shards=%d: live store lacks segments, memtable or tombstones: %+v", shards, st)
		}
		for trial := 0; trial < 8; trial++ {
			s := corpus[rng.Intn(len(corpus))]
			lq := le.Prepare(s)
			for _, alg := range Algorithms() {
				for _, tau := range []float64{0.5, 0.8} {
					_, st, err := le.Select(lq, tau, alg, nil)
					check(fmt.Sprintf("live shards=%d %v τ=%g query %q", shards, alg, tau, s), st, err)
				}
			}
			for _, alg := range []Algorithm{Naive, SF} {
				for _, k := range []int{1, 5, 50} {
					_, st, err := le.SelectTopK(lq, k, alg, nil)
					check(fmt.Sprintf("live shards=%d %v top-%d query %q", shards, alg, k, s), st, err)
				}
			}
		}
		le.Close()
	}
}

// TestTAProbes checks that the TA family performs random accesses and the
// NRA family does not, and that iTA probes no more than TA.
func TestTAProbes(t *testing.T) {
	e := engineFromDocs(randomDocs(1500, 19, 7), Config{})
	q := e.PrepareCounts(e.c.Set(3))
	_, stTA, err := e.Select(q, 0.8, TA, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, stITA, err := e.Select(q, 0.8, ITA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stTA.RandomProbes == 0 {
		t.Error("TA performed no random probes")
	}
	if stITA.RandomProbes > stTA.RandomProbes {
		t.Errorf("iTA probed more than TA: %d > %d", stITA.RandomProbes, stTA.RandomProbes)
	}
	for _, alg := range []Algorithm{SortByID, NRA, INRA, SF, Hybrid} {
		_, st, err := e.Select(q, 0.8, alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.RandomProbes != 0 {
			t.Errorf("%v performed %d random probes", alg, st.RandomProbes)
		}
	}
}

// TestHighThresholdPruning: at τ=0.9 the improved algorithms should prune
// the vast majority of list elements (the paper reports ≈95%).
func TestHighThresholdPruning(t *testing.T) {
	e := engineFromDocs(randomDocs(5000, 21, 9), Config{SkipInterval: 8})
	rng := rand.New(rand.NewSource(22))
	for _, alg := range []Algorithm{INRA, SF, Hybrid} {
		var read, total int
		for trial := 0; trial < 10; trial++ {
			qid := collection.SetID(rng.Intn(e.c.NumSets()))
			q := e.PrepareCounts(e.c.Set(qid))
			_, st, err := e.Select(q, 0.9, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			read += st.ElementsRead
			total += st.ListTotal
		}
		pruned := 100 * (1 - float64(read)/float64(total))
		if pruned < 60 {
			t.Errorf("%v pruned only %.1f%% at τ=0.9", alg, pruned)
		}
		t.Logf("%v pruning at τ=0.9: %.1f%%", alg, pruned)
	}
}

func TestStatsPruningPower(t *testing.T) {
	s := Stats{ElementsRead: 25, ListTotal: 100}
	if got := s.PruningPower(); got != 75 {
		t.Errorf("PruningPower = %g, want 75", got)
	}
	if got := (Stats{}).PruningPower(); got != 0 {
		t.Errorf("empty PruningPower = %g", got)
	}
	if got := (Stats{ElementsRead: 5, ListTotal: 4}).PruningPower(); got != 0 {
		t.Errorf("overshoot PruningPower = %g, want clamped 0", got)
	}
}

func TestAlgorithmString(t *testing.T) {
	if SF.String() != "sf" || Hybrid.String() != "hybrid" {
		t.Error("algorithm names wrong")
	}
	if Algorithm(42).String() == "" {
		t.Error("unknown algorithm name empty")
	}
	// Negative values used to index algorithmNames directly and panic.
	if got := Algorithm(-1).String(); got != "algorithm(-1)" {
		t.Errorf("Algorithm(-1).String() = %q", got)
	}
	if len(Algorithms()) != 8 {
		t.Errorf("Algorithms() = %d entries", len(Algorithms()))
	}
}

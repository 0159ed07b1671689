package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/invlist"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/tokenize"
)

// Tests of the event-driven Order Preservation mechanism shared by iNRA
// and Hybrid: the (len, id) candidate order, its per-list merge pointers,
// and Hybrid's pause/resume rule that reads maxLen(C) off its end.

// tapStore wraps a Store and logs every weight-list read, so a test can
// see the access pattern itself: which list was read when, and which
// posting it yielded. Its cursors are not MemStore cursors, so they also
// drive the algorithms down the Cursor-interface path of listState.
type tapStore struct {
	invlist.Store
	reads []tapRead
}

type tapRead struct {
	tok tokenize.Token
	p   invlist.Posting
}

type tapCursor struct {
	invlist.Cursor
	tok tokenize.Token
	st  *tapStore
}

func (ts *tapStore) WeightCursor(t tokenize.Token) invlist.Cursor {
	return &tapCursor{Cursor: ts.Store.WeightCursor(t), tok: t, st: ts}
}

func (tc *tapCursor) Next() {
	tc.st.reads = append(tc.st.reads, tapRead{tc.tok, tc.Posting()})
	tc.Cursor.Next()
}

// TestHybridResumesPausedList pins the resume half of Hybrid's stopping
// rule. The query is {a, b} with a rare and b common. List b's cutoff µ
// lies below the length window, so b reads only while a live candidate is
// at least as long as its frontier: it completes the first candidate,
// then sits paused at a long posting while list a yields candidates that
// are complete at birth. List a's last posting is X = "a b u", longer
// than b's frontier and a result only with b's contribution (0.65 with
// it, 0.56 without, τ = 0.6); admitting it pushes maxLen(C) past the
// paused frontier, and b must resume and read up to X. Without the resume
// X would never be completed.
func TestHybridResumesPausedList(t *testing.T) {
	docs := []string{
		"a", "a m", "a n", "a m n", "a m", // list a before X: short, absent from b
		"a b u",              // X
		"b m",                // b's one posting below the pause point
		"b m n o", "b n o p", // b's postings between the pause point and X
		"b u v", "b u w", // beyond X: b pauses again, not exhausted
	}
	for i := 0; i < 30; i++ {
		docs = append(docs, "b") // makes b common; below the length window
	}
	for i := 0; i < 8; i++ {
		docs = append(docs, "m", "n") // medium-idf filler tokens
	}
	docs = append(docs, "o", "o", "o", "p", "p", "p")
	b := collection.NewBuilder(tokenize.WordTokenizer{}, true)
	for _, d := range docs {
		b.Add(d)
	}
	c := b.Build()
	tap := &tapStore{Store: invlist.BuildMem(c, 4)}
	e := NewEngine(c, Config{Store: tap})
	const tau, x = 0.6, collection.SetID(5)
	q := e.Prepare("a b")
	if len(q.Tokens) != 2 || e.c.Source(x) != "a b u" {
		t.Fatalf("corpus layout changed: %d query tokens, set %d = %q", len(q.Tokens), x, e.c.Source(x))
	}
	tokA, tokB := q.Tokens[0].Token, q.Tokens[1].Token // idf-descending: a first

	want, _, err := e.Select(q, tau, Naive, nil)
	if err != nil {
		t.Fatal(err)
	}
	tap.reads = tap.reads[:0]
	got, st, err := e.Select(q, tau, Hybrid, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, fmt.Sprintf("%v τ=%g", Hybrid, tau), got, want)
	var pattern strings.Builder
	readsOf := map[collection.SetID]int{}
	for _, r := range tap.reads {
		switch r.tok {
		case tokA:
			pattern.WriteByte('a')
		case tokB:
			pattern.WriteByte('b')
		}
		readsOf[r.p.ID]++
	}
	// Round-robin reads a and b alternately while both are active. "aa"
	// is a round b sat out although it had postings left; a later "b" is
	// the resume.
	pat := pattern.String()
	paused := strings.Index(pat, "aa")
	if paused < 0 || !strings.Contains(pat[paused:], "b") {
		t.Errorf("access pattern %q shows no pause and resume of list b", pat)
	}
	if readsOf[x] != 2 {
		t.Errorf("X was read from %d lists, want both", readsOf[x])
	}
	// The resumed list stops again right after X: "b n o p" is inside the
	// length window but longer than any candidate.
	if past := collection.SetID(8); e.c.Source(past) != "b n o p" || readsOf[past] != 0 {
		t.Errorf("list b read %q past X (%d times): it never paused again", e.c.Source(past), readsOf[past])
	}
	t.Logf("access pattern %s, rounds %d", pat, st.Rounds)
}

// orderDriver replays the candidate bookkeeping of roundRobin under a
// test-chosen pop schedule. While the gate is open it admits by slab
// append and reranks the popped list, as the algorithms do; freeze then
// shuts the gate the way they do, and from there on every pop is followed
// by the list's pass and the order's invariants are checked after every
// event.
type orderDriver struct {
	t      *testing.T
	e      *Engine
	s      *queryScratch
	q      Query
	tau    float64
	hi     float64
	lists  []listState
	out    []Result
	frozen bool
	passed []bool // list j has had a pass since the freeze
	// how often each situation the mechanism must survive came up
	outOfOrder, doneWhilePending int
}

// pop advances list i by one posting, or retires it, exactly as a round
// of roundRobin does for one list that is not paused.
func (d *orderDriver) pop(i int) {
	s, l := d.s, &d.lists[i]
	p, ok := l.frontier()
	if ok {
		l.next()
	}
	if !ok || p.Len > d.hi {
		l.finish()
	} else if slot := s.tbl.get(p.ID); slot >= 0 && !s.imp[slot].dead {
		s.imp[slot].resolveSeen(i, l.idfSq, l.w(d.q.Len, p.Len))
	} else if !d.frozen {
		n := len(s.imp)
		if admit(s, d.lists, i, p, d.q, d.tau) >= 0 && n > 0 &&
			!beforeOrAt(invlist.Posting{ID: s.imp[n-1].id, Len: s.imp[n-1].len}, p.Len, p.ID) {
			d.outOfOrder++
		}
	}
	if !d.frozen {
		s.rerank(d.lists, i)
		return
	}
	// A pop that leaves nothing inside the window ends the list as far as
	// the candidates are concerned (one left past the window is finished
	// on its next visit).
	if np, more := l.frontier(); !more || np.Len > d.hi {
		for _, slot := range s.ord {
			if c := &s.imp[slot]; !c.dead && !c.resolved.Has(i) {
				d.doneWhilePending++
				break
			}
		}
	}
	var live bool
	d.out, live = d.e.passCandidates(s, nil, d.lists, i, d.q, d.tau, d.out)
	if !live {
		d.t.Fatal("passCandidates reported cancellation without a canceller")
	}
	d.passed[i] = true
	d.check(fmt.Sprintf("after pop of list %d (%v)", i, p))
	s.maxLiveLen()
	d.check(fmt.Sprintf("after maxLiveLen following list %d", i))
}

// freeze shuts the admission gate with roundRobin's sweep: it settles
// every candidate off the head order, and the survivors are sorted into
// the order with every pointer at 0.
func (d *orderDriver) freeze() {
	d.frozen = true
	d.passed = make([]bool, len(d.lists))
	var live bool
	if d.out, live = d.e.sweep(d.s, nil, d.lists, d.q, d.tau, d.out); !live {
		d.t.Fatal("sweep reported cancellation without a canceller")
	}
	d.check("after the freeze")
}

// check asserts the invariants the algorithms rely on once the gate has
// shut.
func (d *orderDriver) check(when string) {
	d.t.Helper()
	s := d.s
	for k := 1; k < len(s.ord); k++ {
		a, b := &s.imp[s.ord[k-1]], &s.imp[s.ord[k]]
		if a.len > b.len || (a.len == b.len && a.id > b.id) {
			d.t.Fatalf("%s: order broken at %d: (%g,%d) before (%g,%d)", when, k, a.len, a.id, b.len, b.id)
		}
	}
	for j := range d.lists {
		for k, slot := range s.ord {
			c := &s.imp[slot]
			passed := ruledOut(&d.lists[j], c.len, c.id)
			// Until its first pass a list's pointer stays at 0 behind
			// entries the sweep already resolved.
			if k < int(s.ptr[j]) && !passed || d.passed[j] && passed && k >= int(s.ptr[j]) {
				d.t.Fatalf("%s: list %d pointer %d, but entry %d (%g,%d) passed=%v", when, j, s.ptr[j], k, c.len, c.id, passed)
			}
			if passed && !c.dead && !c.resolved.Has(j) {
				d.t.Fatalf("%s: live candidate %d passed by list %d but unresolved there", when, c.id, j)
			}
		}
	}
	for _, slot := range s.ord {
		if c := &s.imp[slot]; !c.dead && c.nResolved == len(d.lists) {
			d.t.Fatalf("%s: complete candidate %d left unsettled", when, c.id)
		}
	}
}

// TestCandidateOrderUnderRandomSchedules drives the shared mechanism with
// pop schedules no round-robin produces — one list racing ahead, the gate
// shutting after a random prefix, lists retired by the length window or
// by exhaustion while candidates wait on them — over tie-heavy corpora,
// and demands the oracle's answer once every list is done. The counters
// prove the named situations occurred: candidates admitted out of
// (len, id) order across lists, and a list going done while candidates
// are pending in it. No candidate dies while admission is open, so a dead
// id can no longer resurface and be readmitted.
func TestCandidateOrderUnderRandomSchedules(t *testing.T) {
	var outOfOrder, doneWhilePending int
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := engineFromDocs(randomDocs(150+rng.Intn(250), seed*17+3, 2+rng.Intn(3)), Config{})
		q := e.PrepareCounts(e.c.Set(collection.SetID(rng.Intn(e.c.NumSets()))))
		tau := 0.3 + 0.6*rng.Float64()
		opts := &Options{NoLengthBound: seed%3 == 0}
		lo, hi := lengthWindow(q, tau, opts)
		s := &queryScratch{}
		d := &orderDriver{t: t, e: e, s: s, q: q, tau: tau, hi: hi}
		d.lists = e.openLists(s, nil, q, lo, opts, &Stats{})
		sortQueryTokens(s, q)
		s.tbl.reset()
		s.resetOrder(len(d.lists))
		s.rankLists(d.lists)
		// Bursts: a list pops several postings in a row before another
		// gets its turn.
		open := 0
		for i := range d.lists {
			if !d.lists[i].ended() {
				open++
			}
		}
		gate := rng.Intn(60)
		for open > 0 {
			i := rng.Intn(len(d.lists))
			for burst := 1 + rng.Intn(6); burst > 0 && !d.lists[i].ended(); burst-- {
				// Past the prefix the gate shuts once F < τ, and not
				// before: a set that has surfaced nowhere yet could still
				// qualify.
				if gate--; gate < 0 && !d.frozen && !sim.Meets(frontierBound(d.lists, q.Len, hi), tau) {
					d.freeze()
				}
				d.pop(i)
				if d.lists[i].ended() {
					open--
				}
			}
		}
		if !d.frozen {
			d.freeze()
		}
		if m := s.maxLiveLen(); m >= 0 {
			t.Fatalf("seed %d: every list done, yet a candidate of length %g is still live", seed, m)
		}
		want, _, err := e.Select(q, tau, Naive, nil)
		if err != nil {
			t.Fatal(err)
		}
		sortResults(d.out)
		assertBitwise(t, fmt.Sprintf("%v τ=%g", Hybrid, tau), d.out, want)
		outOfOrder += d.outOfOrder
		doneWhilePending += d.doneWhilePending
	}
	if outOfOrder == 0 || doneWhilePending == 0 {
		t.Errorf("schedules never produced a situation: out-of-order admissions %d, done-while-pending %d",
			outOfOrder, doneWhilePending)
	}
	t.Logf("out-of-order admissions %d, lists done while candidates pending %d", outOfOrder, doneWhilePending)
}

// TestListRankInvariant drives the head order of the round-robin loop
// (rankLists, rerank) and the two readers of it (admit, and the gate's
// sweep through resolvePassed) through random pop and finish sequences
// over 1 to 130 lists whose postings share a few (len, id) positions —
// twelve sets over three lengths, so heads tie across lists all the time
// and most sets tie on length. After every step the order must be sorted
// by head with hat its inverse, and every prefix sum must equal the sum
// of its lists' idf² in list order within rankSlack. After every pop,
// before the rerank, openRank must place exactly the lists that have
// passed the popped posting from its first head past it on, and its
// bound must be their complement's exact sum within rankSlack, so the
// filter rejects what the exact test misses by more. admit of the posting
// must then give the verdict
// of admitRef, the pass over every list's frontier, at thresholds on the
// exact bound's edge and 1 % past it, and an admitted candidate must
// carry its state bit for bit: mask words, resolved count, idf² mass. The
// idf² values span six decades, so a sum in another order than ascending
// list order shows in the low bits. After every rerank, resolvePassed at
// random positions, with random lists already resolved and masses that
// sometimes run out, must leave each candidate bit for bit as
// resolveAbsences does.
func TestListRankInvariant(t *testing.T) {
	var steps, admitted, swept, equalHeads int
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		setLen := make([]float64, 12)
		for id := range setLen {
			setLen[id] = []float64{1.5, 2, 2.25}[rng.Intn(3)]
		}
		n := 1 + rng.Intn(130)
		lists := make([]listState, n)
		for j := range lists {
			var ids invlist.PostingIDs
			for id := range setLen {
				if rng.Intn(3) > 0 {
					ids = append(ids, uint32(id))
				}
			}
			slices.SortFunc(ids, func(a, b uint32) int {
				return cmp.Or(cmp.Compare(setLen[a], setLen[b]), cmp.Compare(a, b))
			})
			lens := make(invlist.PostingLens, len(ids))
			for k, id := range ids {
				lens[k] = setLen[id]
			}
			lists[j] = listState{ids: ids, lens: lens, idfSq: math.Ldexp(1+rng.Float64(), rng.Intn(20))}
			lists[j].setPos(0)
		}
		q := Query{Len: 1 + 3*rng.Float64()}
		s := &queryScratch{}
		s.tbl.reset()
		s.rankLists(lists)
		check := func(when string) {
			t.Helper()
			for k, j := range s.hord {
				if s.hat[j] != int32(k) {
					t.Fatalf("seed %d %s: hat[%d] = %d, but hord[%d] = %d", seed, when, j, s.hat[j], k, j)
				}
				if k > 0 && headBefore(lists[j].head, lists[s.hord[k-1]].head) {
					t.Fatalf("seed %d %s: head order broken at %d", seed, when, k)
				}
			}
			in := make([]bool, n)
			for k := 0; k <= n; k++ {
				var exact float64
				for j := range lists {
					if in[j] {
						exact += lists[j].idfSq
					}
				}
				if got := s.hsum[k]; got > exact*rankSlack || exact > got*rankSlack {
					t.Fatalf("seed %d %s: prefix sum %d is %g, its lists sum to %g", seed, when, k, got, exact)
				}
				if k < n {
					in[s.hord[k]] = true
				}
			}
			s.suffixMasks()
			for range 4 {
				id := collection.SetID(rng.Intn(len(setLen) + 1))
				c := impCand{id: id, len: []float64{1.5, 2, 2.25}[rng.Intn(3)], resolved: s.newCandMask(n)}
				if int(id) < len(setLen) && rng.Intn(4) > 0 {
					c.len = setLen[id]
				}
				var rem float64
				for j := range lists {
					if rng.Intn(3) == 0 {
						c.resolved.Set(j)
						c.nResolved++
					} else {
						rem += lists[j].idfSq
					}
				}
				c.remIdfSq = rem * (0.5 + rng.Float64())
				want := c
				want.resolved.Hi = slices.Clone(c.resolved.Hi)
				resolveAbsences(&want, lists)
				s.resolvePassed(&c, lists)
				if !sameImpCand(&c, &want) {
					t.Fatalf("seed %d %s: resolvePassed at (%g, %d) left %+v, resolveAbsences %+v", seed, when, c.len, c.id, c, want)
				}
				swept++
			}
		}
		check("at the start")
		for open := n; open > 0; {
			j := rng.Intn(n)
			l := &lists[j]
			if l.ended() {
				continue
			}
			p := l.head
			if rng.Intn(8) == 0 {
				l.finish() // the length window's end
			} else {
				l.next()
			}
			for i := range lists {
				if i != j && lists[i].head == p {
					equalHeads++
					break
				}
			}
			_, ref := admitRef(lists, j, p, q.Len, 0)
			rank, e := s.openRank(lists, j, p)
			for r := range lists {
				if r != j && (int(s.hat[r]) >= e) != ruledOut(&lists[r], p.Len, p.ID) {
					t.Fatalf("seed %d: list %d's posting %v: list %d at rank %d, first head past it at %d, but ruledOut = %v",
						seed, j, p, r, s.hat[r], e, ruledOut(&lists[r], p.Len, p.ID))
				}
			}
			if exact := ref.remIdfSq; rank > exact*rankSlack || exact > rank*rankSlack {
				t.Fatalf("seed %d: list %d's posting %v: rank bound %g, its open lists sum to %g", seed, j, p, rank, exact)
			}
			bound := ref.lower + ref.remIdfSq/(q.Len*p.Len)
			edge := bound + sim.ScoreEpsilon + rescoreSlack
			for _, tau := range []float64{bound, edge, math.Nextafter(edge, 0), math.Nextafter(edge, math.Inf(1)), bound*1.01 + sim.ScoreEpsilon + rescoreSlack} {
				s.imp, s.arena = s.imp[:0], s.arena[:0]
				s.tbl.reset()
				ok, want := admitRef(lists, j, p, q.Len, tau)
				slot := admit(s, lists, j, p, q, tau)
				if ok != (slot >= 0) {
					t.Fatalf("seed %d: list %d's posting %v at τ = %v: admit's verdict %v, the pass over every list's %v", seed, j, p, tau, slot >= 0, ok)
				}
				if !ok {
					continue
				}
				admitted++
				if got := &s.imp[slot]; !sameImpCand(got, &want) || got.id != p.ID || got.len != p.Len || got.lower != want.lower {
					t.Fatalf("seed %d: list %d's posting %v at τ = %v: admit's candidate %+v, the pass over every list's %+v", seed, j, p, tau, *got, want)
				}
			}
			steps++
			s.rerank(lists, j)
			if l.ended() {
				open--
			}
			check(fmt.Sprintf("after list %d moved to %v", j, l.head))
		}
	}
	if admitted == 0 || equalHeads == 0 {
		t.Errorf("schedules never produced a situation: admissions %d, pops onto an equal head %d", admitted, equalHeads)
	}
	t.Logf("%d pops checked, %d admissions, %d pops onto an equal head, %d positions swept", steps, admitted, equalHeads, swept)
}

// sameImpCand reports whether a and b carry the same resolution state bit
// for bit: mask words, resolved count and remaining idf² mass.
func sameImpCand(a, b *impCand) bool {
	return a.resolved.Lo == b.resolved.Lo && slices.Equal(a.resolved.Hi, b.resolved.Hi) &&
		a.nResolved == b.nResolved && math.Float64bits(a.remIdfSq) == math.Float64bits(b.remIdfSq)
}

// admitRef is admit's exact test as a pass over every list: each list
// other than j is tested for Order Preservation against p on its own
// frontier, and the open lists' idf² is summed in ascending list order.
// It reports the verdict at τ and the state the candidate is admitted
// with.
func admitRef(lists []listState, j int, p invlist.Posting, lenQ, tau float64) (bool, impCand) {
	c := impCand{id: p.ID, len: p.Len, lower: lists[j].w(lenQ, p.Len), nResolved: 1}
	if words := kernel.HiWords(len(lists)); words > 0 {
		c.resolved.Hi = make([]uint64, words)
	}
	c.resolved.Set(j)
	for r := range lists {
		if r == j {
			continue
		}
		if ruledOut(&lists[r], p.Len, p.ID) {
			c.resolved.Set(r)
			c.nResolved++
			continue
		}
		c.remIdfSq += lists[r].idfSq
	}
	return meetsPre(c.lower+c.remIdfSq/(lenQ*p.Len), tau), c
}

// resolveAbsences is resolvePassed as a pass over c's unresolved lists:
// each whose frontier has passed (c.len, c.id) is marked resolved-absent,
// in ascending list order.
func resolveAbsences(c *impCand, lists []listState) {
	n := len(lists)
	for j := c.resolved.NextClear(0, n); j >= 0; j = c.resolved.NextClear(j+1, n) {
		if ruledOut(&lists[j], c.len, c.id) {
			c.resolveAbsent(j, lists[j].idfSq)
		}
	}
}

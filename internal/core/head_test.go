package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/collection"
	"repro/internal/invlist"
)

// TestListHeadTracksCursor pins listState's frontier field. head is the
// next unread posting of the list's cursor or raw slice, every move
// reloads it, and it is endOfList exactly when the list has ended. Random
// sequences of openLists / next / seekTo / finish run over MemStore,
// FileStore and live-segment lists, with and without NoSkipIndex, and
// after every step each list's frontier is held against what its cursor
// or raw slice reports and against a model position in the full list.
// A finished list must stay ended, whatever the other lists do, although
// its cursor still has postings; the algorithms never move one again.
// Some seeks run under a cancelled context: a cursor's SeekLen has moved
// by the time the walk after it polls, and head must follow it there too.
func TestListHeadTracksCursor(t *testing.T) {
	// Repeated documents make runs of equal lengths, which a cursor's seek
	// walks after its SeekLen.
	docs := randomDocs(300, 2901, 5)
	docs = append(docs, docs[:100]...)
	c := collectionOf(liveTestTK, docs)

	path := filepath.Join(t.TempDir(), "lists.ssidx")
	if err := invlist.WriteFile(path, c, 8); err != nil {
		t.Fatal(err)
	}
	fs, err := invlist.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	le := NewLive(liveTestTK, LiveConfig{NoBackground: true, FlushThreshold: 16, DriftBound: 1e9, MaxSegments: 1 << 20})
	defer le.Close()
	for i, s := range docs[:300] {
		if _, err := le.Insert(s); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if i == 139 || i == 219 || i == 279 {
			le.compactOnce(false)
		}
	}
	var seg *liveSegment
	for _, sh := range le.snap.Load().shards {
		for _, g := range sh.segs {
			if seg == nil || len(g.ids) > len(seg.ids) {
				seg = g
			}
		}
	}
	if seg == nil {
		t.Fatal("live scenario not established: no segment")
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(2903))
	var cancelledMoves, finishes, exhaustions int
	for _, tc := range []struct {
		name string
		e    *Engine
	}{{"mem", NewEngine(c, Config{})}, {"file", NewEngine(c, Config{Store: fs})}, {"live-segment", seg.eng}} {
		for _, noSkip := range []bool{false, true} {
			name := fmt.Sprintf("%s/NoSkipIndex=%v", tc.name, noSkip)
			s := &queryScratch{}
			for qi := 0; qi < 40; qi++ {
				q := tc.e.PrepareCounts(tc.e.c.Set(collection.SetID(rng.Intn(tc.e.c.NumSets()))))
				opts := &Options{NoSkipIndex: noSkip}
				lo, _ := lengthWindow(q, 0.3+0.6*rng.Float64(), opts)
				lists := tc.e.openLists(s, nil, q, lo, opts, &Stats{})
				h := headModel{t: t, lists: lists, at: make([]int, len(lists)), finished: make([]bool, len(lists))}
				for i, qt := range q.Tokens {
					var all []invlist.Posting
					for cur := tc.e.store.WeightCursor(qt.Token); cur.Valid(); cur.Next() {
						all = append(all, cur.Posting())
					}
					h.all = append(h.all, all)
					for h.at[i] < len(all) && all[h.at[i]].Len < lo {
						h.at[i]++
					}
				}
				h.check(fmt.Sprintf("%s query %d: openLists", name, qi))
				for step := 0; step < 80; step++ {
					i := rng.Intn(len(lists))
					l, all := &lists[i], h.all[i]
					if l.ended() {
						continue
					}
					var op string
					switch r := rng.Intn(20); {
					case r < 10:
						op = "next"
						l.next()
						h.at[i]++
					case r < 19:
						// A target at or after the frontier, at a set's own
						// length as the algorithms' are: a posting ahead, a
						// set the list may lack, or past the end of the list.
						k := h.at[i] + rng.Intn(len(all)-h.at[i]+1)
						setLen, id := math.MaxFloat64, collection.SetID(tc.e.c.NumSets())
						if k < len(all) {
							setLen, id = all[k].Len, all[k].ID
						}
						if x := collection.SetID(rng.Intn(tc.e.c.NumSets())); rng.Intn(2) == 0 && beforeOrAt(l.head, tc.e.c.Length(x), x) {
							setLen, id = tc.e.c.Length(x), x
						}
						var cc *canceller
						if rng.Intn(4) == 0 {
							cc = &canceller{ctx: cancelled}
						}
						charged := l.pos
						op = fmt.Sprintf("seekTo(%g, %d, cancelled=%v)", setLen, id, cc != nil)
						if l.seekTo(cc, setLen, id, &charged, &Stats{}) {
							for h.at[i] < len(all) && precedes(all[h.at[i]], setLen, id) {
								h.at[i]++
							}
						} else if h.resync(i) {
							cancelledMoves++
						}
					default:
						op = "finish"
						l.finish()
						h.finished[i] = true
						finishes++
					}
					if l.ended() && !h.finished[i] {
						exhaustions++
					}
					h.check(fmt.Sprintf("%s query %d step %d: list %d %s", name, qi, step, i, op))
				}
			}
		}
	}
	if cancelledMoves == 0 || finishes == 0 || exhaustions == 0 {
		t.Errorf("schedules never produced a situation: cancelled seeks that moved %d, finishes %d, exhaustions %d",
			cancelledMoves, finishes, exhaustions)
	}
	t.Logf("cancelled seeks that moved %d, finishes %d, exhaustions %d", cancelledMoves, finishes, exhaustions)
}

// headModel is TestListHeadTracksCursor's reference: each list in full,
// the model index of its frontier, and the lists the test finished.
type headModel struct {
	t        *testing.T
	lists    []listState
	all      [][]invlist.Posting
	at       []int
	finished []bool
}

// resync moves list i's model index to wherever a cancelled seek left the
// list, which must be at or after the index, and reports whether it moved.
func (h *headModel) resync(i int) bool {
	p, ok := h.lists[i].frontier()
	from := h.at[i]
	for h.at[i] < len(h.all[i]) && (!ok || h.all[i][h.at[i]] != p) {
		h.at[i]++
	}
	if ok && h.at[i] == len(h.all[i]) {
		h.t.Fatalf("list %d: a cancelled seek left the frontier at %+v, not at or after model position %d", i, p, from)
	}
	return h.at[i] != from
}

// check asserts the head invariant on every list.
func (h *headModel) check(when string) {
	h.t.Helper()
	for j := range h.lists {
		l := &h.lists[j]
		p, ok := l.frontier()
		if ok == l.ended() || !ok && p != endOfList {
			h.t.Fatalf("%s: list %d frontier %+v ok=%v, ended()=%v", when, j, p, ok, l.ended())
		}
		if !ok && !ruledOut(l, 0, 0) || ok && ruledOut(l, p.Len, p.ID) {
			h.t.Fatalf("%s: list %d frontier %+v ok=%v, but Order Preservation disagrees", when, j, p, ok)
		}
		if h.finished[j] {
			if ok {
				h.t.Fatalf("%s: finished list %d came back at %+v", when, j, p)
			}
			continue
		}
		var under invlist.Posting
		var valid bool
		if l.ids != nil {
			if valid = l.pos < len(l.ids); valid {
				under = invlist.Posting{ID: collection.SetID(l.ids[l.pos]), Len: l.lens[l.pos]}
			}
		} else if valid = l.cur.Valid(); valid {
			under = l.cur.Posting()
		}
		if ok != valid || ok && p != under {
			h.t.Fatalf("%s: list %d frontier %+v ok=%v, its cursor %+v valid=%v", when, j, p, ok, under, valid)
		}
		if model := h.at[j] < len(h.all[j]); ok != model || ok && p != h.all[j][h.at[j]] {
			h.t.Fatalf("%s: list %d frontier %+v ok=%v, model position %d of %d", when, j, p, ok, h.at[j], len(h.all[j]))
		}
	}
}

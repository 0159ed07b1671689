package main

import (
	"fmt"
	"math"
	"time"

	"repro/setsim"
)

// tally counts operations attempted and failed. An operation fails when
// the library returns an error or when its answer differs from the
// oracle's; the first few failures are kept for the report.
type tally struct {
	attempted, failed int
	samples           []string
}

func (t *tally) ok() { t.attempted++ }
func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.samples) < 8 {
		t.samples = append(t.samples, fmt.Sprintf(format, args...))
	}
}

// oracleEvery is the stride of answer checks over the query slots of the
// first warm-up lap.
const oracleEvery = 16

// scoreSlack is the library's own tolerance between algorithms
// (sim.ScoreEpsilon): they add the same contributions in different
// orders, so scores agree to rounding, not bitwise.
const scoreSlack = 1e-9

// sameResults compares an answer with the oracle's. Results come ordered
// by score, ties by id, and two sets whose scores are equal in exact
// arithmetic can come out one rounding step apart and in either order
// depending on the algorithm ("sairdton" and "fairdton" against
// "hirdton": 0.71460635343583101 twice from SF, ...123 and ...112 from
// the scan). So the answers agree when they have the same length, the
// scores at each rank are within scoreSlack, and every id is in both with
// scores within scoreSlack. A top-k answer may also differ in which of
// the sets tied with its last rank it holds: there an id found on one
// side only must score within scoreSlack of the oracle's last.
func sameResults(got, want []setsim.Result, topk bool) bool {
	if len(got) != len(want) {
		return false
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= scoreSlack }
	ordered := true
	for i := range got {
		if !near(got[i].Score, want[i].Score) {
			return false
		}
		ordered = ordered && got[i].ID == want[i].ID
	}
	if ordered {
		return true
	}
	last := want[len(want)-1].Score
	scores := make(map[setsim.SetID]float64, len(want))
	for _, r := range want {
		scores[r.ID] = r.Score
	}
	for _, r := range got {
		if s, ok := scores[r.ID]; ok {
			if !near(r.Score, s) {
				return false
			}
			delete(scores, r.ID)
		} else if !topk || !near(r.Score, last) {
			return false
		}
	}
	for _, s := range scores {
		if !near(s, last) {
			return false
		}
	}
	return true
}

// checkSlot re-runs a query slot from one prepared query with the
// engine's algorithm and with the exhaustive scan, and compares. corrupt
// perturbs the expectation; only the oracle's own test sets it.
func checkSlot(tg target, s slot, tl *tally, corrupt bool) {
	if s.class == opBatch {
		got, want := tg.batch(int(s.arg), true)
		for i := range got {
			switch {
			case got[i].Err != nil || want[i].Err != nil:
				tl.fail("oracle batch %d query %d: %v / %v", s.arg, i, got[i].Err, want[i].Err)
			case !sameResults(got[i].Results, perturb(want[i].Results, corrupt), false):
				tl.fail("oracle batch %d query %d: answer differs from naive scan", s.arg, i)
			default:
				tl.ok()
			}
		}
		return
	}
	p := tg.prepare(int(s.arg))
	got, _, err := tg.run(s.class, p, false)
	want, _, werr := tg.run(s.class, p, true)
	switch {
	case err != nil || werr != nil:
		tl.fail("oracle %s query %d: %v / %v", s.class, s.arg, err, werr)
	case !sameResults(got, perturb(want, corrupt), s.class == opTopK):
		tl.fail("oracle %s query %d: %d results differ from naive scan's %d", s.class, s.arg, len(got), len(want))
	default:
		tl.ok()
	}
}

func perturb(want []setsim.Result, corrupt bool) []setsim.Result {
	if !corrupt {
		return want
	}
	return append([]setsim.Result{{ID: 1 << 40, Score: 0.5}}, want...)
}

// minMeasuredLaps is the fewest measured laps a run is planned with,
// however short it is asked to be.
const minMeasuredLaps = 3

// replayed is what one replay of a tape measured.
type replayed struct {
	lat      *laptimes
	lapTimes []time.Duration
	// byClass and live are the library's counters over the last lap; only
	// a traced replay collects them.
	byClass [numClasses]classCounts
	live    liveSamples
}

// replay runs the tape for laps laps with one closed-loop client: the
// next operation starts when the previous one returns. Each slot's
// latency is kept per lap. During the first lap every oracleEvery-th
// query slot is checked against the exhaustive scan, outside the timed
// interval. The lap count is the caller's and is always completed, so
// every run takes its minima over the same number of samples. A tape of
// two sections runs all laps of the first, compacts the store, and runs
// the second; a lap's time is then the sum over both.
//
// With a tracer every operation also records a root span with prepare /
// execute / verify children and the library's counters on the execute
// span; a slot's latency then includes what recording them costs.
func replay(w *workload, tg target, laps int, tr *tracer, tl *tally, corrupt bool) *replayed {
	tp := w.tape
	r := &replayed{lat: newLaptimes(len(tp.slots), laps), lapTimes: make([]time.Duration, laps)}
	lt, _ := tg.(*liveTarget)
	op := int32(0)
	for si, sec := range tp.sections() {
		if lt != nil && si > 0 {
			// Where flushes and compactions stand after the last write
			// lap is a race with the background worker, and a read pays
			// for every segment and memtable document it finds (a 62-
			// document memtable doubles a selection on a 2000-document
			// store). A full compaction is the one state every run can
			// reach.
			lt.le.Compact()
		}
		for lap := 0; lap < laps; lap++ {
			lapStart := time.Now()
			counted := tr != nil && lap == laps-1
			queries := 0
			for i := sec[0]; i < sec[1]; i++ {
				s := tp.slots[i]
				op++
				t0 := time.Now()
				root := tr.beginOp(op, s.class, i, lap)
				st, results, err := execSlot(tg, s, tr, root)
				r.lat.set(i, lap, time.Since(t0).Nanoseconds())
				if err != nil {
					tl.fail("lap %d slot %d %s: %v", lap, i, s.class, err)
				} else {
					tl.ok()
				}
				if lap == 0 && s.class < opInsert {
					if queries%oracleEvery == 0 {
						v := tr.begin("verify", root)
						checkSlot(tg, s, tl, corrupt)
						tr.end(v)
					}
					queries++
				}
				tr.end(root)
				if counted {
					r.byClass[s.class].add(st, results)
					if lt != nil && i%64 == 0 {
						r.live.add(lt.le.Stats())
					}
				}
			}
			// The writes are in the first section, or the only one.
			if lt != nil && si == 0 {
				lt.endLap()
			}
			r.lapTimes[lap] += time.Since(lapStart)
		}
	}
	return r
}

// execSlot performs one tape operation and reports the library's
// counters, the number of results and the library's error.
func execSlot(tg target, s slot, tr *tracer, root int32) (st setsim.Stats, results int, err error) {
	switch s.class {
	case opBatch:
		ex := tr.begin("execute", root)
		got, _ := tg.batch(int(s.arg), false)
		tr.end(ex)
		for i := range got {
			if got[i].Err != nil {
				err = got[i].Err
			}
			st.ElementsRead += got[i].Stats.ElementsRead
			results += len(got[i].Results)
		}
		tr.count(ex, "elems_read", float64(st.ElementsRead))
	case opInsert, opDelete:
		ex := tr.begin("execute", root)
		err = tg.write(s.class, int(s.arg))
		tr.end(ex)
	default:
		pr := tr.begin("prepare", root)
		p := tg.prepare(int(s.arg))
		tr.end(pr)
		ex := tr.begin("execute", root)
		var res []setsim.Result
		res, st, err = tg.run(s.class, p, false)
		tr.end(ex)
		results = len(res)
		if tr != nil {
			tr.count(ex, "elems_read", float64(st.ElementsRead))
			tr.count(ex, "elems_skipped", float64(st.ElementsSkipped))
			tr.count(ex, "list_total", float64(st.ListTotal))
			tr.count(ex, "candidates", float64(st.CandidatesInserted))
			tr.count(ex, "results", float64(results))
		}
	}
	return st, results, err
}

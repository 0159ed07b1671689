package main

import (
	"errors"
	"fmt"

	"repro/setsim"
)

// prepared is a query ready to execute: a Query on the static engines, a
// LiveQuery on the mutable one. Answer and oracle run from the same
// prepared value, so on a live engine both see the same pinned snapshot.
type prepared struct {
	q  setsim.Query
	lq setsim.LiveQuery
}

// target is the engine under test, reduced to what a tape slot needs.
type target interface {
	// prepare tokenizes and weighs query i of the tape. Static engines
	// do it once at set-up and return the stored value.
	prepare(i int) prepared
	// run executes one single-query class; oracle swaps the algorithm
	// for the exhaustive scan that defines the right answer.
	run(c opClass, p prepared, oracle bool) ([]setsim.Result, setsim.Stats, error)
	// batch runs batch b; with oracle it also returns the exhaustive
	// answers for the same prepared queries.
	batch(b int, oracle bool) (got, want []setsim.BatchResult)
	// write applies churn slot i: opInsert inserts churn[i], opDelete
	// removes the id churn[i] was given in the previous lap.
	write(c opClass, i int) error
	close()
}

func algOf(c opClass, oracle bool) setsim.Algorithm {
	if oracle {
		return setsim.Naive
	}
	switch c {
	case opHybrid:
		return setsim.Hybrid
	case opINRA:
		return setsim.INRA
	default:
		return setsim.SF
	}
}

// querier is the read surface *setsim.Engine and *setsim.ShardedEngine
// share.
type querier interface {
	Prepare(s string) setsim.Query
	Select(q setsim.Query, tau float64, alg setsim.Algorithm, opts *setsim.Options) ([]setsim.Result, setsim.Stats, error)
	SelectTopK(q setsim.Query, k int, alg setsim.Algorithm, opts *setsim.Options) ([]setsim.Result, setsim.Stats, error)
	SelectBatch(queries []setsim.Query, tau float64, alg setsim.Algorithm, opts *setsim.Options, workers int) []setsim.BatchResult
}

// staticTarget serves a tape from an immutable engine with every query
// prepared ahead of the run, the way the paper measures.
type staticTarget struct {
	eng     querier
	queries []setsim.Query
	batches [][]setsim.Query
	closer  func()
}

func newStaticTarget(eng querier, t *tape, closer func()) *staticTarget {
	st := &staticTarget{eng: eng, queries: make([]setsim.Query, len(t.queries)), closer: closer}
	for i, s := range t.queries {
		st.queries[i] = eng.Prepare(s)
	}
	for _, b := range t.batches {
		qs := make([]setsim.Query, len(b))
		for j, qi := range b {
			qs[j] = st.queries[qi]
		}
		st.batches = append(st.batches, qs)
	}
	return st
}

func (st *staticTarget) prepare(i int) prepared { return prepared{q: st.queries[i]} }

func (st *staticTarget) run(c opClass, p prepared, oracle bool) ([]setsim.Result, setsim.Stats, error) {
	if c == opTopK {
		return st.eng.SelectTopK(p.q, topK, algOf(c, oracle), nil)
	}
	return st.eng.Select(p.q, tau, algOf(c, oracle), nil)
}

func (st *staticTarget) batch(b int, oracle bool) (got, want []setsim.BatchResult) {
	got = st.eng.SelectBatch(st.batches[b], tau, setsim.SF, nil, batchWorkers)
	if oracle {
		want = st.eng.SelectBatch(st.batches[b], tau, setsim.Naive, nil, batchWorkers)
	}
	return got, want
}

func (st *staticTarget) write(c opClass, i int) error {
	return fmt.Errorf("%s slot on a static engine", c)
}

func (st *staticTarget) close() {
	if st.closer != nil {
		st.closer()
	}
}

// liveTarget serves a tape from a durable LiveEngine. Queries are
// prepared inside the operation, because a prepared LiveQuery pins a
// snapshot and would not see the writes interleaved with it.
type liveTarget struct {
	le *setsim.LiveEngine
	// path is the store's manifest.
	path    string
	queries []string
	batches [][]int32
	churn   []string
	// prev and cur are the ids of the churn strings as inserted in the
	// previous and the current lap.
	prev, cur []setsim.SetID
	lqs       []setsim.LiveQuery
}

func newLiveTarget(le *setsim.LiveEngine, path string, t *tape, tailIDs []setsim.SetID) *liveTarget {
	return &liveTarget{
		le: le, path: path, queries: t.queries, batches: t.batches, churn: t.churn,
		prev: append([]setsim.SetID(nil), tailIDs...),
		cur:  make([]setsim.SetID, len(tailIDs)),
		lqs:  make([]setsim.LiveQuery, batchSize),
	}
}

func (lt *liveTarget) prepare(i int) prepared { return prepared{lq: lt.le.Prepare(lt.queries[i])} }

func (lt *liveTarget) run(c opClass, p prepared, oracle bool) ([]setsim.Result, setsim.Stats, error) {
	if c == opTopK {
		return lt.le.SelectTopK(p.lq, topK, algOf(c, oracle), nil)
	}
	return lt.le.Select(p.lq, tau, algOf(c, oracle), nil)
}

func (lt *liveTarget) batch(b int, oracle bool) (got, want []setsim.BatchResult) {
	for j, qi := range lt.batches[b] {
		lt.lqs[j] = lt.le.Prepare(lt.queries[qi])
	}
	got = lt.le.SelectBatch(lt.lqs, tau, setsim.SF, nil, batchWorkers)
	if oracle {
		want = lt.le.SelectBatch(lt.lqs, tau, setsim.Naive, nil, batchWorkers)
	}
	return got, want
}

var errDeleteMissed = errors.New("delete of an id inserted in the previous lap reported false")

func (lt *liveTarget) write(c opClass, i int) error {
	if c == opInsert {
		id, err := lt.le.Insert(lt.churn[i])
		lt.cur[i] = id
		return err
	}
	if !lt.le.Delete(lt.prev[i]) {
		return errDeleteMissed
	}
	return nil
}

// endLap makes this lap's inserts the next lap's deletes.
func (lt *liveTarget) endLap() { lt.prev, lt.cur = lt.cur, lt.prev }

func (lt *liveTarget) close() { lt.le.Close() }

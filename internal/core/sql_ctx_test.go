package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/collection"
)

// errAfterCtx is a context whose Err() flips to context.Canceled after a
// fixed number of polls. The canceller polls ctx.Err() once per
// cancelInterval stop() calls, so after=k cancels a query
// deterministically mid-scan — roughly k·cancelInterval rows in —
// without timers or goroutine races.
type errAfterCtx struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *errAfterCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestSQLCancelMidRowScan cancels the relational baseline partway
// through its range scans: the plan must return ctx.Err() promptly,
// with no matches and only a bounded prefix of the full row volume
// scanned.
func TestSQLCancelMidRowScan(t *testing.T) {
	e := engineFromDocs(randomDocs(4000, 71, 4), Config{})
	q := longestQuery(e)

	// Reference run: the workload must dwarf the polling granularity
	// for the promptness assertion to mean anything. For SQL,
	// ElementsRead counts relational rows scanned.
	_, full, err := e.Select(q, 0.3, SQL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.ElementsRead < 4*cancelInterval {
		t.Fatalf("corpus too small for a meaningful test: %d rows", full.ElementsRead)
	}

	ctx := &errAfterCtx{Context: context.Background(), after: 2}
	res, st, err := e.SelectCtx(ctx, q, 0.3, SQL, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("returned %d results on cancellation", len(res))
	}
	// Cancellation landed on the third poll, so the plan saw at most a
	// few polling intervals of rows before abandoning the scans.
	if limit := 4 * cancelInterval; st.ElementsRead > limit {
		t.Fatalf("scanned %d rows after cancellation, want ≤ %d (full run: %d)",
			st.ElementsRead, limit, full.ElementsRead)
	}
	if st.Elapsed <= 0 {
		t.Fatal("Elapsed not stamped on cancelled query")
	}
}

// TestSQLPoolEquivalenceAfterCancel abandons the relational plan
// mid-scan repeatedly, at varying depths, then verifies the scratch pool
// is unpoisoned: subsequent queries on the same engine must match the
// fresh-allocation reference bitwise. A scratch leaked or returned dirty
// by the cancelled path would surface here as a mismatch.
func TestSQLPoolEquivalenceAfterCancel(t *testing.T) {
	e := engineFromDocs(randomDocs(4000, 71, 4), Config{})
	long := longestQuery(e)
	// The longest query scans well over 2·cancelInterval rows (asserted
	// in TestSQLCancelMidRowScan), so depths 0 and 1 both land mid-scan.
	for i := 0; i < 8; i++ {
		ctx := &errAfterCtx{Context: context.Background(), after: int64(i % 2)}
		if _, _, err := e.SelectCtx(ctx, long, 0.3, SQL, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run %d: err = %v, want context.Canceled", i, err)
		}
	}
	rng := rand.New(rand.NewSource(73))
	for qi := 0; qi < 40; qi++ {
		q := e.PrepareCounts(e.c.Set(collection.SetID(rng.Intn(e.c.NumSets()))))
		tau := 0.4 + 0.55*rng.Float64()
		got, _, err := e.Select(q, tau, SQL, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := freshReference(e, q, tau, SQL)
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, "SQL after cancellations", got, want)
	}
}

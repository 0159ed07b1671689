package core

import "testing"

func TestSelectBatchEmpty(t *testing.T) {
	e := engineFromDocs(randomDocs(50, 53, 6), Config{})
	if out := e.SelectBatch(nil, 0.8, SF, nil, 4); len(out) != 0 {
		t.Errorf("empty batch returned %d entries", len(out))
	}
}

func TestSelectBatchPropagatesErrors(t *testing.T) {
	e := engineFromDocs(randomDocs(50, 54, 6), Config{})
	queries := []Query{e.PrepareCounts(e.c.Set(0)), {}}
	out := e.SelectBatch(queries, 0.8, TA, nil, 2)
	if out[0].Err != nil {
		t.Errorf("entry 0 err = %v, want nil", out[0].Err)
	}
	if out[1].Err != ErrEmptyQuery {
		t.Errorf("entry 1 err = %v, want ErrEmptyQuery", out[1].Err)
	}
}

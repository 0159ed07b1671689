// Package annlive is the liveness corpus: //ssvet: annotations that
// still suppress a finding must pass, annotations that suppress nothing
// (or use an unknown verb) must be flagged by the full suite.
package annlive

import "context"

type canceller struct {
	ctx context.Context
	err error
}

func (cc *canceller) stop() bool {
	if cc == nil {
		return false
	}
	if err := cc.ctx.Err(); err != nil {
		cc.err = err
		return true
	}
	return false
}

type cursor struct{ n int }

func (c *cursor) next() bool { c.n--; return c.n > 0 }

// scanExempt has a canceller in scope and an advancing loop that never
// polls: ctxpoll would fire, so the annotation is live.
func scanExempt(cc *canceller, cur *cursor) int {
	_ = cc
	n := 0
	//ssvet:nopoll corpus: loop is bounded by construction
	for cur.next() {
		n++
	}
	return n
}

// scanPolling polls, so its exemption suppresses nothing.
func scanPolling(cc *canceller, cur *cursor) int {
	n := 0
	//ssvet:nopoll the loop already polls // want "no longer suppresses any finding"
	for cur.next() {
		if cc.stop() {
			break
		}
		n++
	}
	return n
}

// bookkeeping's loop is not an advancing loop at all; its exemption is
// dead.
func bookkeeping(xs []int) int {
	s := 0
	//ssvet:nopoll bounded bookkeeping // want "no longer suppresses any finding"
	for _, x := range xs {
		s += x
	}
	return s
}

// typod misspells the verb: it can never suppress anything.
func typod(cur *cursor) int {
	n := 0
	//ssvet:nopol bounded // want "unknown //ssvet: verb .nopol."
	for cur.next() {
		n++
	}
	return n
}

// retired uses a verb the suite no longer consumes: like a typo, it
// can never suppress anything.
func retired(xs []int) []int {
	//ssvet:coldalloc grows once // want "unknown //ssvet: verb .coldalloc."
	return append(xs, 1)
}

// Package skipmono is the test corpus for the skipmono analyzer:
// SeekLen is a forward-only skip-index seek, so a cursor must not be
// re-seeked, and a loop must not seek a cursor it did not open.
package skipmono

// cursor mirrors the inverted-list weight cursor surface.
type cursor struct{ pos int }

func (c *cursor) SeekLen(min float64) (skipped, walked int) { return 0, 0 }
func (c *cursor) Valid() bool                               { return c.pos >= 0 }
func (c *cursor) Next()                                     { c.pos++ }

type store struct{}

func (store) WeightCursor(tok int) *cursor { return &cursor{} }

// openClean is the sanctioned shape (openLists): a fresh cursor per
// iteration, one seek each.
func openClean(st store, tokens []int, lo float64) {
	for _, t := range tokens {
		cur := st.WeightCursor(t)
		cur.SeekLen(lo)
		for cur.Valid() {
			cur.Next()
		}
	}
}

// seekOnce outside any loop is fine.
func seekOnce(st store, lo float64) *cursor {
	cur := st.WeightCursor(0)
	cur.SeekLen(lo)
	return cur
}

// reSeekLoop seeks the same cursor every iteration: from the second
// target on, any non-increasing bound silently no-ops.
func reSeekLoop(st store, bounds []float64) {
	cur := st.WeightCursor(0)
	for _, lo := range bounds {
		cur.SeekLen(lo) // want "SeekLen on loop-invariant cursor .cur. inside a loop"
	}
}

// reSeekInit creates the cursor in the for-init: still one cursor,
// seeked repeatedly.
func reSeekInit(st store, n int) {
	for cur, i := st.WeightCursor(0), 0; i < n; i++ {
		cur.SeekLen(float64(i)) // want "SeekLen on loop-invariant cursor .cur. inside a loop"
	}
}

// doubleSeek seeks the same cursor twice in straight line; only the
// first is guaranteed to move.
func doubleSeek(st store, lo, hi float64) {
	cur := st.WeightCursor(0)
	cur.SeekLen(lo)
	cur.SeekLen(hi) // want "repeated SeekLen on cursor .cur."
}

// risingSeek re-seeks with provably increasing targets and says so.
func risingSeek(st store, steps int) {
	cur := st.WeightCursor(0)
	for i := 0; i < steps; i++ {
		//ssvet:monotone target i strictly increases every iteration
		cur.SeekLen(float64(i))
	}
}

// fieldCursor exercises receiver paths rooted in a composite: the root
// identifier carries the object, so repeats are still caught.
type lists struct{ cur *cursor }

func fieldDoubleSeek(l *lists, lo, hi float64) {
	l.cur.SeekLen(lo) // want "SeekLen on cursor .l. that this function did not open"
	l.cur.SeekLen(hi) // want "repeated SeekLen on cursor .l."
}

// seekTo seeks a cursor its receiver carries: one call site, but every
// call of the method is a re-seek.
func (l *lists) seekTo(min float64) {
	l.cur.SeekLen(min) // want "SeekLen on cursor .l. that this function did not open"
}

// seekToRising is the same method with its callers' contract stated.
func (l *lists) seekToRising(min float64) {
	//ssvet:monotone callers pass the sorted targets in order
	l.cur.SeekLen(min)
}

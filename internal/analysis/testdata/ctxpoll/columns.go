package ctxpoll

// PostingIDs and PostingLens mirror the columns of a posting arena, which
// the analyzer keys on like []Posting.
type (
	PostingIDs  []uint32
	PostingLens []float64
)

// gallopPolled is the clean pattern over an arena's columns: a gallop
// polling on every step.
func gallopPolled(cc *canceller, ids PostingIDs, lens PostingLens, target float64) int {
	hi := 0
	for step := 1; hi < len(lens); step *= 2 {
		if cc.stop() {
			return hi
		}
		if lens[hi] >= target {
			break
		}
		hi += step
	}
	return hi
}

// gallopUnpolled indexes the length column with the canceller in scope
// and never polls it.
func gallopUnpolled(cc *canceller, lens PostingLens, target float64) int {
	hi := 0
	for step := 1; hi < len(lens) && lens[hi] < target; step *= 2 { // want "scan loop advances a cursor without polling the canceller"
		hi += step
	}
	_ = cc
	return hi
}

// rangeIDsUnpolled ranges over the id column without polling.
func rangeIDsUnpolled(cc *canceller, ids PostingIDs) int {
	n := 0
	for _, id := range ids { // want "scan loop advances a cursor without polling the canceller"
		n += int(id)
	}
	_ = cc
	return n
}

package statsacct

// PostingIDs and PostingLens mirror the columns of a posting arena, which
// the analyzer keys on like []Posting.
type (
	PostingIDs  []uint32
	PostingLens []float64
)

// walkColumnsAccounted reads the length column and charges every posting
// it compares.
func walkColumnsAccounted(lens PostingLens, target float64, stats *Stats) int {
	i := 0
	for i < len(lens) && lens[i] < target {
		stats.ElementsRead++
		i++
	}
	return i
}

// walkColumnsSilent reads both columns and charges nothing.
func walkColumnsSilent(ids PostingIDs, lens PostingLens, target float64) int {
	n := 0
	for i := range ids { // want "posting-reading loop neither bumps ElementsRead/ElementsSkipped nor passes Stats to a callee"
		if lens[i] < target {
			n += int(ids[i])
		}
	}
	return n
}

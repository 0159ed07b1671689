package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"repro/setsim"
)

// span is one timed interval of the traced pass. Spans of one tape
// operation share Op; Parent is the span that caused this one (0 for an
// operation's root span and for set-up probes). Counts are attached to
// the span that produced them, so ratios are taken where the work
// happens. A span's self time is its duration minus its children's.
type span struct {
	ID     int32              `json:"id"`
	Parent int32              `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Op     int32              `json:"op,omitempty"`
	Class  string             `json:"class,omitempty"`
	Slot   int32              `json:"slot,omitempty"`
	Lap    int32              `json:"lap,omitempty"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory; write stores them when the run ends. A
// nil *tracer records nothing: the untraced replay runs the same code
// with one.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) now() int64 { return time.Since(tr.t0).Nanoseconds() }

// begin opens a span and returns its id.
func (tr *tracer) begin(name string, parent int32) int32 {
	if tr == nil {
		return 0
	}
	id := int32(len(tr.spans) + 1)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Start: tr.now()})
	return id
}

// beginOp opens the root span of tape operation op.
func (tr *tracer) beginOp(op int32, class opClass, slot, lap int) int32 {
	if tr == nil {
		return 0
	}
	id := tr.begin("op", 0)
	sp := &tr.spans[id-1]
	sp.Op, sp.Class, sp.Slot, sp.Lap = op, class.String(), int32(slot), int32(lap)
	return id
}

// end closes span id and returns its duration.
func (tr *tracer) end(id int32) time.Duration {
	if tr == nil {
		return 0
	}
	s := &tr.spans[id-1]
	s.End = tr.now()
	return time.Duration(s.End - s.Start)
}

func (tr *tracer) count(id int32, key string, v float64) {
	if tr == nil {
		return
	}
	s := &tr.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[key] = v
}

// probe times fn as a span named after the metric it feeds, child of
// parent, and returns the duration.
func (tr *tracer) probe(name string, parent int32, fn func()) time.Duration {
	id := tr.begin(name, parent)
	fn()
	return tr.end(id)
}

func (tr *tracer) write(path string, header map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(map[string]any{"header": header, "spans": tr.spans})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedLaps is the length of the traced pass, and of the untraced pass
// a traced run compares it with.
const tracedLaps = 5

// classCounts sums what the library's Stats reported for one class over
// the last lap of the traced pass.
type classCounts struct {
	ops, read, skipped, candidates, rounds, results int
	pruning                                         float64
}

func (c *classCounts) add(st setsim.Stats, results int) {
	c.ops++
	c.read += st.ElementsRead
	c.skipped += st.ElementsSkipped
	c.candidates += st.CandidatesInserted
	c.rounds += st.Rounds
	c.results += results
	c.pruning += st.PruningPower()
}

// liveSamples sums LiveEngine.Stats() sampled every 64 slots of the last
// traced lap.
type liveSamples struct {
	n, segments, memtable, tombstones int
}

func (l *liveSamples) add(ls setsim.LiveStats) {
	l.n++
	l.segments += ls.Segments
	l.memtable += ls.Memtable
	l.tombstones += ls.Tombstones
}

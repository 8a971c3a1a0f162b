package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, taken from outside the program: the
// benchmark stamps the clock around the public function it calls. Spans of
// one operation share Op; Parent names the span that caused this one (0 for
// an operation's root).
//
// Two kinds of nesting appear in a trace. Real nesting: the child ran inside
// the parent's interval (suspend-cycle's quiesce inside a cycle). Ladder
// nesting: the child is the same statement driven one layer lower in a
// separate call (the serve-HTTP request under the proxy request), so its
// interval lies elsewhere on the clock. Both subtract the same way — a
// span's self time is its duration minus its children's durations — because
// a single caller never has two children in flight at once.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// StartNS and EndNS are nanoseconds since the recorder was created.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

func (s Span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// Recorder keeps spans in memory until the run ends. A nil *Recorder is the
// tracing-off state: every method is a no-op, so the traced and untraced
// phases run the same workload code.
type Recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// add records a finished span and returns its id (0 when tracing is off).
func (r *Recorder) add(op, parent int, layer, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		StartNS: int64(start.Sub(r.t0)), EndNS: int64(end.Sub(r.t0)),
	})
	return id
}

// all returns a copy of the recorded spans.
func (r *Recorder) all() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// writeFile dumps the spans as a JSON array.
func (r *Recorder) writeFile(path string) error {
	data, err := json.Marshal(r.all())
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// selfTimes returns each span's self time keyed by span id: its duration
// minus the durations of its direct children. A ladder child that ran
// slower than its parent (run-to-run noise between two separate calls)
// yields a negative self time; it is kept, because clamping it would bias
// every median upward and break the identity the trace is checked by — an
// operation's self times sum to its root's duration.
func selfTimes(spans []Span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layerRow is one line of the per-layer table computed from a trace.
type layerRow struct {
	Layer string
	Name  string
	// SelfMS summarizes the span's self time over the operations that have it.
	Self summary
	// Share is the span's total self time over the total wall time of all
	// operations.
	Share float64
}

// traceTable folds a trace into per-(layer, name) self-time rows, and
// checks the trace against itself: sumShare is Σ self / Σ root duration over
// all operations and worstOp the largest relative gap of any one operation
// (1.0 and 0 unless a span names a parent outside its operation), and
// inversions is the share of spans with a negative self time — how noisy
// the ladder was.
func traceTable(spans []Span) (rows []layerRow, sumShare, worstOp, inversions float64, ops int) {
	self := selfTimes(spans)
	type key struct{ layer, name string }
	perKey := map[key][]float64{}
	keyTotal := map[key]float64{}
	opSelf := map[int]float64{}
	opWall := map[int]float64{}
	negative := 0
	for _, s := range spans {
		k := key{s.Layer, s.Name}
		if self[s.ID] < 0 {
			negative++
		}
		ms := float64(self[s.ID]) / float64(time.Millisecond)
		perKey[k] = append(perKey[k], ms)
		keyTotal[k] += ms
		opSelf[s.Op] += ms
		if s.Parent == 0 {
			opWall[s.Op] += float64(s.dur()) / float64(time.Millisecond)
		}
	}
	var wall, selfSum float64
	for op, w := range opWall {
		wall += w
		selfSum += opSelf[op]
		if w > 0 {
			if gap := abs(opSelf[op]-w) / w; gap > worstOp {
				worstOp = gap
			}
		}
	}
	for k, v := range perKey {
		rows = append(rows, layerRow{Layer: k.layer, Name: k.name, Self: summarize(v), Share: keyTotal[k] / wall})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Layer != rows[j].Layer {
			return rows[i].Layer < rows[j].Layer
		}
		return rows[i].Name < rows[j].Name
	})
	if wall > 0 {
		sumShare = selfSum / wall
	}
	if len(spans) > 0 {
		inversions = float64(negative) / float64(len(spans))
	}
	return rows, sumShare, worstOp, inversions, len(opWall)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

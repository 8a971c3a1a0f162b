package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event names emitted by the instrumented paths. Attr keys are
// lower_snake_case; durations are nanoseconds, sizes are bytes.
const (
	// EvPipelineStart / EvPipelineFinish bracket one pipeline execution.
	// Attrs: pipeline, morsels (finish), duration (finish), workers.
	EvPipelineStart  = "pipeline.start"
	EvPipelineFinish = "pipeline.finish"
	// EvPipelineScale records the DAG scheduler assigning an extra worker to
	// a running pipeline. Attrs: pipeline, workers.
	EvPipelineScale = "pipeline.scale"
	// EvPipelineQuiesced records a pipeline stopping at a morsel boundary
	// under a suspension barrier; captured says whether its mid-flight state
	// was kept (process-level) or discarded (pipeline-level barrier).
	// Attrs: pipeline, cursor, captured.
	EvPipelineQuiesced = "pipeline.quiesced"
	// EvBreaker marks a crossed pipeline breaker where a suspension
	// decision could run. Attrs: pipeline, elapsed.
	EvBreaker = "breaker.reached"
	// EvSuspendRequested records RequestSuspend. Attrs: kind.
	EvSuspendRequested = "suspend.requested"
	// EvSuspendAcked records the executor capturing a suspension.
	// Attrs: kind, pipeline, cursor, elapsed.
	EvSuspendAcked = "suspend.acknowledged"
	// EvCheckpointSerialize / EvCheckpointWrite split a checkpoint persist
	// into its state-serialization and write+fsync halves.
	// Attrs: state_bytes / total_bytes, duration.
	EvCheckpointSerialize = "checkpoint.serialize"
	EvCheckpointWrite     = "checkpoint.write"
	// EvCheckpointPersisted summarizes one persisted checkpoint.
	// Attrs: kind, state_bytes, padding_bytes, total_bytes, duration (L_s).
	EvCheckpointPersisted = "checkpoint.persisted"
	// EvResumeRestore records a checkpoint restore into a fresh executor.
	// Attrs: kind, total_bytes, duration (L_r).
	EvResumeRestore = "resume.restore"
	// EvCheckpointRetry records one failed write attempt absorbed by the
	// retry policy. Attrs: attempt, error.
	EvCheckpointRetry = "checkpoint.retry"
	// EvCheckpointFallback records a persist degrading to a cheaper kind
	// after the requested one failed. Attrs: from, to, error.
	EvCheckpointFallback = "checkpoint.fallback"
	// EvCheckpointQuarantined records a torn or corrupt checkpoint renamed
	// aside at restore time. Attrs: path, error.
	EvCheckpointQuarantined = "checkpoint.quarantined"
	// EvResumeInPlace records a suspended executor continuing from its
	// in-memory state: a held session dispatched again, whether a
	// preemption or an idle park that could not be persisted. Attrs: kind.
	EvResumeInPlace = "resume.in_place"
	// EvPreemptAbandoned records an idle park given up after the whole
	// degradation ladder failed; the session was held and re-queued
	// instead of parked. Attrs: query, error.
	EvPreemptAbandoned = "preempt.abandoned"
	// EvChunkPut records one chunk of a store-backed checkpoint write.
	// Attrs: digest (truncated hex), size, compressed, deduped.
	EvChunkPut = "blobstore.chunk.put"
	// EvChunkGet records one chunk downloaded during a store-backed restore.
	// Attrs: digest (truncated hex), size, compressed.
	EvChunkGet = "blobstore.chunk.get"
	// EvStorePersisted summarizes one store-backed checkpoint write.
	// Attrs: key, kind, chunks, dedup_hits, state_bytes, uploaded_bytes,
	// duration (L_s against the store).
	EvStorePersisted = "blobstore.checkpoint.persisted"
	// EvStoreRestore records a store-backed checkpoint restore.
	// Attrs: key, kind, chunks, state_bytes, downloaded_bytes, duration.
	EvStoreRestore = "blobstore.checkpoint.restore"
	// EvLineageAppend records one breaker-state record appended to the
	// write-ahead lineage log. Attrs: pipeline, state_bytes, sealed.
	EvLineageAppend = "lineage.append"
	// EvLineageSeal records a lineage suspension sealing the log: the tail
	// flushed and fsynced, with the final in-flight cursors recorded.
	// Attrs: records, states, log_bytes, tail_bytes, duration (the lineage L_s).
	EvLineageSeal = "lineage.seal"
	// EvLineageTruncated records a torn tail record detected at replay time
	// and logically truncated — everything from the offset on is ignored,
	// never replayed. Attrs: offset, error.
	EvLineageTruncated = "lineage.truncated"
	// EvLineageReplay records a resume restoring from a lineage log: the
	// scan plus the load of the last sealed breaker-state record; the
	// re-execution of unsealed work then happens inside Run.
	// Attrs: records, states, state_bytes, log_bytes, duration.
	EvLineageReplay = "lineage.replay"
	// EvDecision records one Algorithm 1 run with its cost-model inputs and
	// outputs. Attrs: strategy, cost_redo, cost_pipeline, cost_process,
	// cost_lineage, ct, avg_pipeline_time, next_breaker_eta,
	// pipeline_state_bytes, est_total, model_time.
	EvDecision = "strategy.decision"
	// EvOutcome closes the loop on a decision with measured actuals.
	// Attrs: strategy, suspended, terminated, suspend_latency,
	// resume_latency, persisted_bytes, total_time, normal_time.
	EvOutcome = "strategy.outcome"
	// EvFoldAttach records an execution compiled onto shared scan hubs:
	// its base-table reads ride the per-table morsel streams instead of
	// private scans. Attrs: fingerprint.
	EvFoldAttach = "fold.attach"
	// EvFoldDetach records a rider detaching from its hubs at a morsel
	// boundary (suspension requested while folded); the hubs keep
	// streaming for the surviving riders. Attrs: kind.
	EvFoldDetach = "fold.detach"
	// EvFoldRejoin records a resumed rider re-attaching to live hubs:
	// below-window morsels are read directly from the base table
	// (catch-up) until the rider converges with the shared window.
	// Attrs: fingerprint.
	EvFoldRejoin = "fold.rejoin"
)

// Attr is one structured event attribute.
type Attr struct {
	Key   string
	Value any
}

// A builds an attribute.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Event is one recorded trace event.
type Event struct {
	// Seq is the event's position in the trace (0-based, dense).
	Seq int
	// At is the offset from the trace's start.
	At time.Duration
	// Name is one of the Ev* constants (or a caller-defined name).
	Name string
	// Attrs are the event's structured attributes, in recording order.
	Attrs []Attr
}

// Attr returns the value of the named attribute (nil if absent).
func (e Event) Attr(key string) any {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// Trace records the structured event stream of one query execution,
// spanning suspensions and resumes (the controller threads one Trace
// through the original executor, the checkpoint, and the resumed
// executor). A nil *Trace drops all events. Safe for concurrent use.
type Trace struct {
	mu     sync.Mutex
	query  string
	start  time.Time
	events []Event
}

// NewTrace starts a trace for the named query.
func NewTrace(query string) *Trace {
	return &Trace{query: query, start: time.Now(), events: make([]Event, 0, 32)}
}

// Event appends one event with the current timestamp.
func (t *Trace) Event(name string, attrs ...Attr) {
	if t == nil {
		return
	}
	at := time.Since(t.start)
	t.mu.Lock()
	t.events = append(t.events, Event{Seq: len(t.events), At: at, Name: name, Attrs: attrs})
	t.mu.Unlock()
}

// Events returns a copy of the recorded events in order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Find returns the first event with the given name, and whether one exists.
func (t *Trace) Find(name string) (Event, bool) {
	for _, e := range t.Events() {
		if e.Name == name {
			return e, true
		}
	}
	return Event{}, false
}

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// renderAttr renders attribute values compactly; durations stay readable.
func renderAttr(v any) string {
	switch x := v.(type) {
	case time.Duration:
		return x.Round(time.Microsecond).String()
	default:
		return fmt.Sprintf("%v", x)
	}
}

// WriteText writes a human-readable event log.
func (t *Trace) WriteText(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	query := t.query
	events := append([]Event(nil), t.events...)
	t.mu.Unlock()
	if _, err := fmt.Fprintf(w, "trace %s (%d events)\n", query, len(events)); err != nil {
		return err
	}
	for _, e := range events {
		if _, err := fmt.Fprintf(w, "  %10s  %-24s", e.At.Round(time.Microsecond), e.Name); err != nil {
			return err
		}
		for _, a := range e.Attrs {
			if _, err := fmt.Fprintf(w, " %s=%s", a.Key, renderAttr(a.Value)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// jsonEvent mirrors Event with JSON-friendly attribute encoding.
type jsonEvent struct {
	Seq   int            `json:"seq"`
	AtNs  int64          `json:"at_ns"`
	Name  string         `json:"name"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// WriteJSON writes the trace as indented JSON.
func (t *Trace) WriteJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	query := t.query
	events := append([]Event(nil), t.events...)
	t.mu.Unlock()
	out := struct {
		Query  string      `json:"query"`
		Events []jsonEvent `json:"events"`
	}{Query: query, Events: make([]jsonEvent, 0, len(events))}
	for _, e := range events {
		je := jsonEvent{Seq: e.Seq, AtNs: int64(e.At), Name: e.Name}
		if len(e.Attrs) > 0 {
			je.Attrs = make(map[string]any, len(e.Attrs))
			for _, a := range e.Attrs {
				if d, ok := a.Value.(time.Duration); ok {
					je.Attrs[a.Key] = int64(d)
				} else {
					je.Attrs[a.Key] = a.Value
				}
			}
		}
		out.Events = append(out.Events, je)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

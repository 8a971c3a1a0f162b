package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// Metric is one named number with its unit. N is the sample count behind a
// timing; Note says which percentile a tail is, or why a value is missing.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// The metrics BENCHMARK.json names. Every workload reports every one of
// them, each under the definition README.md gives for that workload; the
// workload's own named metrics (round_p50_ms, ls_store_ms, …) are printed
// and written to -out beside them.
var (
	contractEndToEnd = []string{"latency_p50_ms", "throughput_per_s", "alloc_mb_per_op", "setup_s"}
	contractPerLayer = []string{"engine.self_ms", "prepare.self_us", "outside_engine.self_ms", "trace.overhead_pct"}
)

// result is what one measured phase of a workload produced.
type result struct {
	attempted, failed int
	failures          []string // first few failure messages
	invalid           string   // non-empty: the run's timings should not be used, and why

	// latencyMS holds the client-visible latency of every operation, and
	// throughput the workload's completed work per second; README.md
	// defines both per workload. allocMBPerOp is heap allocated per
	// operation over the phase.
	latencyMS    []float64
	throughput   float64
	allocMBPerOp float64

	endToEnd []Metric // the workload's own end-to-end metrics
	perLayer []Metric // per-layer metrics taken from timestamps and counters
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// timing appends the standard rendering of a timing: <name> is the median,
// <name>.tail the highest supported percentile, both carrying the count.
func timing(out []Metric, name, unit string, samples []float64) []Metric {
	s := summarize(samples)
	out = append(out, Metric{Name: name, Value: s.P50, Unit: unit, N: s.N, Note: "median"})
	note := fmt.Sprintf("p%g", s.TailP)
	if !s.TailOK {
		note += fmt.Sprintf(" (fewer than %d samples beyond it)", minBeyond)
	}
	return append(out, Metric{Name: name + ".tail", Value: s.Tail, Unit: unit, N: s.N, Note: note})
}

// Report is the full output of one run, written to -out and summarized on
// standard output.
type Report struct {
	Benchmark string  `json:"benchmark"`
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Smoke     bool    `json:"smoke"`
	Env       Env     `json:"env"`
	// Sizes states the workload's scale, rates, client counts and loop kind.
	Sizes string `json:"sizes"`

	SetupS       float64   `json:"setup_s"`
	SetupRunsS   []float64 `json:"setup_runs_s"`
	MeasuredS    float64   `json:"measured_s"`
	OpsAttempted int       `json:"ops_attempted"`
	OpsFailed    int       `json:"ops_failed"`
	Failures     []string  `json:"failures,omitempty"`
	Valid        bool      `json:"valid"`
	Invalid      string    `json:"invalid,omitempty"`

	// Contract holds the metrics BENCHMARK.json names: the end-to-end set
	// for an untraced run, the per-layer set for a traced one.
	Contract map[string]Metric `json:"contract"`
	EndToEnd []Metric          `json:"end_to_end"`
	PerLayer []Metric          `json:"per_layer"`

	// Claim is always null: this benchmark measures, it does not claim.
	Claim *string `json:"claim"`
}

func (r *Report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v  smoke %v\n", r.Workload, r.Seed, r.Seconds, r.Trace, r.Smoke)
	fmt.Fprintf(w, "env: %s\n", r.Env)
	fmt.Fprintf(w, "sizes: %s\n", r.Sizes)
	fmt.Fprintf(w, "setup_s %.4f (median of %d set-ups)  measured_s %.2f  ops_attempted %d  ops_failed %d  valid %v %s\n",
		r.SetupS, len(r.SetupRunsS), r.MeasuredS, r.OpsAttempted, r.OpsFailed, r.Valid, r.Invalid)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	section := func(title string, ms []Metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "-- %s\n", title)
		for _, m := range ms {
			extra := ""
			if m.N > 0 {
				extra = fmt.Sprintf("  n=%d", m.N)
			}
			if m.Note != "" {
				extra += "  " + m.Note
			}
			fmt.Fprintf(w, "%-44s %14.4f %-8s%s\n", m.Name, m.Value, m.Unit, extra)
		}
	}
	section("end to end", r.EndToEnd)
	section("per layer", r.PerLayer)
	names := make([]string, 0, len(r.Contract))
	for n := range r.Contract {
		names = append(names, n)
	}
	sort.Strings(names)
	flat := make([]Metric, 0, len(names))
	for _, n := range names {
		flat = append(flat, r.Contract[n])
	}
	section("BENCHMARK.json metrics", flat)
}

// contractLine renders the one JSON object the driver reads from the last
// line of standard output.
func (r *Report) contractLine() (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for n, m := range r.Contract {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s is not finite", n)
		}
		metrics[n] = mv{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.OpsFailed == 0,
		"attempted": r.OpsAttempted,
		"failed":    r.OpsFailed,
		"metrics":   metrics,
	})
	return string(line), err
}

func (r *Report) writeFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// layerMetricsFromTrace turns a trace into per-layer metrics: one
// self-time row per (layer, span name), the per-group medians
// BENCHMARK.json names, and the check that self times account for wall time.
func layerMetricsFromTrace(spans []Span) (detail []Metric, contract map[string]Metric) {
	rows, sumShare, worstOp, inversions, ops := traceTable(spans)
	for _, row := range rows {
		detail = append(detail, Metric{
			Name: "self." + row.Layer + "." + row.Name, Value: row.Self.P50, Unit: "ms", N: row.Self.N,
			Note: fmt.Sprintf("median self time; %.1f%% of all operations' wall time", row.Share*100),
		})
	}
	detail = append(detail,
		Metric{Name: "trace.self_sum_pct", Value: sumShare * 100, Unit: "%", N: ops, Note: "Σ span self times / Σ operation wall time"},
		Metric{Name: "trace.self_sum_worst_op_pct", Value: worstOp * 100, Unit: "%", N: ops, Note: "largest gap of any one operation"},
		Metric{Name: "trace.ladder_inversions_pct", Value: inversions * 100, Unit: "%", N: len(spans), Note: "spans whose separately driven child took longer than they did"},
		Metric{Name: "trace.spans_per_op", Value: float64(len(spans)) / float64(max(ops, 1)), Unit: "count", N: ops},
	)

	// Per operation, self time by layer group.
	self := selfTimes(spans)
	type groups struct{ engine, prepare, outside float64 }
	perOp := map[int]*groups{}
	for _, s := range spans {
		g := perOp[s.Op]
		if g == nil {
			g = &groups{}
			perOp[s.Op] = g
		}
		ms := float64(self[s.ID]) / float64(time.Millisecond)
		switch s.Layer {
		case "engine":
			g.engine += ms
		case "sql", "plan":
			g.prepare += ms
		default:
			g.outside += ms
		}
	}
	var engine, prepare, outside []float64
	for _, g := range perOp {
		engine = append(engine, g.engine)
		prepare = append(prepare, g.prepare*1000)
		outside = append(outside, g.outside)
	}
	contract = map[string]Metric{
		"engine.self_ms":         {Name: "engine.self_ms", Value: mean(engine), Unit: "ms", N: ops, Note: "mean per operation, engine spans"},
		"prepare.self_us":        {Name: "prepare.self_us", Value: mean(prepare), Unit: "us", N: ops, Note: "mean per operation, sql and plan spans"},
		"outside_engine.self_ms": {Name: "outside_engine.self_ms", Value: mean(outside), Unit: "ms", N: ops, Note: "mean per operation, every other layer"},
	}
	return detail, contract
}

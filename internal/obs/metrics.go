package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The nil Counter
// drops all additions.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable instantaneous value. The nil Gauge drops
// all sets.
type Gauge struct {
	v atomic.Int64
}

// Set records the current value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add atomically adjusts the value by delta. Concurrent adjusters must use
// Add, never Set(Value()+delta) — the read-modify-write loses updates under
// contention (the fold hub's fan-out goroutines adjust shared rider gauges
// from many pipelines at once, which is what surfaced this).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the last set value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with atomic counters: an
// observation of v lands in the first bucket whose upper bound is >= v,
// or the overflow bucket. Bounds are set at creation and never change, so
// Observe is lock-free and allocation-free.
type Histogram struct {
	bounds []int64        // sorted upper bounds, len = #buckets - 1
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	sum    atomic.Int64
	count  atomic.Int64
	min    atomic.Int64
	max    atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	h := &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	h.min.Store(int64(^uint64(0) >> 1)) // MaxInt64 sentinel until first obs
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Buckets are few (typically <= 32); linear scan beats binary search on
	// branch prediction and stays allocation-free.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Default bucket layouts. Values are chosen to straddle the scales the
// experiments produce (microsecond pipelines at tiny SFs up to multi-second
// checkpoints; byte-sized states up to multi-GB images).
var (
	// DurationBuckets spans 10µs .. 10s, roughly 1-3-10 per decade.
	DurationBuckets = []int64{
		int64(10 * time.Microsecond), int64(30 * time.Microsecond),
		int64(100 * time.Microsecond), int64(300 * time.Microsecond),
		int64(time.Millisecond), int64(3 * time.Millisecond),
		int64(10 * time.Millisecond), int64(30 * time.Millisecond),
		int64(100 * time.Millisecond), int64(300 * time.Millisecond),
		int64(time.Second), int64(3 * time.Second), int64(10 * time.Second),
	}
	// SizeBuckets spans 1KiB .. 4GiB in powers of four.
	SizeBuckets = []int64{
		1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20,
		1 << 22, 1 << 24, 1 << 26, 1 << 28, 1 << 30, 1 << 32,
	}
)

// Registry is a named collection of metrics. Lookup is a read-locked map
// access; the returned handles are cached by callers so the hot path never
// touches the registry. All methods are safe for concurrent use, and a nil
// *Registry hands out nil handles (which drop recordings).
type Registry struct {
	mu     sync.RWMutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counts[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counts[name]; c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. The bounds
// apply only on creation; later calls with different bounds get the
// existing histogram.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// DurationHistogram returns the named histogram with the default duration
// bucket layout.
func (r *Registry) DurationHistogram(name string) *Histogram {
	return r.Histogram(name, DurationBuckets)
}

// SizeHistogram returns the named histogram with the default size layout.
func (r *Registry) SizeHistogram(name string) *Histogram {
	return r.Histogram(name, SizeBuckets)
}

// HistogramSnapshot is a point-in-time copy of one histogram.
type HistogramSnapshot struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Min     int64   `json:"min"`
	Max     int64   `json:"max"`
	Bounds  []int64 `json:"bounds"`
	Buckets []int64 `json:"buckets"`
}

// Mean returns the average observed value (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound on the q-quantile (q in [0,1]): the
// bucket bound the cumulative count first reaches q*Count at, clamped to
// the observed Max for the overflow bucket. Zero when empty. Buckets are
// coarse, so this over-reports by at most one bucket width — the right
// polarity for latency-bound checks.
func (h HistogramSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(h.Count))
	if float64(target) < q*float64(h.Count) {
		target++ // round up: cumulative must reach, not approach, q
	}
	var cum int64
	for i, c := range h.Buckets {
		cum += c
		if cum >= target {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Max // overflow bucket: Max is the tightest bound we have
		}
	}
	return h.Max
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters,omitempty"`
	Gauges     map[string]int64    `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state. Nil registries snapshot
// empty.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counts {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Name:    name,
			Count:   h.count.Load(),
			Sum:     h.sum.Load(),
			Bounds:  append([]int64(nil), h.bounds...),
			Buckets: make([]int64, len(h.counts)),
		}
		if hs.Count > 0 {
			hs.Min = h.min.Load()
			hs.Max = h.max.Load()
		}
		for i := range h.counts {
			hs.Buckets[i] = h.counts[i].Load()
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// durationMetric reports whether a histogram name carries nanosecond
// observations (rendered as durations in the text dump).
func durationMetric(name string) bool {
	return strings.Contains(name, "latency") || strings.Contains(name, "duration") ||
		strings.Contains(name, "time")
}

func renderValue(name string, v float64) string {
	if durationMetric(name) {
		return time.Duration(int64(v)).Round(time.Microsecond).String()
	}
	return fmt.Sprintf("%.0f", v)
}

// WriteText writes a human-readable rendering of the snapshot.
func (s Snapshot) WriteText(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%-40s %d\n", n, s.Counters[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%-40s %d\n", n, s.Gauges[n]); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if h.Count == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%-40s n=%d mean=%s min=%s max=%s\n",
			h.Name, h.Count, renderValue(h.Name, h.Mean()),
			renderValue(h.Name, float64(h.Min)), renderValue(h.Name, float64(h.Max))); err != nil {
			return err
		}
	}
	return nil
}

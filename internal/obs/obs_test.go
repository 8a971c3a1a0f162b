package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Mix of hot-path handle reuse and registry lookups, to exercise
			// both the RLock fast path and the create path concurrently.
			c := r.Counter("shared")
			h := r.DurationHistogram("lat")
			for i := 0; i < perG; i++ {
				c.Inc()
				r.Counter("shared").Add(1)
				r.Gauge("g").Set(int64(i))
				h.ObserveDuration(time.Duration(i) * time.Microsecond)
				r.SizeHistogram("sz").Observe(int64(i))
			}
		}(g)
	}
	wg.Wait()

	if got := r.Counter("shared").Value(); got != goroutines*perG*2 {
		t.Fatalf("shared counter = %d, want %d", got, goroutines*perG*2)
	}
	if got := r.DurationHistogram("lat").count.Load(); got != goroutines*perG {
		t.Fatalf("lat histogram count = %d, want %d", got, goroutines*perG)
	}
	if got := r.SizeHistogram("sz").count.Load(); got != goroutines*perG {
		t.Fatalf("sz histogram count = %d, want %d", got, goroutines*perG)
	}
	snap := r.Snapshot()
	if snap.Counters["shared"] != goroutines*perG*2 {
		t.Fatalf("snapshot counter = %d", snap.Counters["shared"])
	}
	if len(snap.Histograms) != 2 {
		t.Fatalf("snapshot has %d histograms, want 2", len(snap.Histograms))
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x", SizeBuckets).Observe(1)
	if r.Counter("x") != nil || r.Counter("x").Value() != 0 {
		t.Fatal("nil registry must hand out nil handles")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}

	var tr *Trace
	tr.Event("x", A("k", 1))
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil trace must drop events")
	}
	if err := tr.WriteText(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]int64{10, 100, 1000})
	// An observation of v lands in the first bucket with bound >= v;
	// values above the last bound land in the overflow bucket.
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0}, {1, 0}, {10, 0}, // at the bound: inclusive
		{11, 1}, {100, 1},
		{101, 2}, {1000, 2},
		{1001, 3}, {1 << 40, 3}, // overflow
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	want := make([]int64, 4)
	for _, c := range cases {
		want[c.bucket]++
	}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d count = %d, want %d", i, got, w)
		}
	}
	if got := h.count.Load(); got != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", got, len(cases))
	}
	var sum int64
	for _, c := range cases {
		sum += c.v
	}
	if h.Sum() != sum {
		t.Fatalf("sum = %d, want %d", h.Sum(), sum)
	}
	r := NewRegistry()
	rh := r.Histogram("b", []int64{10, 100, 1000})
	rh.Observe(5)
	rh.Observe(50000)
	s := r.Snapshot()
	if s.Histograms[0].Min != 5 || s.Histograms[0].Max != 50000 {
		t.Fatalf("min/max = %d/%d, want 5/50000", s.Histograms[0].Min, s.Histograms[0].Max)
	}
	if got := s.Histograms[0].Buckets[3]; got != 1 {
		t.Fatalf("overflow bucket = %d, want 1", got)
	}
}

func TestHistogramUnsortedBoundsAreSorted(t *testing.T) {
	h := newHistogram([]int64{1000, 10, 100})
	h.Observe(50)
	if got := h.counts[1].Load(); got != 1 {
		t.Fatalf("observation of 50 landed outside bucket (10,100]: %d", got)
	}
}

func TestTraceOrderingAndLookup(t *testing.T) {
	tr := NewTrace("q1")
	tr.Event(EvPipelineStart, A("pipeline", 0))
	tr.Event(EvPipelineFinish, A("pipeline", 0), A("duration", time.Millisecond))
	tr.Event(EvSuspendRequested, A("kind", "process"))
	tr.Event(EvSuspendAcked, A("kind", "process"), A("pipeline", 1))
	tr.Event(EvCheckpointPersisted, A("total_bytes", int64(123)))
	tr.Event(EvResumeRestore, A("duration", 2*time.Millisecond))

	evs := tr.Events()
	if len(evs) != 6 {
		t.Fatalf("got %d events, want 6", len(evs))
	}
	for i, e := range evs {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d; seqs must be dense and ordered", i, e.Seq)
		}
		if i > 0 && e.At < evs[i-1].At {
			t.Fatalf("event %d timestamp went backwards", i)
		}
	}
	if ev, ok := tr.Find(EvSuspendAcked); !ok || ev.Attr("pipeline") != 1 {
		t.Fatalf("Find(EvSuspendAcked) = %+v, %v", ev, ok)
	}
	if ev, _ := tr.Find(EvCheckpointPersisted); ev.Attr("missing") != nil {
		t.Fatal("absent attr must be nil")
	}
}

func TestTraceConcurrentEvents(t *testing.T) {
	tr := NewTrace("q")
	var wg sync.WaitGroup
	const goroutines = 8
	const perG = 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Event("tick", A("i", i))
			}
		}()
	}
	wg.Wait()
	evs := tr.Events()
	if len(evs) != goroutines*perG {
		t.Fatalf("got %d events, want %d", len(evs), goroutines*perG)
	}
	for i, e := range evs {
		if e.Seq != i {
			t.Fatalf("seq %d at index %d: concurrent recording must keep seqs dense", e.Seq, i)
		}
	}
}

func TestTraceJSONAndText(t *testing.T) {
	tr := NewTrace("q6")
	tr.Event(EvDecision, A("strategy", "process"), A("ct", 5*time.Millisecond))
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Query  string `json:"query"`
		Events []struct {
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		} `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if out.Query != "q6" || len(out.Events) != 1 || out.Events[0].Name != EvDecision {
		t.Fatalf("unexpected JSON: %+v", out)
	}
	// Durations are encoded as integer nanoseconds.
	if ct, ok := out.Events[0].Attrs["ct"].(float64); !ok || int64(ct) != int64(5*time.Millisecond) {
		t.Fatalf("ct attr = %v", out.Events[0].Attrs["ct"])
	}

	buf.Reset()
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), EvDecision) || !strings.Contains(buf.String(), "strategy=process") {
		t.Fatalf("text rendering missing content:\n%s", buf.String())
	}
}

func TestSnapshotRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine.morsels").Add(42)
	r.DurationHistogram(Kinded(MetricSuspendLatency, "process")).ObserveDuration(3 * time.Millisecond)
	snap := r.Snapshot()

	var text bytes.Buffer
	if err := snap.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "engine.morsels") || !strings.Contains(text.String(), "42") {
		t.Fatalf("text snapshot missing counter:\n%s", text.String())
	}
	if !strings.Contains(text.String(), "suspend.latency.process") || !strings.Contains(text.String(), "3ms") {
		t.Fatalf("text snapshot must render durations readably:\n%s", text.String())
	}

	var js bytes.Buffer
	if err := snap.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(js.Bytes(), &round); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if round.Counters["engine.morsels"] != 42 {
		t.Fatalf("roundtripped counter = %d", round.Counters["engine.morsels"])
	}
}

func TestKinded(t *testing.T) {
	if got := Kinded(MetricSuspendLatency, "pipeline"); got != "suspend.latency.pipeline" {
		t.Fatalf("Kinded = %q", got)
	}
}

func TestHistogramSnapshotQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []int64{10, 100, 1000})
	// 90 observations in the first bucket, 9 in the second, 1 overflow.
	for i := 0; i < 90; i++ {
		h.Observe(5)
	}
	for i := 0; i < 9; i++ {
		h.Observe(50)
	}
	h.Observe(5000)
	var hs HistogramSnapshot
	for _, s := range r.Snapshot().Histograms {
		if s.Name == "q" {
			hs = s
		}
	}
	if hs.Count != 100 {
		t.Fatalf("count = %d", hs.Count)
	}
	if got := hs.Quantile(0.5); got != 10 {
		t.Errorf("p50 = %d, want 10", got)
	}
	if got := hs.Quantile(0.99); got != 100 {
		t.Errorf("p99 = %d, want 100", got)
	}
	// The overflow bucket reports the observed max, not +Inf.
	if got := hs.Quantile(1); got != 5000 {
		t.Errorf("p100 = %d, want 5000", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.99); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/riveterdb/riveter"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 50, false},
		{19, 50, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g, %v; want p%g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	v := []float64{10, 20, 30, 40}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {100, 40}, {25, 17.5}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", v, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	s := summarize([]float64{3, 1, 2})
	if s.N != 3 || s.P50 != 2 || s.TailOK {
		t.Errorf("summarize = %+v", s)
	}
}

// The driver judges spread with Python's statistics.quantiles(v, n=4);
// these are its outputs for the same inputs.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %g, %g; want 1.5, 4.5", q1, q3)
	}
}

func span(id, parent, op int, layer string, start, end int64) Span {
	return Span{ID: id, Parent: parent, Op: op, Layer: layer, Name: layer, StartNS: start, EndNS: end}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, 1, "root", 0, 100),
		span(2, 1, 1, "a", 10, 40),
		span(3, 2, 1, "a-child", 15, 25),
		span(4, 1, 1, "b", 50, 70),
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 20, 3: 10, 4: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

// A ladder child is the same work driven one layer lower in a separate
// call; when it happens to run slower than its parent the parent's self
// time goes negative, and the operation still sums to its root.
func TestLadderInversionKeepsTheSum(t *testing.T) {
	spans := []Span{
		span(1, 0, 7, "proxy", 0, 1000),
		span(2, 1, 7, "http", 5000, 5300),
		span(3, 2, 7, "server", 9000, 9320), // slower than its parent
		span(4, 0, 8, "proxy", 20000, 21000),
	}
	self := selfTimes(spans)
	if self[2] != -20 {
		t.Errorf("inverted rung self = %d, want -20", self[2])
	}
	rows, sumShare, worst, inversions, ops := traceTable(spans)
	if ops != 2 || len(rows) != 3 {
		t.Fatalf("ops %d rows %d, want 2 and 3", ops, len(rows))
	}
	if math.Abs(sumShare-1) > 1e-12 || worst > 1e-12 {
		t.Errorf("sumShare %g worst %g, want 1 and 0", sumShare, worst)
	}
	if inversions != 0.25 {
		t.Errorf("inversions %g, want 0.25", inversions)
	}
}

func TestTraceTableFlagsASpanOutsideItsOperation(t *testing.T) {
	spans := []Span{
		span(1, 0, 1, "root", 0, 100),
		span(2, 0, 2, "root", 200, 300),
		span(3, 1, 2, "stray", 210, 250), // parent belongs to operation 1
	}
	_, _, worst, _, _ := traceTable(spans)
	if worst < 0.3 {
		t.Errorf("worst-operation gap %g; a child charged to the wrong operation should show", worst)
	}
}

func TestLayerGroupsFromTrace(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []Span{
		span(1, 0, 1, "controlplane", 0, 20*ms),
		span(2, 1, 1, "server", 0, 5*ms),
		span(3, 2, 1, "sql", 0, 1*ms),
		span(4, 2, 1, "engine", 0, 3*ms),
	}
	_, contract := layerMetricsFromTrace(spans)
	if got := contract["engine.self_ms"].Value; got != 3 {
		t.Errorf("engine.self_ms = %g, want 3", got)
	}
	if got := contract["prepare.self_us"].Value; got != 1000 {
		t.Errorf("prepare.self_us = %g, want 1000", got)
	}
	if got := contract["outside_engine.self_ms"].Value; got != 16 {
		t.Errorf("outside_engine.self_ms = %g, want 16 (15 proxy + 1 server)", got)
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "throughput_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name string
		a, b []float64
		m    specMetric
		want string
	}{
		{"same", steady, steady, lower, verdictOK},
		{"slower latency", steady, []float64{120, 121, 119, 120, 122}, lower, verdictWorse},
		{"faster latency", steady, []float64{80, 81, 79, 80, 82}, lower, verdictOK},
		{"lower throughput", steady, []float64{80, 81, 79, 80, 82}, higher, verdictWorse},
		{"higher throughput", steady, []float64{120, 121, 119, 120, 122}, higher, verdictOK},
		{"too noisy to tell", steady, []float64{60, 140, 100, 80, 120}, lower, verdictUnresolved},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.m).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestStatementMixIsSeeded(t *testing.T) {
	a, b := newStatementMix(42), newStatementMix(42)
	seen := map[string]bool{}
	hot := 0
	const n = 2000
	for i := 0; i < n; i++ {
		sa, sb := a.next(), b.next()
		if sa != sb {
			t.Fatalf("statement %d differs between two mixes of one seed", i)
		}
		if sa.fresh {
			if seen[sa.text] {
				t.Fatalf("fresh statement repeated: %s", sa.text)
			}
			seen[sa.text] = true
		} else {
			hot++
		}
	}
	if len(a.hot) != hotTexts {
		t.Errorf("%d hot texts, want %d", len(a.hot), hotTexts)
	}
	if share := float64(hot) / n; math.Abs(share-hotShare) > 0.05 {
		t.Errorf("hot share %.3f, want about %.1f", share, hotShare)
	}
	if newStatementMix(43).next() == newStatementMix(42).next() && newStatementMix(43).hot[0] == a.hot[0] {
		t.Error("different seeds gave the same statements")
	}
}

// benchmarkSpec is BENCHMARK.json as the driver reads it.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

func readBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	var sp benchmarkSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestSpecNamesWhatTheProgramReports(t *testing.T) {
	sp := readBenchmarkSpec(t)
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	check := func(kind string, spec []specMetric, have []string) {
		var got []string
		for _, m := range spec {
			got = append(got, m.Name)
		}
		if strings.Join(got, ",") != strings.Join(have, ",") {
			t.Errorf("BENCHMARK.json %s metrics %v, program reports %v", kind, got, have)
		}
	}
	check("end_to_end", sp.EndToEnd, contractEndToEnd)
	check("per_layer", sp.PerLayer, contractPerLayer)
}

// TestSmoke runs every workload at its smallest size, untraced and traced,
// and checks what a run must always deliver: verified outputs, every
// metric BENCHMARK.json names with its unit and a finite value, a contract
// line the driver can parse, and nothing left behind.
func TestSmoke(t *testing.T) {
	sp := readBenchmarkSpec(t)
	base := t.TempDir()
	goroutines := runtime.NumGoroutine()
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 1, trace: trace, smoke: true, tmpBase: base, workers: runtime.NumCPU()}
			rep, rec, err := runBenchmark(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if rep.OpsAttempted < 1 || rep.OpsFailed != 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d: %v", name, trace, rep.OpsAttempted, rep.OpsFailed, rep.Failures)
			}
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
				if rec == nil || len(rec.all()) == 0 {
					t.Errorf("%s: traced run recorded no spans", name)
				}
			}
			if len(rep.Contract) != len(want) {
				t.Errorf("%s trace=%v: %d contract metrics, want %d", name, trace, len(rep.Contract), len(want))
			}
			for _, m := range want {
				got, ok := rep.Contract[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", name, trace, m.Name, got.Value)
				}
			}
			for _, m := range append(append([]Metric(nil), rep.EndToEnd...), rep.PerLayer...) {
				if m.Unit == "" || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v %q", name, trace, m.Name, m.Value, m.Unit)
				}
			}
			if rep.SetupS <= 0 || rep.Claim != nil {
				t.Errorf("%s trace=%v: setup_s %v claim %v", name, trace, rep.SetupS, rep.Claim)
			}
			line, err := rep.contractLine()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var parsed struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  *string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &parsed); err != nil || parsed.Correct == nil || parsed.Attempted == nil || parsed.Failed == nil || len(parsed.Metrics) != len(want) {
				t.Errorf("%s trace=%v: contract line %s (%v)", name, trace, line, err)
			}
		}
	}

	if left, err := os.ReadDir(base); err != nil || len(left) != 0 {
		t.Errorf("run directories left behind: %v (%v)", left, err)
	}
	// Servers, listeners, probers and per-request goroutines must all have
	// ended. Idle runtime goroutines settle asynchronously, so poll rather
	// than judge one instant.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", goroutines, n, buf[:runtime.Stack(buf, true)])
	}
}

func TestOracleRejectsAWrongResult(t *testing.T) {
	o, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	for _, sf := range goldenScaleFactors {
		for id := 1; id <= numTPCH; id++ {
			if _, ok := o.digests[goldenKey(sf, id)]; !ok {
				t.Errorf("no golden digest for %s", goldenKey(sf, id))
			}
		}
	}
	if err := o.check(tpchSF, 1, nil); err == nil {
		t.Error("a missing result passed the oracle")
	}
	db := riveter.Open(riveter.WithCheckpointDir(t.TempDir()))
	if err := db.GenerateTPCH(smokeSF); err != nil {
		t.Fatal(err)
	}
	q, err := db.PrepareTPCH(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.check(smokeSF, 6, res); err != nil {
		t.Errorf("Q6's own result failed the oracle: %v", err)
	}
	if err := o.check(smokeSF, 14, res); err == nil {
		t.Error("Q6's result passed as Q14's")
	}
	if err := o.check(0.123, 1, nil); err == nil {
		t.Error("an unknown scale factor passed the oracle")
	}
}

func TestMemFS(t *testing.T) {
	m := newMemFS()
	if _, err := m.Open("/d/a"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("open of a missing file: %v", err)
	}
	f, err := m.Create("/d/a.tmp")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("hello "))
	f.Write([]byte("world"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := m.Rename("/d/a.tmp", "/d/a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename("/d/a.tmp", "/d/b"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("rename of a missing file: %v", err)
	}
	if _, err := m.CreateExcl("/d/a"); !errors.Is(err, os.ErrExist) {
		t.Errorf("exclusive create over an existing file: %v", err)
	}
	if _, err := m.CreateExcl("/d/b"); err != nil {
		t.Fatal(err)
	}
	m.Create("/other/c")

	r, err := m.Open("/d/a")
	if err != nil {
		t.Fatal(err)
	}
	w, _ := m.Create("/d/a") // a truncating re-create must not disturb the open reader
	w.Write([]byte("x"))
	data, err := io.ReadAll(r)
	if err != nil || string(data) != "hello world" {
		t.Errorf("read %q, %v", data, err)
	}
	if info, err := w.Stat(); err != nil || info.Size() != 1 || info.Name() != "a" {
		t.Errorf("stat %v, %v", info, err)
	}
	entries, err := m.ReadDir("/d/")
	if err != nil || len(entries) != 2 || entries[0].Name() != "a" || entries[1].Name() != "b" || entries[0].IsDir() {
		t.Errorf("readdir %v, %v", entries, err)
	}
	if err := m.Remove("/d/b"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("/d/b"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("second remove: %v", err)
	}
}

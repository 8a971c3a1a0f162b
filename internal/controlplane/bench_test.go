package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/riveterdb/riveter/internal/obs"
)

// benchEnvelope is a realistic ~300-byte instance answer: a done session
// with a small inlined result, the shape every proxied request decodes.
var benchEnvelope = []byte(`{"id":"s-000042","key":"bench-key","state":"done",` +
	`"query":"tpch-q6","priority":"normal","instance":"bench",` +
	`"result":{"num_rows":1,"columns":["revenue"],"rows":[["123456.7890"]],` +
	`"elapsed_ns":41830042,"suspensions":0},` +
	`"submitted":"2026-01-02T15:04:05Z","finished":"2026-01-02T15:04:05.041Z"}`)

// benchInstance is a loopback instance answering every request with the
// canned envelope — the benchmarks pay one real HTTP round trip, so the
// resilience layer's fixed cost is measured against the same denominator
// a production request pays.
func benchInstance(b *testing.B) *httptest.Server {
	b.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			io.Copy(io.Discard, r.Body)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(benchEnvelope)
	}))
	b.Cleanup(ts.Close)
	return ts
}

var benchSubmitBody = []byte(`{"tpch":6,"session":"bench-key","priority":"normal"}`)

// BenchmarkProxyDirect is the baseline: a bare http.Client doing exactly
// the per-request work (build, send over loopback, decode, drain) with
// no resilience layer.
func BenchmarkProxyDirect(b *testing.B) {
	ts := benchInstance(b)
	client := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	ctx := context.Background()
	url := ts.URL + "/query"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(benchSubmitBody))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		var env sessionEnvelope
		if derr := json.NewDecoder(resp.Body).Decode(&env); derr != nil {
			b.Fatal(derr)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if env["state"] != "done" {
			b.Fatalf("envelope = %v", env)
		}
	}
}

// BenchmarkProxyResilient sends the same request through the proxy's
// full retry/breaker path (p.do): per-attempt context deadline, breaker
// admission, outcome reporting, transient classification. Compare it
// with BenchmarkProxyDirect: resilience must be cheap on the happy path.
func BenchmarkProxyResilient(b *testing.B) {
	ts := benchInstance(b)
	met := obs.NewRegistry()
	reg := NewRegistry(RegistryConfig{HealthInterval: time.Hour, DeadAfter: 1 << 20, Metrics: met})
	defer reg.Close()
	p := NewProxy(ProxyConfig{
		Registry:  reg,
		Metrics:   met,
		Transport: http.DefaultTransport.(*http.Transport).Clone(),
	})
	// Register without probing: the stub answers /healthz with the bench
	// envelope, which is good enough for liveness but skipping the probe
	// keeps setup out of the measurement entirely.
	reg.mu.Lock()
	reg.members["bench"] = &member{id: "bench", url: ts.URL, alive: true}
	reg.mu.Unlock()
	ctx := context.Background()
	c := call{
		target: "bench", method: http.MethodPost,
		url: ts.URL + "/query", body: benchSubmitBody, idempotent: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, status, err := p.do(ctx, c)
		if err != nil || status != http.StatusOK {
			b.Fatalf("do = status %d, err %v", status, err)
		}
		if env["state"] != "done" {
			b.Fatalf("envelope = %v", env)
		}
	}
}

// BenchmarkProxyOverhead measures that cost directly: each iteration
// pays one bare-client request AND one p.do request against the same
// loopback instance, alternating within the same wall-clock window, and
// the resilience layer's cost is reported as the paired overhead-pct
// custom metric. Pairing is the point — grouped benchmark runs drift
// with machine load, which swamps the ~microsecond breaker/retry cost,
// while back-to-back samples see the same machine.
func BenchmarkProxyOverhead(b *testing.B) {
	ts := benchInstance(b)
	met := obs.NewRegistry()
	reg := NewRegistry(RegistryConfig{HealthInterval: time.Hour, DeadAfter: 1 << 20, Metrics: met})
	defer reg.Close()
	transport := http.DefaultTransport.(*http.Transport).Clone()
	p := NewProxy(ProxyConfig{Registry: reg, Metrics: met, Transport: transport})
	reg.mu.Lock()
	reg.members["bench"] = &member{id: "bench", url: ts.URL, alive: true}
	reg.mu.Unlock()
	client := &http.Client{Transport: transport}
	ctx := context.Background()
	url := ts.URL + "/query"
	c := call{
		target: "bench", method: http.MethodPost,
		url: url, body: benchSubmitBody, idempotent: true,
	}

	direct := func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(benchSubmitBody))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		var env sessionEnvelope
		if derr := json.NewDecoder(resp.Body).Decode(&env); derr != nil {
			b.Fatal(derr)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resilient := func() {
		if _, status, err := p.do(ctx, c); err != nil || status != http.StatusOK {
			b.Fatalf("do = status %d, err %v", status, err)
		}
	}

	// Warm both paths (connection pool, JSON decoder) outside the timings.
	direct()
	resilient()

	var directNs, resilientNs time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		direct()
		t1 := time.Now()
		resilient()
		t2 := time.Now()
		directNs += t1.Sub(t0)
		resilientNs += t2.Sub(t1)
	}
	b.StopTimer()
	if directNs > 0 {
		overhead := (float64(resilientNs) - float64(directNs)) / float64(directNs) * 100
		b.ReportMetric(overhead, "overhead-pct")
		b.ReportMetric(float64(directNs.Nanoseconds())/float64(b.N), "direct-ns/op")
	}
}

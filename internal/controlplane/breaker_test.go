package controlplane

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/riveterdb/riveter/internal/obs"
)

// healthStub is a minimal instance: /healthz answers accepting, /metrics
// answers an empty snapshot. Enough for the registry's prober.
// setNow swaps the registry's clock, so that tests drive breaker cooldowns
// without sleeping.
func setNow(r *Registry, fn func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nowFn = fn
}

func healthStub(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"accepting"}`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{}`)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestBreakerLifecycle drives one instance's circuit breaker through the
// full state machine with a fake clock: consecutive failures trip it,
// the cooldown matures it to half-open, a failed trial re-opens it, a
// successful trial closes it, and MarkDead plus a matured probe exercise
// the quarantine-then-probe-as-trial recovery path.
func TestBreakerLifecycle(t *testing.T) {
	ts := healthStub(t)
	met := obs.NewRegistry()
	reg := NewRegistry(RegistryConfig{
		HealthInterval:   time.Hour, // the test drives every probe by hand
		DeadAfter:        1 << 20,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute,
		Metrics:          met,
	})
	defer reg.Close()

	// Fake clock: a base instant plus an atomic offset the test advances.
	base := time.Unix(1_700_000_000, 0)
	var offset atomic.Int64
	setNow(reg, func() time.Time { return base.Add(time.Duration(offset.Load())) })
	advance := func(d time.Duration) { offset.Add(int64(d)) }

	const id = "brk"
	reg.Register(id, ts.URL)
	breaker := func() string {
		t.Helper()
		v, ok := reg.View(id)
		if !ok {
			t.Fatal("instance vanished from the registry")
		}
		return v.Breaker
	}
	if got := breaker(); got != "" {
		t.Fatalf("fresh breaker = %q, want closed", got)
	}

	// Two failures, a success, two more failures: the success resets the
	// consecutive-failure count, so the breaker stays closed.
	reg.ReportOutcome(id, false)
	reg.ReportOutcome(id, false)
	reg.ReportOutcome(id, true)
	reg.ReportOutcome(id, false)
	reg.ReportOutcome(id, false)
	if got := breaker(); got != "" {
		t.Fatalf("breaker after interrupted failure run = %q, want closed", got)
	}
	if !reg.BreakerAllow(id) {
		t.Fatal("closed breaker rejected a request")
	}

	// Third consecutive failure trips it.
	reg.ReportOutcome(id, false)
	if got := breaker(); got != "open" {
		t.Fatalf("breaker after threshold failures = %q, want open", got)
	}
	if v, _ := reg.View(id); v.Accepting() {
		t.Fatal("open-breaker instance still Accepting()")
	}
	if reg.BreakerAllow(id) {
		t.Fatal("open breaker allowed a request inside the cooldown")
	}

	// Cooldown elapses: half-open, exactly one trial at a time.
	advance(61 * time.Second)
	if got := breaker(); got != "half-open" {
		t.Fatalf("breaker past cooldown = %q, want half-open", got)
	}
	if !reg.BreakerAllow(id) {
		t.Fatal("half-open breaker refused the trial request")
	}
	if reg.BreakerAllow(id) {
		t.Fatal("half-open breaker allowed a second concurrent trial")
	}

	// The trial fails: re-open, cooldown restarts.
	reg.ReportOutcome(id, false)
	if got := breaker(); got != "open" {
		t.Fatalf("breaker after failed trial = %q, want open", got)
	}
	if reg.BreakerAllow(id) {
		t.Fatal("re-opened breaker allowed a request")
	}

	// Second trial succeeds: closed, full service.
	advance(61 * time.Second)
	if !reg.BreakerAllow(id) {
		t.Fatal("matured breaker refused the second trial")
	}
	reg.ReportOutcome(id, true)
	if got := breaker(); got != "" {
		t.Fatalf("breaker after successful trial = %q, want closed", got)
	}
	if !reg.BreakerAllow(id) || !reg.BreakerAllow(id) {
		t.Fatal("closed breaker throttled requests")
	}

	// MarkDead trips the breaker; a probe answered past the cooldown is
	// the trial that closes it again (probe-as-trial).
	if !reg.MarkDead(id) {
		t.Fatal("MarkDead on a live instance reported no transition")
	}
	if got := breaker(); got != "open" {
		t.Fatalf("breaker after MarkDead = %q, want open", got)
	}
	advance(61 * time.Second)
	if !reg.ProbeNow(id) {
		t.Fatal("probe against the live stub failed")
	}
	v, _ := reg.View(id)
	if v.Breaker != "" || !v.Alive || !v.Accepting() {
		t.Fatalf("post-recovery view = %+v, want alive, accepting, breaker closed", v)
	}

	if got := met.Counter(obs.MetricCPBreakerOpened).Value(); got != 3 {
		t.Errorf("breaker.opened = %d, want 3", got)
	}
	if got := met.Counter(obs.MetricCPBreakerClosed).Value(); got != 2 {
		t.Errorf("breaker.closed = %d, want 2", got)
	}
	if got := met.Counter(obs.MetricCPBreakerRejected).Value(); got < 3 {
		t.Errorf("breaker.rejected = %d, want >= 3", got)
	}
}

// retryProxy builds a proxy with a tight backoff schedule over a plain
// transport, suitable for driving p.do against local stubs.
func retryProxy(t *testing.T) (*Proxy, *obs.Registry) {
	t.Helper()
	met := obs.NewRegistry()
	reg := NewRegistry(RegistryConfig{HealthInterval: time.Hour, DeadAfter: 1 << 20, Metrics: met})
	t.Cleanup(reg.Close)
	p := NewProxy(ProxyConfig{
		Registry:       reg,
		Metrics:        met,
		RequestTimeout: 5 * time.Second,
		Retry:          RetryPolicy{Budget: 3, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond, Seed: 5},
	})
	return p, met
}

// TestRetryTransientThenSuccess proves the classifier: two 500s are
// transient, burn retry budget, and the third attempt's 200 wins.
func TestRetryTransientThenSuccess(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, `{"state":"done"}`)
	}))
	defer ts.Close()
	p, met := retryProxy(t)

	env, status, err := p.do(context.Background(), call{
		method: http.MethodPost, url: ts.URL + "/query",
		body: []byte(`{"tpch":6}`), idempotent: true,
	})
	if err != nil || status != http.StatusOK {
		t.Fatalf("do = status %d, err %v", status, err)
	}
	if env["state"] != "done" {
		t.Fatalf("envelope = %v", env)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
	if got := met.Counter(obs.MetricCPRetries).Value(); got != 2 {
		t.Errorf("proxy.retries = %d, want 2", got)
	}
}

// TestRetry503IsConclusive proves a 503 is an answer, not a failure: the
// routing layer must re-pick, so the retry layer returns it on the first
// attempt instead of hammering a draining instance.
func TestRetry503IsConclusive(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"status":"draining"}`)
	}))
	defer ts.Close()
	p, met := retryProxy(t)

	_, status, err := p.do(context.Background(), call{
		method: http.MethodPost, url: ts.URL + "/query",
		body: []byte(`{"tpch":6}`), idempotent: true,
	})
	if err != nil || status != http.StatusServiceUnavailable {
		t.Fatalf("do = status %d, err %v; want a clean 503", status, err)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d attempts, want 1 (503 must not retry)", got)
	}
	if got := met.Counter(obs.MetricCPRetries).Value(); got != 0 {
		t.Errorf("proxy.retries = %d, want 0", got)
	}
}

// TestRetryTruncatedBodyIsTransient proves an undecodable 200 body (the
// connection died mid-response) retries like a transport failure.
func TestRetryTruncatedBodyIsTransient(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			fmt.Fprint(w, `{"state":"do`) // cut mid-body
			return
		}
		fmt.Fprint(w, `{"state":"done"}`)
	}))
	defer ts.Close()
	p, met := retryProxy(t)

	env, status, err := p.do(context.Background(), call{
		method: http.MethodPost, url: ts.URL + "/query",
		body: []byte(`{"tpch":6}`), idempotent: true,
	})
	if err != nil || status != http.StatusOK || env["state"] != "done" {
		t.Fatalf("do = env %v, status %d, err %v", env, status, err)
	}
	if got := hits.Load(); got != 2 {
		t.Errorf("server saw %d attempts, want 2", got)
	}
	if got := met.Counter(obs.MetricCPRetries).Value(); got != 1 {
		t.Errorf("proxy.retries = %d, want 1", got)
	}
}

// TestRetryNonIdempotentSingleAttempt proves non-idempotent calls get
// exactly one attempt regardless of the budget.
func TestRetryNonIdempotentSingleAttempt(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	p, met := retryProxy(t)

	_, _, err := p.do(context.Background(), call{
		method: http.MethodPost, url: ts.URL + "/drain",
		body: []byte(`{}`), idempotent: false,
	})
	if err == nil {
		t.Fatal("persistent 500 on a non-idempotent call must surface an error")
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d attempts, want 1", got)
	}
	if got := met.Counter(obs.MetricCPRetryExhausted).Value(); got != 1 {
		t.Errorf("proxy.retry_exhausted = %d, want 1", got)
	}
}

// TestRetryBreakerShortCircuit proves an open breaker fails the call
// locally: the quarantined instance never sees the request.
func TestRetryBreakerShortCircuit(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprint(w, `{"state":"done"}`)
	}))
	defer ts.Close()
	met := obs.NewRegistry()
	reg := NewRegistry(RegistryConfig{
		HealthInterval: time.Hour, DeadAfter: 1 << 20,
		BreakerThreshold: 2, BreakerCooldown: time.Hour, Metrics: met,
	})
	defer reg.Close()
	p := NewProxy(ProxyConfig{Registry: reg, Metrics: met,
		Retry: RetryPolicy{Budget: 3, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond, Seed: 5}})

	reg.Register("quarantined", ts.URL)
	probeHits := hits.Load() // Register probes the stub; don't count those
	reg.ReportOutcome("quarantined", false)
	reg.ReportOutcome("quarantined", false)

	_, _, err := p.do(context.Background(), call{
		target: "quarantined", method: http.MethodPost, url: ts.URL + "/query",
		body: []byte(`{"tpch":6}`), idempotent: true,
	})
	if !errors.Is(err, errBreakerOpen) {
		t.Fatalf("do against an open breaker = %v, want errBreakerOpen", err)
	}
	if got := hits.Load() - probeHits; got != 0 {
		t.Errorf("quarantined instance saw %d requests, want 0", got)
	}
}

// TestBreakerIgnoresAbandonedHeldReads: a caller that hangs up mid-attempt
// — a client abandoning its held session read — says nothing about the
// instance. However many do, the breaker stays closed, and an abandoned
// half-open trial frees the trial slot instead of holding it; a real
// transport failure still counts.
func TestBreakerIgnoresAbandonedHeldReads(t *testing.T) {
	arrived := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			fmt.Fprint(w, `{"status":"accepting"}`)
			return
		case !strings.HasPrefix(r.URL.Path, "/sessions/"):
			fmt.Fprint(w, `{}`)
			return
		}
		arrived <- struct{}{}
		<-r.Context().Done() // a hold that outlives its caller
	}))
	defer ts.Close()
	const threshold = 2
	met := obs.NewRegistry()
	reg := NewRegistry(RegistryConfig{
		HealthInterval: time.Hour, DeadAfter: 1 << 20,
		BreakerThreshold: threshold, BreakerCooldown: time.Minute, Metrics: met,
	})
	defer reg.Close()
	base := time.Unix(1_700_000_000, 0)
	var offset atomic.Int64
	setNow(reg, func() time.Time { return base.Add(time.Duration(offset.Load())) })
	p := NewProxy(ProxyConfig{Registry: reg, Metrics: met,
		Retry: RetryPolicy{Budget: 3, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond, Seed: 5}})
	const id = "held"
	reg.Register(id, ts.URL)

	abandon := func() {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, _, err := p.do(ctx, call{target: id, method: http.MethodGet,
				url: ts.URL + "/sessions/key/k?wait=1s", idempotent: true})
			errc <- err
		}()
		defer cancel()
		select {
		case <-arrived:
		case err := <-errc: // e.g. rejected locally by an open breaker
			t.Fatalf("held read never reached the instance: %v", err)
		}
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned held read = %v, want context.Canceled", err)
		}
	}
	for i := 0; i < 3*threshold; i++ {
		abandon()
	}
	if v, _ := reg.View(id); v.Breaker != "" {
		t.Fatalf("breaker after %d abandoned reads = %q, want closed", 3*threshold, v.Breaker)
	}
	if got := met.Counter(obs.MetricCPRetries).Value(); got != 0 {
		t.Errorf("abandoned reads were retried %d times", got)
	}

	// A real transport failure still counts: the listener is gone.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	if _, _, err := p.do(context.Background(), call{target: id, method: http.MethodGet,
		url: dead.URL + "/sessions/key/k", idempotent: true}); err == nil {
		t.Fatal("request to a closed listener succeeded")
	}
	if v, _ := reg.View(id); v.Breaker != "open" {
		t.Fatalf("breaker after transport failures = %q, want open", v.Breaker)
	}

	// Half-open: the one trial is abandoned, and the next request may try.
	offset.Add(int64(2 * time.Minute))
	abandon()
	if !reg.BreakerAllow(id) {
		t.Error("an abandoned half-open trial kept the trial slot")
	}
}

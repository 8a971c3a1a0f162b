package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// RetryPolicy bounds the proxy's per-request retry behaviour. One
// logical fleet request (a submit, a session fetch, an adoption) gets a
// budget of attempts; between attempts the proxy sleeps a full-jitter
// capped exponential backoff, so a fleet-wide blip does not turn into a
// synchronized retry stampede against the instance that just came back.
type RetryPolicy struct {
	// Budget is the attempt count per idempotent request (default 3).
	// Non-idempotent requests always get exactly one attempt.
	Budget int
	// BackoffBase seeds the exponential schedule (default 10ms): the
	// attempt-n ceiling is min(BackoffMax, BackoffBase << n), and the
	// actual sleep is uniform in (0, ceiling] — "full jitter".
	BackoffBase time.Duration
	// BackoffMax caps any single sleep (default 500ms).
	BackoffMax time.Duration
	// Seed makes the jitter sequence reproducible (default 1).
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Budget <= 0 {
		p.Budget = 3
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 10 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 500 * time.Millisecond
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// errBreakerOpen marks a request rejected locally because the target
// instance's circuit breaker is open. The routing loops treat it like a
// routing problem (pick elsewhere), not a transport failure (no probe,
// no failover — the instance is already quarantined).
var errBreakerOpen = errors.New("controlplane: instance breaker open")

// sharedTransport is the fleet-wide pooled transport: every proxy and
// registry client in the process shares one connection pool instead of
// each *http.Client growing private idle sockets to the same instances.
var (
	sharedTransportOnce sync.Once
	sharedTransportVal  http.RoundTripper
)

func sharedTransport() http.RoundTripper {
	sharedTransportOnce.Do(func() {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConns = 128
		t.MaxIdleConnsPerHost = 32
		sharedTransportVal = t
	})
	return sharedTransportVal
}

// call is one fleet-internal HTTP exchange as the retry layer sees it.
type call struct {
	// target is the instance id, for breaker accounting; "" skips the
	// breaker (e.g. the instance is not registry-tracked).
	target string
	method string
	url    string
	body   []byte // nil for GET; re-readable across attempts
	// timeout bounds each attempt (not the whole budget); 0 means the
	// proxy's RequestTimeout.
	timeout time.Duration
	// idempotent requests may burn the whole retry budget. All proxy
	// submissions are keyed (the instance dedups by session key), so
	// they qualify; drains do not.
	idempotent bool
}

// transientStatus reports whether an HTTP status is worth retrying: the
// instance (or something between us and it) failed mid-request, rather
// than answering with a decision. 503 is deliberately NOT here — a
// draining instance answers 503 and the routing loop must re-pick, not
// hammer the same drain.
func transientStatus(status int) bool {
	switch status {
	case http.StatusInternalServerError, http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// do runs one logical fleet request under the retry budget, reporting
// every attempt's outcome to the target's circuit breaker — except an
// attempt that failed because ctx (the caller) ended. It returns
// the first conclusive answer (any status outside transientStatus), or
// errBreakerOpen when the breaker rejects the request locally, or a
// budget-exhausted error wrapping the last failure.
func (p *Proxy) do(ctx context.Context, c call) (sessionEnvelope, int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	attempts := p.retry.Budget
	if !c.idempotent {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			p.met.retries.Inc()
			if err := p.sleepBackoff(ctx, attempt-1); err != nil {
				return nil, 0, err
			}
		}
		if c.target != "" && !p.reg.BreakerAllow(c.target) {
			return nil, 0, fmt.Errorf("%w: %s", errBreakerOpen, c.target)
		}
		env, status, err := p.once(ctx, c)
		if err != nil && ctx.Err() != nil {
			// The caller hung up or ran out of time mid-attempt. That says
			// nothing about the instance, so the breaker is not charged —
			// or clients abandoning held reads would quarantine it.
			if c.target != "" {
				p.reg.ReportAbandoned(c.target)
			}
			return nil, 0, ctx.Err()
		}
		ok := err == nil && !transientStatus(status)
		if c.target != "" {
			p.reg.ReportOutcome(c.target, ok)
		}
		if ok {
			return env, status, nil
		}
		if err == nil {
			err = fmt.Errorf("controlplane: %s answered %d", c.url, status)
		}
		lastErr = err
		if ctx.Err() != nil {
			// The parent (client) context died; further attempts are
			// pointless and their sleeps would just hold the handler open.
			return nil, 0, ctx.Err()
		}
	}
	p.met.retryExhausted.Inc()
	return nil, 0, fmt.Errorf("controlplane: retry budget exhausted (%d attempts): %w", attempts, lastErr)
}

// once performs a single attempt: its own deadline, a context-built
// request, and a drained-and-closed body on every path.
func (p *Proxy) once(ctx context.Context, c call) (sessionEnvelope, int, error) {
	timeout := c.timeout
	if timeout <= 0 {
		timeout = p.reqTimeout
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var rd io.Reader
	if c.body != nil {
		rd = bytes.NewReader(c.body)
	}
	req, err := http.NewRequestWithContext(actx, c.method, c.url, rd)
	if err != nil {
		return nil, 0, err
	}
	if c.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var env sessionEnvelope
	if derr := json.NewDecoder(resp.Body).Decode(&env); derr != nil {
		if resp.StatusCode == http.StatusOK {
			// A truncated or garbled success body is unusable — treat it
			// like a transport failure so the attempt retries. For error
			// statuses the code alone is the answer; bodies are optional.
			return nil, 0, fmt.Errorf("controlplane: reading %s response: %w", c.url, derr)
		}
	}
	io.Copy(io.Discard, resp.Body) // finish the body so the connection is reusable
	return env, resp.StatusCode, nil
}

// sleepBackoff sleeps the full-jitter backoff for retry n (0-based),
// honouring ctx.
func (p *Proxy) sleepBackoff(ctx context.Context, n int) error {
	ceiling := p.retry.BackoffMax
	if n < 62 {
		if d := p.retry.BackoffBase << n; d > 0 && d < ceiling {
			ceiling = d
		}
	}
	p.rngMu.Lock()
	d := time.Duration(p.rng.Int63n(int64(ceiling))) + 1
	p.rngMu.Unlock()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

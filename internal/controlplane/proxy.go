package controlplane

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/server"
)

// ProxyConfig configures the session-routing proxy.
type ProxyConfig struct {
	// Registry tracks the fleet. Required; the proxy hooks its OnDeath.
	Registry *Registry
	// Metrics receives the controlplane.* counters and latency histograms.
	Metrics *obs.Registry
	// RequestTimeout bounds one forwarded instance request (default 2s).
	// A wait-mode session read asks the instance to hold it for half of
	// that (at most server.MaxHold), so the attempt deadline still catches
	// a dead or partitioned instance within one RequestTimeout.
	// Drains get DrainTimeout (default 30s) — evacuating a running query
	// legitimately takes until its next pipeline breaker.
	RequestTimeout time.Duration
	DrainTimeout   time.Duration
	// Retry bounds the per-request retry budget and backoff schedule.
	Retry RetryPolicy
	// Transport, when set, replaces the proxy's instance-facing
	// RoundTripper — the chaos harness injects faultnet here. Defaults to
	// the process-wide pooled transport.
	Transport http.RoundTripper
	// OnRegister fires after POST /fleet/register adds an instance — the
	// spot driver hooks lifecycle sampling here.
	OnRegister func(id string)
}

// route pins one client session key to an instance.
type route struct {
	instance string // current owner's id
	sid      string // instance-local session id (informational)
	body     []byte // normalized submit body, replayed when no state survives
}

type proxyMetrics struct {
	requests       *obs.Counter
	failovers      *obs.Counter
	rerouted       *obs.Counter
	resubmitted    *obs.Counter
	adopted        *obs.Counter
	drains         *obs.Counter
	drainSkip      *obs.Counter
	wakes          *obs.Counter
	retries        *obs.Counter
	retryExhausted *obs.Counter
	latency        *obs.Histogram
	waitLatency    *obs.Histogram
	waitRounds     *obs.Counter
}

// Proxy is the fleet's single client endpoint: it owns the session-key →
// instance routing table and hides instance death, drain, and
// scale-to-zero wake-ups behind it. All its state is soft — rebuildable
// from the instances and the shared store — so the proxy itself needs no
// checkpointing.
type Proxy struct {
	reg    *Registry
	metReg *obs.Registry
	met    proxyMetrics
	// client carries no flat timeout: every attempt gets its own
	// context deadline in once() (reqTimeout for regular requests,
	// drainTimeout for drains).
	client       *http.Client
	reqTimeout   time.Duration
	drainTimeout time.Duration
	hold         time.Duration // one held session read: reqTimeout/2
	retry        RetryPolicy

	// rng drives the full-jitter backoff; seeded so chaos runs replay.
	rngMu sync.Mutex
	rng   *rand.Rand

	onRegister func(id string)

	seq atomic.Uint64

	mu     sync.Mutex
	routes map[string]*route

	// moveMu single-flights failover and drain — the two paths that bulk-
	// rewrite the routing table. Concurrent request-path failures for the
	// same dead instance queue behind the first and find the routes
	// already moved.
	moveMu sync.Mutex
}

// NewProxy builds a proxy over a registry and hooks instance-death
// handling into it.
func NewProxy(cfg ProxyConfig) *Proxy {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	retry := cfg.Retry.withDefaults()
	transport := cfg.Transport
	if transport == nil {
		transport = sharedTransport()
	}
	p := &Proxy{
		reg:          cfg.Registry,
		metReg:       cfg.Metrics,
		client:       &http.Client{Transport: transport},
		reqTimeout:   cfg.RequestTimeout,
		drainTimeout: cfg.DrainTimeout,
		hold:         min(cfg.RequestTimeout/2, server.MaxHold),
		retry:        retry,
		rng:          rand.New(rand.NewSource(retry.Seed)),
		onRegister:   cfg.OnRegister,
		routes:       map[string]*route{},
		met: proxyMetrics{
			requests:       cfg.Metrics.Counter(obs.MetricCPProxyRequests),
			failovers:      cfg.Metrics.Counter(obs.MetricCPFailovers),
			rerouted:       cfg.Metrics.Counter(obs.MetricCPRerouted),
			resubmitted:    cfg.Metrics.Counter(obs.MetricCPResubmitted),
			adopted:        cfg.Metrics.Counter(obs.MetricCPAdopted),
			drains:         cfg.Metrics.Counter(obs.MetricCPDrains),
			drainSkip:      cfg.Metrics.Counter(obs.MetricCPDrainSkipped),
			wakes:          cfg.Metrics.Counter(obs.MetricCPWakeRequests),
			retries:        cfg.Metrics.Counter(obs.MetricCPRetries),
			retryExhausted: cfg.Metrics.Counter(obs.MetricCPRetryExhausted),
			latency:        cfg.Metrics.DurationHistogram(obs.MetricCPProxyLatency),
			waitLatency:    cfg.Metrics.DurationHistogram(obs.MetricCPProxyWaitLatency),
			waitRounds:     cfg.Metrics.Counter(obs.MetricCPWaitRounds),
		},
	}
	if cfg.Registry.cfg.OnDeath == nil {
		cfg.Registry.cfg.OnDeath = func(id string) { p.failover(id, false) }
	}
	return p
}

// Registry returns the proxy's instance registry.
func (p *Proxy) Registry() *Registry { return p.reg }

// submitRequest mirrors the instance's POST /query body.
type submitRequest struct {
	SQL      string `json:"sql,omitempty"`
	TPCH     int    `json:"tpch,omitempty"`
	Priority string `json:"priority,omitempty"`
	Wait     bool   `json:"wait,omitempty"`
	Session  string `json:"session,omitempty"`
}

// sessionEnvelope is an instance's session response, passed through
// opaquely (the proxy reads a few fields, never re-shapes the result).
type sessionEnvelope map[string]any

func (e sessionEnvelope) str(k string) string {
	s, _ := e[k].(string)
	return s
}

func (e sessionEnvelope) flag(k string) bool {
	b, _ := e[k].(bool)
	return b
}

// Handler returns the proxy's HTTP API:
//
//	GET  /healthz           proxy liveness + routable instance count
//	POST /query             submit through the fleet (body as the instance API,
//	                        plus routing; "session" names the fleet-wide key)
//	GET  /sessions/{key}    session by key, re-routed transparently;
//	                        ?wait=<dur> holds until the session finishes or
//	                        the wait (at most server.MaxHold) expires, then
//	                        answers the current snapshot
//	GET  /fleet/instances   instance views + proxy latency quantiles
//	GET  /fleet/metrics     proxy + per-instance metric snapshots
//	POST /fleet/register    {"id","url"} add an instance
//	POST /fleet/drain/{id}  evacuate an instance and rebalance its sessions
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	mux.HandleFunc("POST /query", p.handleQuery)
	mux.HandleFunc("GET /sessions/{key}", p.handleSession)
	mux.HandleFunc("GET /fleet/instances", p.handleInstances)
	mux.HandleFunc("GET /fleet/metrics", p.handleFleetMetrics)
	mux.HandleFunc("POST /fleet/register", p.handleRegister)
	mux.HandleFunc("POST /fleet/drain/{id}", p.handleFleetDrain)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	n := 0
	for _, v := range p.reg.Views() {
		if v.Accepting() {
			n++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "accepting": n})
}

func (p *Proxy) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	p.met.requests.Inc()
	var req submitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	key := req.Session
	if key == "" {
		key = fmt.Sprintf("px-%d", p.seq.Add(1))
	}
	fwd := req
	fwd.Wait = false // waiting is proxy-side, so a failover mid-wait is survivable
	fwd.Session = key
	body, _ := json.Marshal(fwd)

	env, inst, status, err := p.submitRoute(r.Context(), key, body)
	if err != nil {
		writeError(w, status, err)
		return
	}
	if req.Wait {
		env, inst, _, err = p.waitForKey(r.Context(), key, time.Time{})
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		p.met.waitLatency.ObserveDuration(time.Since(start))
	} else {
		p.met.latency.ObserveDuration(time.Since(start))
	}
	env["session_key"] = key
	env["instance"] = inst
	writeJSON(w, http.StatusOK, env)
}

func (p *Proxy) handleSession(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	p.met.requests.Inc()
	key := r.PathValue("key")
	hold, err := server.ParseHold(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var (
		env    sessionEnvelope
		inst   string
		status int
	)
	if hold > 0 {
		env, inst, status, err = p.waitForKey(r.Context(), key, start.Add(hold))
	} else {
		env, inst, status, err = p.fetchSession(r.Context(), key, 0)
	}
	if err != nil {
		writeError(w, status, err)
		return
	}
	env["session_key"] = key
	env["instance"] = inst
	if hold > 0 {
		p.met.waitLatency.ObserveDuration(time.Since(start))
	} else {
		p.met.latency.ObserveDuration(time.Since(start))
	}
	writeJSON(w, status, env)
}

// submitRoute forwards a keyed submission, picking (or keeping) the
// session's instance and failing over when the pick turns out dead.
// Every submission is keyed (the instance dedups by key), so the inner
// retry layer may replay it freely; this outer loop only handles
// routing outcomes — dead instance, drain, breaker quarantine. A pin it
// moves off an unknown or quarantined instance counts as a failover, a
// resubmitted one: the death handler then finds the key moved already.
func (p *Proxy) submitRoute(ctx context.Context, key string, body []byte) (sessionEnvelope, string, int, error) {
	failedOver := false
	for attempt := 0; attempt < 6; attempt++ {
		target, pinned := p.routeInstance(key)
		if !pinned {
			v, ok := PickTarget(p.reg.Views())
			if !ok {
				return nil, "", http.StatusServiceUnavailable, errors.New("controlplane: no accepting instance")
			}
			target = v.ID
		}
		view, ok := p.reg.View(target)
		if !ok {
			failedOver = p.unpin(key, target) || failedOver
			continue
		}
		env, status, err := p.do(ctx, call{
			target:     target,
			method:     http.MethodPost,
			url:        view.URL + "/query",
			body:       body,
			idempotent: true,
		})
		switch {
		case errors.Is(err, errBreakerOpen):
			// Quarantined: route elsewhere without probing — the breaker
			// is already holding the instance out of service.
			failedOver = p.unpin(key, target) || failedOver
			continue
		case err != nil:
			if ctx.Err() != nil {
				return nil, "", http.StatusServiceUnavailable, ctx.Err()
			}
			p.failover(target, true)
			continue
		case status == http.StatusOK:
			p.pin(key, target, env.str("id"), body)
			if failedOver {
				p.met.failovers.Inc()
				p.met.resubmitted.Inc()
			}
			return env, target, status, nil
		case status == http.StatusServiceUnavailable:
			// Draining or shutting down: refresh its status so the next
			// pick avoids it, and try elsewhere.
			p.reg.ProbeNow(target)
			p.unpin(key, target)
			continue
		default:
			return nil, "", status, fmt.Errorf("controlplane: instance %s: %s", target, env.str("error"))
		}
	}
	return nil, "", http.StatusServiceUnavailable, errors.New("controlplane: submit failed after retries")
}

// fetchSession reads a session by key from its pinned instance,
// recovering the route when the instance is dead or has forgotten the
// key. A successful read is a client touch instance-side: it wakes a
// parked session, which the pre-touch "parked" flag in the response
// records (counted as a wake request). A positive hold makes it a held
// read (?wait=): the instance answers when the session finishes or the
// hold expires.
func (p *Proxy) fetchSession(ctx context.Context, key string, hold time.Duration) (sessionEnvelope, string, int, error) {
	path := "/sessions/key/" + url.PathEscape(key)
	if hold > 0 {
		path += "?wait=" + url.QueryEscape(hold.String())
	}
	for attempt := 0; attempt < 6; attempt++ {
		target, pinned := p.routeInstance(key)
		if !pinned {
			return nil, "", http.StatusNotFound, fmt.Errorf("controlplane: unknown session key %s", key)
		}
		view, ok := p.reg.View(target)
		if !ok {
			return nil, "", http.StatusNotFound, fmt.Errorf("controlplane: session %s pinned to unknown instance %s", key, target)
		}
		env, status, err := p.do(ctx, call{
			target:     target,
			method:     http.MethodGet,
			url:        view.URL + path,
			idempotent: true,
		})
		switch {
		case errors.Is(err, errBreakerOpen):
			// The pinned instance is quarantined; move the key to a
			// survivor the same way a failover would.
			p.recoverKeys([]string{key})
			continue
		case err != nil:
			if ctx.Err() != nil {
				return nil, "", http.StatusServiceUnavailable, ctx.Err()
			}
			p.failover(target, true)
			continue
		case status == http.StatusOK:
			if env.flag("parked") {
				p.met.wakes.Inc()
			}
			return env, target, status, nil
		case status == http.StatusNotFound:
			// The instance is alive but doesn't know the key — it
			// restarted empty, or an adoption landed elsewhere. Recover
			// the route the same way a failover would.
			p.recoverKeys([]string{key})
			continue
		default:
			return nil, "", status, fmt.Errorf("controlplane: instance %s: %s", target, env.str("error"))
		}
	}
	return nil, "", http.StatusServiceUnavailable, fmt.Errorf("controlplane: session %s unreachable", key)
}

// waitForKey waits for a session to reach a terminal state with held
// reads, one per round, each through fetchSession — so the wait survives
// any number of failovers, and instance-side each round is a waiter and a
// touch that keeps the session from idle-parking. A non-terminal answer
// after a full hold re-issues at once. A failed round backs off first,
// and so does a hold the instance cut short: an instance releases every
// hold when it starts stopping, and re-issuing at once would spin on it
// until its drain has moved the route.
//
// With a non-zero deadline (a client's GET ?wait=) it gives up there and
// returns the last answer as it stands, and a key the proxy does not know
// is answered at once. A submit's own wait (zero deadline) retries even
// that: a concurrent keyed submit may briefly unpin the key it re-routes.
func (p *Proxy) waitForKey(ctx context.Context, key string, deadline time.Time) (sessionEnvelope, string, int, error) {
	for backoff := 0; ; {
		hold := p.hold
		if !deadline.IsZero() {
			hold = min(hold, time.Until(deadline))
		}
		p.met.waitRounds.Inc()
		sent := time.Now()
		env, inst, status, err := p.fetchSession(ctx, key, hold)
		if err == nil {
			switch env.str("state") {
			case "done", "failed":
				return env, inst, status, nil
			}
		}
		switch {
		case !deadline.IsZero() && (status == http.StatusNotFound || !time.Now().Before(deadline)):
			return env, inst, status, err
		case ctx.Err() != nil:
			return nil, "", http.StatusServiceUnavailable, ctx.Err()
		case err == nil && time.Since(sent) >= hold:
			backoff = 0
			continue
		}
		if err := p.sleepBackoff(ctx, backoff); err != nil {
			return nil, "", http.StatusServiceUnavailable, err
		}
		backoff++
	}
}

// failover moves every session pinned to a dead instance onto a
// survivor. With probe=true (request-path detection) the instance gets
// one synchronous health probe first, so a transient error cannot
// trigger an evacuation. Single-flighted: concurrent detections of the
// same death queue up and find no routes left to move.
func (p *Proxy) failover(id string, probe bool) {
	if probe && p.reg.ProbeNow(id) {
		return // answered — the failure was transient, keep the routes
	}
	p.moveMu.Lock()
	defer p.moveMu.Unlock()
	p.reg.MarkDead(id)
	keys := p.keysPinnedTo(id)
	if len(keys) == 0 {
		return
	}
	p.recoverKeysLocked(keys)
}

// recoverKeys is recoverKeysLocked behind the single-flight lock.
func (p *Proxy) recoverKeys(keys []string) {
	p.moveMu.Lock()
	defer p.moveMu.Unlock()
	p.recoverKeysLocked(keys)
}

// recoverKeysLocked finds the given session keys a new home: pick the
// best accepting instance, have it adopt whatever claimable state the
// shared store holds, then re-pin each key — to the adopted session when
// its key turns up there (rerouted), or by replaying the original
// request when nothing survived (resubmitted). Keys whose recovery fails
// stay pinned; the next request retries the whole dance.
func (p *Proxy) recoverKeysLocked(keys []string) {
	target, ok := PickTarget(p.reg.Views())
	if !ok {
		return
	}
	p.adoptOn(target)
	ctx := context.Background() // recovery outlives any one client request
	for _, key := range keys {
		if cur, pinned := p.routeInstance(key); pinned && cur == target.ID {
			continue // a concurrent recovery already moved it
		}
		env, status, err := p.do(ctx, call{
			target:     target.ID,
			method:     http.MethodGet,
			url:        target.URL + "/sessions/key/" + url.PathEscape(key),
			idempotent: true,
		})
		if err == nil && status == http.StatusOK {
			p.pin(key, target.ID, env.str("id"), nil)
			p.met.failovers.Inc()
			p.met.rerouted.Inc()
			continue
		}
		body := p.routeBody(key)
		if body == nil {
			continue
		}
		env, status, err = p.do(ctx, call{
			target:     target.ID,
			method:     http.MethodPost,
			url:        target.URL + "/query",
			body:       body,
			idempotent: true, // keyed: the instance dedups replays
		})
		if err == nil && status == http.StatusOK {
			p.pin(key, target.ID, env.str("id"), nil)
			p.met.failovers.Inc()
			p.met.resubmitted.Inc()
		}
	}
}

// adoptOn asks an instance to adopt claimable sessions from the shared
// store (POST /admin/adopt). Best-effort: an instance without a store
// answers 400 and the resubmission path covers for it.
func (p *Proxy) adoptOn(target InstanceView) {
	env, status, err := p.do(context.Background(), call{
		target: target.ID,
		method: http.MethodPost,
		url:    target.URL + "/admin/adopt",
		body:   []byte("{}"),
		// Adoption is idempotent: store-level claims fence duplicates.
		idempotent: true,
	})
	if err != nil || status != http.StatusOK {
		return
	}
	if n, ok := env["adopted"].(float64); ok && n > 0 {
		p.met.adopted.Add(int64(n))
	}
}

// DrainAndRebalance deliberately evacuates an instance: its in-flight
// sessions suspend to the shared store, a survivor adopts them, and the
// routing table follows — the spot-notice path, also exposed as POST
// /fleet/drain/{id}. The last accepting instance is never drained
// (counted as controlplane.drain_skipped): a fleet with nowhere left to
// run keeps its doomed instance until a replacement registers.
func (p *Proxy) DrainAndRebalance(id string) error {
	p.moveMu.Lock()
	defer p.moveMu.Unlock()
	view, ok := p.reg.View(id)
	if !ok {
		return fmt.Errorf("controlplane: unknown instance %s", id)
	}
	others := 0
	for _, v := range p.reg.Views() {
		if v.ID != id && v.Accepting() {
			others++
		}
	}
	if others == 0 {
		p.met.drainSkip.Inc()
		return fmt.Errorf("controlplane: refusing to drain %s: last accepting instance", id)
	}
	// Drains are not idempotent (a replay would hit an already-draining
	// instance) and legitimately run long: one attempt, drain-sized
	// deadline, no breaker gate bypass needed — a quarantined instance
	// can still be deliberately evacuated.
	if _, status, err := p.do(context.Background(), call{
		method:  http.MethodPost,
		url:     view.URL + "/admin/drain",
		body:    []byte("{}"),
		timeout: p.drainTimeout,
	}); err != nil {
		return fmt.Errorf("controlplane: drain %s: %w", id, err)
	} else if status != http.StatusOK {
		return fmt.Errorf("controlplane: drain %s: status %d", id, status)
	}
	p.met.drains.Inc()
	// The 200 is the instance's word that it drains: record it before
	// re-picking, so no later notice counts it as accepting even when a
	// probe of the busy instance times out.
	p.reg.SetStatus(id, "draining")
	p.recoverKeysLocked(p.keysPinnedTo(id))
	return nil
}

func (p *Proxy) handleInstances(w http.ResponseWriter, r *http.Request) {
	snap := p.metReg.Snapshot()
	proxy := map[string]any{"requests": snap.Counters[obs.MetricCPProxyRequests]}
	for _, h := range snap.Histograms {
		switch h.Name {
		case obs.MetricCPProxyLatency:
			proxy["p99_ns"] = h.Quantile(0.99)
		case obs.MetricCPProxyWaitLatency:
			proxy["wait_p99_ns"] = h.Quantile(0.99)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"instances": p.reg.Views(),
		"proxy":     proxy,
	})
}

func (p *Proxy) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{"proxy": p.metReg.Snapshot()}
	instances := map[string]any{}
	for _, v := range p.reg.Views() {
		if !v.Alive {
			continue
		}
		env, status, err := p.do(r.Context(), call{
			method:     http.MethodGet,
			url:        v.URL + "/metrics",
			idempotent: true,
		})
		if err != nil || status != http.StatusOK {
			continue
		}
		instances[v.ID] = env
	}
	out["instances"] = instances
	writeJSON(w, http.StatusOK, out)
}

func (p *Proxy) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID  string `json:"id"`
		URL string `json:"url"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.ID == "" || req.URL == "" {
		writeError(w, http.StatusBadRequest, errors.New(`want {"id": ..., "url": ...}`))
		return
	}
	p.reg.Register(req.ID, req.URL)
	if p.onRegister != nil {
		p.onRegister(req.ID)
	}
	v, _ := p.reg.View(req.ID)
	writeJSON(w, http.StatusOK, v)
}

func (p *Proxy) handleFleetDrain(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := p.DrainAndRebalance(id); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	v, _ := p.reg.View(id)
	writeJSON(w, http.StatusOK, map[string]any{"drained": id, "instance": v})
}

// Routing-table accessors.

func (p *Proxy) pin(key, instance, sid string, body []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rt := p.routes[key]
	if rt == nil {
		rt = &route{}
		p.routes[key] = rt
	}
	rt.instance, rt.sid = instance, sid
	if body != nil {
		rt.body = body
	}
}

// unpin drops key's pin to instance from, if it still has it, and reports
// whether it did: a concurrent submit may have moved the key already.
func (p *Proxy) unpin(key, from string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if rt := p.routes[key]; rt != nil && rt.instance == from {
		rt.instance = ""
		return true
	}
	return false
}

func (p *Proxy) routeInstance(key string) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rt := p.routes[key]
	if rt == nil || rt.instance == "" {
		return "", false
	}
	return rt.instance, true
}

func (p *Proxy) routeBody(key string) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	if rt := p.routes[key]; rt != nil {
		return rt.body
	}
	return nil
}

func (p *Proxy) keysPinnedTo(id string) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var keys []string
	for k, rt := range p.routes {
		if rt.instance == id {
			keys = append(keys, k)
		}
	}
	return keys
}

// Package controlplane is Riveter's fleet layer: a session-routing proxy
// in front of a set of riveter-serve instances sharing one blob store.
// The Registry tracks instance health over the instances' own HTTP
// surface (/healthz); the Proxy pins client session keys to live
// instances and transparently re-routes them when an instance dies —
// adopting whatever suspended state the victim left in the shared store,
// and replaying the original request when nothing survived. A SpotDriver
// feeds simulated termination notices (internal/cloud) into deliberate
// drain-and-rebalance evacuations, and the picker prices routing
// decisions with the instances' calibrated cost-model gauges and spot
// prices.
//
// The division of failure handling: instance death is the proxy's
// problem (clients keep one stable endpoint and never see a re-route);
// proxy death is the client's problem (the proxy holds only soft state —
// routes rebuild from session keys, instance registrations re-arrive —
// so restarting it loses nothing durable).
package controlplane

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/server"
)

// RegistryConfig configures instance tracking.
type RegistryConfig struct {
	// HealthInterval is the probe period (default 100ms).
	HealthInterval time.Duration
	// DeadAfter is how many consecutive failed probes mark an instance
	// dead (default 3).
	DeadAfter int
	// ProbeTimeout bounds one health or metrics probe (default 1s) — a
	// dead instance must fail fast, not hold a request for a TCP eternity.
	ProbeTimeout time.Duration
	// BreakerThreshold is how many consecutive request-path failures trip
	// an instance's circuit breaker open (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker quarantines its
	// instance before a half-open trial may re-close it (default 2s).
	BreakerCooldown time.Duration
	// Transport, when set, replaces the probe client's RoundTripper —
	// the chaos harness injects faultnet here.
	Transport http.RoundTripper
	// Metrics receives controlplane.instances / controlplane.deaths and
	// the controlplane.breaker.* family.
	Metrics *obs.Registry
	// OnDeath fires (asynchronously, once per death) when the prober marks
	// an instance dead. The proxy hooks its failover here.
	OnDeath func(id string)
}

// member is one tracked instance.
type member struct {
	id, url  string
	alive    bool
	fails    int
	health   server.Health
	lastSeen time.Time

	// price / basePrice come from the spot driver's price trace; resume
	// penalty from the instance's calibrated costmodel.io.* gauges.
	price, basePrice float64
	resumePenalty    time.Duration

	// brk is the instance's request-path circuit breaker (breaker.go).
	brk breaker

	// marks counts SetStatus calls: a probe that started before the last
	// one carries an older status and does not override it.
	marks int
}

// InstanceView is a point-in-time public snapshot of one instance.
type InstanceView struct {
	ID            string        `json:"id"`
	URL           string        `json:"url"`
	Alive         bool          `json:"alive"`
	Status        string        `json:"status,omitempty"`
	Running       int           `json:"running"`
	Queued        int           `json:"queued"`
	Suspended     int           `json:"suspended"`
	Parked        int           `json:"parked"`
	Sessions      int           `json:"sessions"`
	Price         float64       `json:"price,omitempty"`
	BasePrice     float64       `json:"base_price,omitempty"`
	ResumePenalty time.Duration `json:"resume_penalty_ns,omitempty"`
	LastSeen      time.Time     `json:"last_seen,omitempty"`
	// Breaker is the instance's effective circuit-breaker state:
	// "" (closed), "open", or "half-open".
	Breaker string `json:"breaker,omitempty"`
}

// Live is the instance's live session load: running, queued, and
// suspended-but-destined-to-run sessions. Parked sessions are excluded —
// they hold no slot and cost nothing until woken.
func (v InstanceView) Live() int { return v.Running + v.Queued + v.Suspended }

// Accepting reports whether the instance can take new sessions: alive,
// not draining, and not breaker-quarantined. A half-open breaker still
// accepts — that one trial request is how the breaker re-closes.
func (v InstanceView) Accepting() bool {
	return v.Alive && v.Status == "accepting" && v.Breaker != "open"
}

// Registry tracks the fleet's instances and their health.
type Registry struct {
	cfg    RegistryConfig
	client *http.Client

	// nowFn is the registry's clock — swappable so breaker cooldowns are
	// testable without real sleeps.
	nowFn func() time.Time

	instances     *obs.Gauge
	deaths        *obs.Counter
	probeDraining *obs.Counter
	brkOpened     *obs.Counter
	brkClosed     *obs.Counter
	brkRejected   *obs.Counter
	brkOpen       *obs.Gauge

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	members map[string]*member
}

// NewRegistry builds a registry and starts its health-probe loop.
func NewRegistry(cfg RegistryConfig) *Registry {
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 100 * time.Millisecond
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 3
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	transport := cfg.Transport
	if transport == nil {
		transport = sharedTransport()
	}
	r := &Registry{
		cfg: cfg,
		// Probes are bounded per-request by a context in ProbeNow, not by
		// a flat client timeout.
		client:        &http.Client{Transport: transport},
		nowFn:         time.Now,
		instances:     cfg.Metrics.Gauge(obs.MetricCPInstances),
		deaths:        cfg.Metrics.Counter(obs.MetricCPDeaths),
		probeDraining: cfg.Metrics.Counter(obs.MetricCPProbeDraining),
		brkOpened:     cfg.Metrics.Counter(obs.MetricCPBreakerOpened),
		brkClosed:     cfg.Metrics.Counter(obs.MetricCPBreakerClosed),
		brkRejected:   cfg.Metrics.Counter(obs.MetricCPBreakerRejected),
		brkOpen:       cfg.Metrics.Gauge(obs.MetricCPBreakerOpen),
		members:       map[string]*member{},
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	r.wg.Add(1)
	go r.probeLoop()
	return r
}

// Close stops the probe loop.
func (r *Registry) Close() {
	r.cancel()
	r.wg.Wait()
}

// Register adds (or re-adds) an instance. A re-registration resets the
// death state — the way a restarted instance announces itself.
func (r *Registry) Register(id, url string) {
	r.mu.Lock()
	m := r.members[id]
	if m == nil {
		m = &member{id: id}
		r.members[id] = m
	}
	m.url = url
	m.alive = true
	m.fails = 0
	// A (re-)registration is an operator-grade assertion the instance is
	// back: its breaker restarts closed.
	m.brk = breaker{}
	r.updateGaugeLocked()
	r.updateBreakerGaugeLocked()
	r.mu.Unlock()
	// Probe immediately so the instance is routable without waiting a tick.
	r.ProbeNow(id)
}

// Remove forgets an instance.
func (r *Registry) Remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.members, id)
	r.updateGaugeLocked()
}

// SetPrice records the instance's current and base spot price (fed by the
// spot driver's price trace; the picker scores price/base).
func (r *Registry) SetPrice(id string, price, base float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.members[id]; m != nil {
		m.price, m.basePrice = price, base
	}
}

// MarkDead marks an instance dead immediately (request-path detection
// beat the prober to it). Reports whether this call made the transition.
func (r *Registry) MarkDead(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.members[id]
	if m == nil || !m.alive {
		return false
	}
	m.alive = false
	m.fails = r.cfg.DeadAfter
	// Death trips the breaker: when the instance revives (probes answer
	// again) it still waits out the cooldown before taking traffic, which
	// is the quarantine that stops an alive/dead flapper from reclaiming
	// its sessions every probe interval.
	r.openBreakerLocked(m)
	r.deaths.Inc()
	r.updateGaugeLocked()
	return true
}

// SetStatus records an instance status the proxy learned first-hand — a
// 200 from /admin/drain means "draining" — without waiting for a probe to
// observe it: under load the probe can time out, and the instance would
// keep reading "accepting". A probe that starts after the call overrides
// it, as the instance's own word.
func (r *Registry) SetStatus(id, status string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.members[id]; m != nil {
		m.health.Status = status
		m.marks++
	}
}

// View snapshots one instance.
func (r *Registry) View(id string) (InstanceView, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.members[id]
	if m == nil {
		return InstanceView{}, false
	}
	return m.view(r.nowFn(), r.cfg.BreakerCooldown), true
}

// Views snapshots every instance, sorted by id (deterministic routing
// tie-breaks fall out of this order).
func (r *Registry) Views() []InstanceView {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]InstanceView, 0, len(r.members))
	now, cooldown := r.nowFn(), r.cfg.BreakerCooldown
	for _, m := range r.members {
		out = append(out, m.view(now, cooldown))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (m *member) view(now time.Time, cooldown time.Duration) InstanceView {
	status := m.health.Status
	if !m.alive {
		status = "dead"
	}
	brk := ""
	if s := m.brk.effective(now, cooldown); s != breakerClosed {
		brk = s.String()
	}
	return InstanceView{
		Breaker:       brk,
		ID:            m.id,
		URL:           m.url,
		Alive:         m.alive,
		Status:        status,
		Running:       m.health.Running,
		Queued:        m.health.Queued,
		Suspended:     m.health.Suspended,
		Parked:        m.health.Parked,
		Sessions:      m.health.Sessions,
		Price:         m.price,
		BasePrice:     m.basePrice,
		ResumePenalty: m.resumePenalty,
		LastSeen:      m.lastSeen,
	}
}

// updateGaugeLocked publishes the routable-instance count.
func (r *Registry) updateGaugeLocked() {
	n := 0
	for _, m := range r.members {
		if m.alive {
			n++
		}
	}
	r.instances.Set(int64(n))
}

// probeLoop polls every member's /healthz (and cost gauges) each tick.
func (r *Registry) probeLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-t.C:
		}
		r.mu.Lock()
		ids := make([]string, 0, len(r.members))
		for id := range r.members {
			ids = append(ids, id)
		}
		r.mu.Unlock()
		for _, id := range ids {
			r.ProbeNow(id)
		}
	}
}

// ProbeNow health-checks one instance synchronously and applies the
// result, firing OnDeath on an alive-to-dead transition. Reports whether
// the instance answered.
func (r *Registry) ProbeNow(id string) bool {
	r.mu.Lock()
	m := r.members[id]
	if m == nil {
		r.mu.Unlock()
		return false
	}
	url, marks := m.url, m.marks
	r.mu.Unlock()

	ctx, cancel := context.WithTimeout(r.ctx, r.cfg.ProbeTimeout)
	h, herr := r.fetchHealth(ctx, url)
	penalty, perr := r.fetchResumePenalty(ctx, url)
	cancel()

	r.mu.Lock()
	m = r.members[id] // may have been removed while probing
	if m == nil {
		r.mu.Unlock()
		return false
	}
	if herr != nil {
		m.fails++
		died := m.alive && m.fails >= r.cfg.DeadAfter
		if died {
			m.alive = false
			r.openBreakerLocked(m) // same quarantine as MarkDead
			r.deaths.Inc()
			r.updateGaugeLocked()
		}
		r.mu.Unlock()
		if died && r.cfg.OnDeath != nil {
			go r.cfg.OnDeath(id)
		}
		return false
	}
	m.fails = 0
	m.alive = true
	if m.marks != marks {
		h.Status = m.health.Status // set while this probe was in flight
	}
	m.health = h
	m.lastSeen = r.nowFn()
	if perr == nil {
		m.resumePenalty = penalty
	}
	// Probe-as-trial: an answered probe closes a breaker whose cooldown
	// has elapsed, so a recovered instance returns to service even when no
	// client request is willing to gamble on it first.
	r.maybeCloseBreakerOnProbeLocked(m)
	r.updateGaugeLocked()
	r.mu.Unlock()
	return true
}

// fetchHealth probes one instance's /healthz. A 200 is healthy; a 429 or
// 503 carrying a decodable health document is "draining but alive" — the
// instance answered, it just refuses new sessions, and killing it for
// that would turn every deliberate drain into a spurious failover.
// Anything else is a miss.
func (r *Registry) fetchHealth(ctx context.Context, url string) (server.Health, error) {
	var h server.Health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return h, json.NewDecoder(resp.Body).Decode(&h)
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		if derr := json.NewDecoder(resp.Body).Decode(&h); derr == nil && h.Status != "" {
			r.probeDraining.Inc()
			return h, nil
		}
		return h, fmt.Errorf("controlplane: healthz status %d with no health document", resp.StatusCode)
	default:
		return h, fmt.Errorf("controlplane: healthz status %d", resp.StatusCode)
	}
}

// resumePenaltyProbeBytes is the nominal checkpoint size the picker
// prices a wake-up at: enough to separate a local-speed store from a
// simulated WAN link without measuring real checkpoints.
const resumePenaltyProbeBytes = 1 << 20

// fetchResumePenalty derives the instance's cost of resuming a parked or
// adopted session from its calibrated I/O gauges: one fixed store
// round-trip plus downloading a nominal checkpoint at the calibrated
// bandwidth. Instances whose gauges are unset (no calibration yet) report
// zero penalty.
func (r *Registry) fetchResumePenalty(ctx context.Context, url string) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0, err
	}
	penalty := time.Duration(snap.Gauges[obs.MetricIOFixedLatency])
	if bps := snap.Gauges[obs.MetricIODownloadBps]; bps > 0 {
		penalty += time.Duration(float64(resumePenaltyProbeBytes) / float64(bps) * float64(time.Second))
	}
	return penalty, nil
}

package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/cloud"
	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/server"
)

// instance is one in-process riveter-serve: a server plus its HTTP
// surface, killable mid-load.
type instance struct {
	id  string
	srv *server.Server
	db  *riveter.DB
	hs  *httptest.Server
}

// kill is the SIGKILL analog: abort every execution without persisting,
// then stop answering HTTP.
func (in *instance) kill() {
	in.srv.Kill()
	in.hs.CloseClientConnections()
	in.hs.Close()
}

// newInstance starts a store-backed instance. Every instance sharing
// storeDir generates the same TPC-H data, so results are comparable
// across the fleet. opts are added to the database's options.
func newInstance(t *testing.T, storeDir, id string, sf float64, cfg server.Config, opts ...riveter.Option) *instance {
	t.Helper()
	db := riveter.Open(append([]riveter.Option{
		riveter.WithWorkers(2),
		riveter.WithCheckpointDir(t.TempDir()),
		riveter.WithBlobStore(riveter.StoreConfig{Dir: storeDir}),
	}, opts...)...)
	if _, err := db.BlobStore(); err != nil {
		t.Fatal(err)
	}
	if err := db.GenerateTPCH(sf); err != nil {
		t.Fatal(err)
	}
	cfg.DB = db
	cfg.InstanceID = id
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	in := &instance{id: id, srv: srv, db: db, hs: hs}
	t.Cleanup(func() {
		defer func() { recover() }() // double-close after kill is fine
		in.hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = in.srv.Shutdown(ctx)
	})
	return in
}

// fleet bundles a proxy, its registry, and helpers for driving it.
type fleet struct {
	t     *testing.T
	met   *obs.Registry
	reg   *Registry
	proxy *Proxy
	hs    *httptest.Server
}

func newFleet(t *testing.T, cfg RegistryConfig) *fleet {
	t.Helper()
	met := obs.NewRegistry()
	cfg.Metrics = met
	reg := NewRegistry(cfg)
	t.Cleanup(reg.Close)
	proxy := NewProxy(ProxyConfig{Registry: reg, Metrics: met, RequestTimeout: time.Second})
	hs := httptest.NewServer(proxy.Handler())
	t.Cleanup(hs.Close)
	return &fleet{t: t, met: met, reg: reg, proxy: proxy, hs: hs}
}

func (f *fleet) postJSON(path string, body any) (map[string]any, int) {
	f.t.Helper()
	data, _ := json.Marshal(body)
	resp, err := http.Post(f.hs.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		f.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return out, resp.StatusCode
}

func (f *fleet) getJSON(path string) (map[string]any, int) {
	f.t.Helper()
	resp, err := http.Get(f.hs.URL + path)
	if err != nil {
		f.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return out, resp.StatusCode
}

// submit sends a keyed query through the proxy without waiting.
func (f *fleet) submit(key string, tpch int, sql string) {
	f.t.Helper()
	env, status := f.postJSON("/query", map[string]any{"tpch": tpch, "sql": sql, "session": key, "priority": "batch"})
	if status != http.StatusOK {
		f.t.Fatalf("submit %s: status %d: %v", key, status, env["error"])
	}
}

// awaitDone waits for a session key through the proxy with a held read
// (GET /sessions/{key}?wait=…), returning its final envelope. The proxy
// answers when the session finishes or the wait expires; only waits past
// server.MaxHold take more than one request.
func (f *fleet) awaitDone(key string, timeout time.Duration) map[string]any {
	f.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		wait := min(time.Until(deadline), server.MaxHold).Round(time.Millisecond)
		env, status := f.getJSON("/sessions/" + key + "?wait=" + url.QueryEscape(wait.String()))
		switch {
		case status == http.StatusOK && env["state"] == "done":
			return env
		case status == http.StatusOK && env["state"] == "failed":
			f.t.Fatalf("session %s failed: %v", key, env["error"])
		case status == http.StatusNotFound:
			f.t.Fatalf("session %s unknown to the proxy: %v", key, env["error"])
		}
		if !time.Now().Before(deadline) {
			f.t.Fatalf("session %s not done (last status %d, state %v)", key, status, env["state"])
		}
	}
}

// resultKey canonicalizes a result payload for comparison.
func resultKey(t *testing.T, env map[string]any) string {
	t.Helper()
	res, ok := env["result"]
	if !ok {
		t.Fatalf("done session has no result: %v", env)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// expectedResults runs every workload query on a never-killed control
// instance (its own store) over the same HTTP rendering path.
func expectedResults(t *testing.T, sf float64, qs []workItem) map[string]string {
	t.Helper()
	control := newInstance(t, t.TempDir(), "control", sf, server.Config{Slots: 1})
	out := map[string]string{}
	client := &http.Client{Timeout: 120 * time.Second}
	for _, q := range qs {
		if _, dup := out[q.queryKey()]; dup {
			continue
		}
		body, _ := json.Marshal(map[string]any{"tpch": q.tpch, "sql": q.sql, "wait": true})
		resp, err := client.Post(control.hs.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if env["state"] != "done" {
			t.Fatalf("control run of %+v: %v", q, env["error"])
		}
		out[q.queryKey()] = resultKey(t, env)
	}
	return out
}

type workItem struct {
	tpch int
	sql  string
}

func (w workItem) queryKey() string {
	if w.tpch != 0 {
		return fmt.Sprintf("tpch:%d", w.tpch)
	}
	return w.sql
}

// TestPickTarget covers the cost-aware routing scores.
func TestPickTarget(t *testing.T) {
	if _, ok := PickTarget(nil); ok {
		t.Fatal("empty fleet must not pick")
	}
	views := []InstanceView{
		{ID: "a", Alive: true, Status: "accepting", Running: 2},
		{ID: "b", Alive: true, Status: "accepting", Running: 1},
		{ID: "c", Alive: true, Status: "draining"},
		{ID: "d", Alive: false, Status: "dead"},
	}
	if v, ok := PickTarget(views); !ok || v.ID != "b" {
		t.Fatalf("least-loaded pick = %+v, %v", v, ok)
	}
	// A price surge overrides load: b at 300x base loses to a.
	views[1].Price, views[1].BasePrice = 300, 1
	views[0].Price, views[0].BasePrice = 1, 1
	if v, _ := PickTarget(views); v.ID != "a" {
		t.Fatalf("surge pick = %s, want a", v.ID)
	}
	// A slow store link costs like load: 5s resume penalty loses to 2 live.
	views[1].Price = 1
	views[1].ResumePenalty = 5 * time.Second
	if v, _ := PickTarget(views); v.ID != "a" {
		t.Fatalf("penalty pick = %s, want a", v.ID)
	}
	// Deterministic tie-break by id.
	tie := []InstanceView{
		{ID: "y", Alive: true, Status: "accepting"},
		{ID: "x", Alive: true, Status: "accepting"},
	}
	if v, _ := PickTarget(tie); v.ID != "x" {
		t.Fatalf("tie pick = %s, want x", v.ID)
	}
}

// TestRegistryDeathDetection: the prober marks a killed instance dead
// after DeadAfter consecutive failures and fires OnDeath exactly once.
func TestRegistryDeathDetection(t *testing.T) {
	in := newInstance(t, t.TempDir(), "mortal", 0.005, server.Config{Slots: 1})
	met := obs.NewRegistry()
	deaths := make(chan string, 4)
	reg := NewRegistry(RegistryConfig{
		HealthInterval: 10 * time.Millisecond,
		DeadAfter:      2,
		ProbeTimeout:   200 * time.Millisecond,
		Metrics:        met,
		OnDeath:        func(id string) { deaths <- id },
	})
	defer reg.Close()
	reg.Register("mortal", in.hs.URL)
	v, ok := reg.View("mortal")
	if !ok || !v.Alive || v.Status != "accepting" {
		t.Fatalf("registered view = %+v", v)
	}
	if met.Gauge(obs.MetricCPInstances).Value() != 1 {
		t.Fatal("instances gauge != 1")
	}

	in.kill()
	select {
	case id := <-deaths:
		if id != "mortal" {
			t.Fatalf("death of %q", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("death never detected")
	}
	v, _ = reg.View("mortal")
	if v.Alive || v.Status != "dead" {
		t.Fatalf("post-death view = %+v", v)
	}
	if met.Counter(obs.MetricCPDeaths).Value() != 1 {
		t.Fatalf("deaths = %d", met.Counter(obs.MetricCPDeaths).Value())
	}
	if met.Gauge(obs.MetricCPInstances).Value() != 0 {
		t.Fatal("instances gauge != 0 after death")
	}
	select {
	case id := <-deaths:
		t.Fatalf("second OnDeath for %q", id)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestFleetRollingKillFailover is the acceptance test: three instances
// behind the proxy, a mixed workload in flight, two instances hard-killed
// in sequence (one after a replacement joins), and every session still
// completes with the same result a never-killed control instance
// produces — with every proxy round trip bounded.
func TestFleetRollingKillFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-instance stress test")
	}
	const sf = 0.02
	work := []workItem{}
	for i := 0; i < 4; i++ {
		work = append(work, workItem{tpch: 21})
	}
	for i := 0; i < 4; i++ {
		work = append(work, workItem{tpch: 6})
	}
	work = append(work,
		workItem{sql: "SELECT count(*) FROM lineitem"},
		workItem{sql: "SELECT count(*) FROM orders"},
	)
	want := expectedResults(t, sf, work)

	storeDir := t.TempDir()
	f := newFleet(t, RegistryConfig{HealthInterval: 25 * time.Millisecond, DeadAfter: 2, ProbeTimeout: 500 * time.Millisecond})
	cfg := server.Config{Slots: 2, Policy: server.SuspensionAware{}}
	a := newInstance(t, storeDir, "fleet-a", sf, cfg)
	b := newInstance(t, storeDir, "fleet-b", sf, cfg)
	c := newInstance(t, storeDir, "fleet-c", sf, cfg) // survives throughout
	for _, in := range []*instance{a, b} {
		f.reg.Register(in.id, in.hs.URL)
	}
	// Register c over HTTP for endpoint coverage.
	if _, status := f.postJSON("/fleet/register", map[string]string{"id": c.id, "url": c.hs.URL}); status != http.StatusOK {
		t.Fatalf("HTTP register: %d", status)
	}

	for i, q := range work {
		f.submit(fmt.Sprintf("k-%d", i), q.tpch, q.sql)
	}

	// Rolling kills: a dies mid-load, a replacement joins, then b dies.
	time.Sleep(250 * time.Millisecond)
	a.kill()
	d := newInstance(t, storeDir, "fleet-d", sf, cfg)
	f.postJSON("/fleet/register", map[string]string{"id": "fleet-d", "url": d.hs.URL})
	time.Sleep(250 * time.Millisecond)
	b.kill()

	var wg sync.WaitGroup
	results := make([]map[string]any, len(work))
	for i := range work {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = f.awaitDone(fmt.Sprintf("k-%d", i), 180*time.Second)
		}(i)
	}
	wg.Wait()

	for i, q := range work {
		if got := resultKey(t, results[i]); got != want[q.queryKey()] {
			t.Errorf("session k-%d (%s): result diverged after failover", i, q.queryKey())
		}
	}

	// The failovers actually happened and were accounted. Detection lags the
	// kills by a few health intervals, and the workload can drain before the
	// second death is noticed, so poll instead of sampling once.
	deadline := time.Now().Add(5 * time.Second)
	for f.met.Counter(obs.MetricCPDeaths).Value() < 2 && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
	}
	if f.met.Counter(obs.MetricCPDeaths).Value() < 2 {
		t.Errorf("deaths = %d, want >= 2", f.met.Counter(obs.MetricCPDeaths).Value())
	}
	moved := f.met.Counter(obs.MetricCPRerouted).Value() + f.met.Counter(obs.MetricCPResubmitted).Value()
	if f.met.Counter(obs.MetricCPFailovers).Value() != moved {
		t.Errorf("failovers %d != rerouted+resubmitted %d",
			f.met.Counter(obs.MetricCPFailovers).Value(), moved)
	}

	// Every proxy round trip (submits and polls, through two instance
	// deaths) stays bounded. Quantile reports histogram bucket ceilings,
	// so the bound is the 3s bucket; under the race detector everything
	// runs several times slower and a failover's stacked retries can
	// legitimately reach the next bucket.
	bound := float64(3 * time.Second)
	if raceDetectorEnabled {
		bound = float64(10 * time.Second)
	}
	env, _ := f.getJSON("/fleet/instances")
	proxy, _ := env["proxy"].(map[string]any)
	p99, _ := proxy["p99_ns"].(float64)
	if p99 <= 0 || p99 > bound {
		t.Errorf("proxy p99 = %v ns, want (0, %v]", p99, time.Duration(bound))
	}
}

// TestFleetScaleToZeroThroughProxy: an idle instance parks every session
// (zero live executions, verified over /fleet/instances, which never
// touches sessions), and the next client request through the proxy wakes
// the session and completes it correctly.
func TestFleetScaleToZeroThroughProxy(t *testing.T) {
	// Both sessions must outlive the idle window or they legitimately
	// finish before they can park: the slow query (20-50 ms at this scale
	// factor) against a 10ms window, which the reaper checks every 5ms.
	// The window no longer has to outlast a poll interval for the wake
	// phase: awaitDone's held read counts as a waiter on the instance, so
	// a woken session cannot park again while it runs.
	const sf = 0.05
	work := []workItem{{tpch: 21}, {tpch: 21}}
	want := expectedResults(t, sf, work)

	storeDir := t.TempDir()
	f := newFleet(t, RegistryConfig{HealthInterval: 20 * time.Millisecond, DeadAfter: 3})
	in := newInstance(t, storeDir, "zero-a", sf, server.Config{
		Slots:       1,
		IdleSuspend: 10 * time.Millisecond,
	})
	f.reg.Register(in.id, in.hs.URL)

	for i, q := range work {
		f.submit(fmt.Sprintf("z-%d", i), q.tpch, q.sql)
	}

	// The fleet view (healthz-fed, touch-free) must reach zero live
	// executions with both sessions parked.
	deadline := time.Now().Add(60 * time.Second)
	for {
		v, ok := f.reg.View("zero-a")
		if ok && v.Live() == 0 && v.Parked == len(work) {
			break
		}
		if time.Now().After(deadline) {
			resp, err := http.Get(in.hs.URL + "/sessions")
			if err == nil {
				var body any
				_ = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				t.Logf("instance sessions: %+v", body)
			}
			t.Fatalf("instance never scaled to zero: %+v", v)
		}
		time.Sleep(10 * time.Millisecond)
	}
	snap := in.db.Metrics().Snapshot()
	if snap.Counters["server.idle_suspended"] < int64(len(work)) {
		t.Fatalf("idle_suspended = %d", snap.Counters["server.idle_suspended"])
	}
	if snap.Counters["blobstore.put"] == 0 {
		t.Error("scale-to-zero wrote nothing to the store")
	}

	// Wake through the proxy: the first held read per key reports the
	// parked state it woke the session out of.
	for i, q := range work {
		key := fmt.Sprintf("z-%d", i)
		env := f.awaitDone(key, 120*time.Second)
		if got := resultKey(t, env); got != want[q.queryKey()] {
			t.Errorf("session %s: result diverged across park/wake", key)
		}
	}
	if f.met.Counter(obs.MetricCPWakeRequests).Value() < 1 {
		t.Errorf("wake_requests = %d, want >= 1", f.met.Counter(obs.MetricCPWakeRequests).Value())
	}
	if in.db.Metrics().Snapshot().Counters["server.idle_woken"] < int64(len(work)) {
		t.Errorf("idle_woken = %d", in.db.Metrics().Snapshot().Counters["server.idle_woken"])
	}
}

// TestSpotDrainRebalance: simulated spot notices drain instances through
// the proxy — but never the last accepting one — and the drained
// instance's sessions finish elsewhere with correct results.
func TestSpotDrainRebalance(t *testing.T) {
	const sf = 0.02
	work := []workItem{{tpch: 21}, {tpch: 21}, {tpch: 6}, {tpch: 6}}
	want := expectedResults(t, sf, work)

	storeDir := t.TempDir()
	f := newFleet(t, RegistryConfig{HealthInterval: 25 * time.Millisecond, DeadAfter: 3})
	cfg := server.Config{Slots: 1, Policy: server.SuspensionAware{}}
	a := newInstance(t, storeDir, "spot-a", sf, cfg)
	b := newInstance(t, storeDir, "spot-b", sf, cfg)
	f.reg.Register(a.id, a.hs.URL)
	f.reg.Register(b.id, b.hs.URL)

	for i, q := range work {
		f.submit(fmt.Sprintf("s-%d", i), q.tpch, q.sql)
	}

	// Both instances draw a certain termination with notice at ~150ms.
	drv := NewSpotDriver(f.proxy, SpotConfig{
		Model:      cloud.TerminationModel{Probability: 1, Start: 400 * time.Millisecond, End: 400 * time.Millisecond},
		NoticeLead: 250 * time.Millisecond,
		Seed:       7,
		PriceBase:  1.0,
		PriceStep:  20 * time.Millisecond,
	})
	defer drv.Close()
	for _, id := range []string{"spot-a", "spot-b"} {
		if inst := drv.Watch(id); !inst.WillTerminate() {
			t.Fatalf("P=1 instance %s does not terminate", id)
		}
	}

	for i, q := range work {
		key := fmt.Sprintf("s-%d", i)
		env := f.awaitDone(key, 180*time.Second)
		if got := resultKey(t, env); got != want[q.queryKey()] {
			t.Errorf("session %s: result diverged across drain", key)
		}
	}

	// Exactly one drain lands; the other is refused to keep the fleet
	// alive. waitCond-style poll: the second notice may fire after the
	// workload finishes.
	deadline := time.Now().Add(10 * time.Second)
	for f.met.Counter(obs.MetricCPDrains).Value()+f.met.Counter(obs.MetricCPDrainSkipped).Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("drains=%d skipped=%d, want 2 notices handled",
				f.met.Counter(obs.MetricCPDrains).Value(), f.met.Counter(obs.MetricCPDrainSkipped).Value())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := f.met.Counter(obs.MetricCPDrains).Value(); got != 1 {
		t.Errorf("drains = %d, want 1", got)
	}
	if got := f.met.Counter(obs.MetricCPDrainSkipped).Value(); got != 1 {
		t.Errorf("drain_skipped = %d, want 1", got)
	}

	// The price trace fed the registry.
	deadline = time.Now().Add(5 * time.Second)
	for {
		views := f.reg.Views()
		if len(views) > 0 && (views[0].Price > 0 || views[1].Price > 0) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("spot prices never reached the registry")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestProxyWaitMode: a wait=true submission through the proxy blocks
// until completion and inlines the result, and costs the instance exactly
// one session read — one held read, not a poll per tick. Counted the way
// the benchmark counts them: GET /sessions/… requests reaching the
// instance.
func TestProxyWaitMode(t *testing.T) {
	const sf = 0.005
	work := []workItem{{tpch: 6}}
	want := expectedResults(t, sf, work)

	f := newFleet(t, RegistryConfig{HealthInterval: 20 * time.Millisecond})
	in := newInstance(t, t.TempDir(), "wait-a", sf, server.Config{Slots: 1})
	var reads atomic.Int64
	inner := in.srv.Handler()
	counted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/sessions/") {
			reads.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(counted.Close)
	f.reg.Register(in.id, counted.URL)

	// Q6 at this scale runs in milliseconds, far inside the 500ms hold
	// newFleet's 1s RequestTimeout derives.
	const queries = 3
	var key any
	for i := 1; i <= queries; i++ {
		env, status := f.postJSON("/query", map[string]any{"tpch": 6, "wait": true})
		if status != http.StatusOK || env["state"] != "done" {
			t.Fatalf("wait submit: status %d env %v", status, env)
		}
		if env["session_key"] == "" || env["instance"] != "wait-a" {
			t.Fatalf("missing routing fields: %v", env)
		}
		if got := resultKey(t, env); got != want[work[0].queryKey()] {
			t.Error("wait-mode result diverged")
		}
		if got := reads.Load(); got != int64(i) {
			t.Fatalf("after %d waited queries the instance saw %d session reads, want %d", i, got, i)
		}
		key = env["session_key"]
	}
	if got := f.met.Counter(obs.MetricCPWaitRounds).Value(); got != queries {
		t.Errorf("wait_rounds = %d, want %d", got, queries)
	}
	if got := f.met.Histogram(obs.MetricCPProxyWaitLatency, obs.DurationBuckets).Count(); got != queries {
		t.Errorf("wait latency observed %d times, want %d", got, queries)
	}
	env, _ := f.getJSON("/fleet/metrics")
	if proxy, _ := env["proxy"].(map[string]any); !strings.Contains(fmt.Sprint(proxy), obs.MetricCPWaitRounds) {
		t.Errorf("/fleet/metrics does not show %s: %v", obs.MetricCPWaitRounds, proxy)
	}

	// The client-facing held read: a finished key answers at once, one
	// more instance read; a malformed wait is refused before routing.
	env, status := f.getJSON(fmt.Sprintf("/sessions/%v?wait=10s", key))
	if status != http.StatusOK || env["state"] != "done" || reads.Load() != queries+1 {
		t.Errorf("held GET of a done key: status %d state %v, %d instance reads", status, env["state"], reads.Load())
	}
	for _, bad := range []string{"soon", "-1s"} {
		if _, status := f.getJSON(fmt.Sprintf("/sessions/%v?wait=%s", key, bad)); status != http.StatusBadRequest {
			t.Errorf("wait=%s: status %d, want 400", bad, status)
		}
	}
	if _, status := f.getJSON("/sessions/never-submitted?wait=10s"); status != http.StatusNotFound {
		t.Errorf("held GET of an unknown key: status %d, want 404 at once", status)
	}
}

// TestProxyWaitAcrossDrain: a wait-mode client blocked on a session of an
// instance the proxy drains keeps its one request open through the
// evacuation — the instance releases the held read when it starts
// draining, the adopter takes the session over from the store, the next
// held read lands there — and gets the control run's result.
func TestProxyWaitAcrossDrain(t *testing.T) {
	const sf = 0.02
	work := []workItem{{tpch: 21}}
	want := expectedResults(t, sf, work)

	storeDir := t.TempDir()
	f := newFleet(t, RegistryConfig{HealthInterval: 20 * time.Millisecond})
	cfg := server.Config{Slots: 1, Policy: server.FIFO{}}
	a := newInstance(t, storeDir, "drain-a", sf, cfg)
	b := newInstance(t, storeDir, "drain-b", sf, cfg)
	f.reg.Register(a.id, a.hs.URL)

	// A FIFO queue of blockers on a's single slot keeps the waited session
	// queued there for far longer than the drain handshake takes.
	for i := 0; i < 8; i++ {
		if env, status := directJSON(t, http.MethodPost, a.hs.URL+"/query", map[string]any{"tpch": 21, "priority": "batch"}); status != http.StatusOK {
			t.Fatalf("blocker %d: status %d %v", i, status, env["error"])
		}
	}
	type reply struct {
		env    map[string]any
		status int
	}
	done := make(chan reply, 1)
	go func() {
		env, status := f.postJSON("/query", map[string]any{"tpch": 21, "session": "drained", "priority": "batch", "wait": true})
		done <- reply{env, status}
	}()
	waitHeld := time.Now().Add(30 * time.Second)
	for f.met.Counter(obs.MetricCPWaitRounds).Value() == 0 {
		if time.Now().After(waitHeld) {
			t.Fatal("the wait-mode submit never reached its held read")
		}
		time.Sleep(time.Millisecond)
	}
	f.reg.Register(b.id, b.hs.URL)
	waitAccepting(t, f, b.id)
	if err := f.proxy.DrainAndRebalance(a.id); err != nil {
		t.Fatal(err)
	}
	env, _ := directJSON(t, http.MethodGet, a.hs.URL+"/sessions/key/drained", nil)
	if env["state"] == "done" {
		t.Fatal("precondition: the waited session finished on drain-a before the drain; lengthen the blocker queue")
	}

	r := <-done
	if r.status != http.StatusOK || r.env["state"] != "done" {
		t.Fatalf("wait across drain: status %d env %v", r.status, r.env)
	}
	if r.env["instance"] != b.id {
		t.Errorf("waited session finished on %v, want the adopter %s", r.env["instance"], b.id)
	}
	if got := resultKey(t, r.env); got != want[work[0].queryKey()] {
		t.Error("result diverged from the control run across the drain")
	}
	if got := f.met.Counter(obs.MetricCPDrains).Value(); got != 1 {
		t.Errorf("drains = %d, want 1", got)
	}
}

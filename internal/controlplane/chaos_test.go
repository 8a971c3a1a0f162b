package controlplane

// The chaos suite drives the fleet through deterministic, seeded network
// faults (internal/faultnet) and asserts the paper's §13 exactly-once
// guarantee holds under them: whatever the network does — asymmetric
// partitions, flapping instances, slow links, concurrent client storms —
// every client session key yields exactly one result, byte-identical to
// an unfaulted control run. `make race` runs them under -race -count=2.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/faultfs"
	"github.com/riveterdb/riveter/internal/faultnet"
	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/server"
)

// hostOf extracts the host:port a faultnet rule should target.
func hostOf(t *testing.T, rawURL string) string {
	t.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// newChaosFleet is newFleet with a faultnet plan wired into both the
// proxy's and the registry's transports, and a fast retry schedule so
// fault storms resolve in test time.
func newChaosFleet(t *testing.T, cfg RegistryConfig, plan *faultnet.Plan, reqTimeout time.Duration) *fleet {
	t.Helper()
	if reqTimeout <= 0 {
		reqTimeout = time.Second
	}
	met := obs.NewRegistry()
	plan.SetMetrics(met)
	cfg.Metrics = met
	cfg.Transport = &faultnet.Transport{Plan: plan}
	reg := NewRegistry(cfg)
	t.Cleanup(reg.Close)
	proxy := NewProxy(ProxyConfig{
		Registry:       reg,
		Metrics:        met,
		RequestTimeout: reqTimeout,
		Transport:      &faultnet.Transport{Plan: plan},
		Retry:          RetryPolicy{Budget: 3, BackoffBase: 2 * time.Millisecond, BackoffMax: 10 * time.Millisecond, Seed: 7},
	})
	hs := httptest.NewServer(proxy.Handler())
	t.Cleanup(hs.Close)
	return &fleet{t: t, met: met, reg: reg, proxy: proxy, hs: hs}
}

// waitAccepting blocks until the registry's prober has seen the instance
// healthy and accepting — a fresh registration is not routable until its
// first probe answers, and chaos scenarios must not race that window.
func waitAccepting(t *testing.T, f *fleet, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, ok := f.reg.View(id); ok && v.Accepting() {
			return
		}
		if time.Now().After(deadline) {
			v, _ := f.reg.View(id)
			t.Fatalf("instance %s never became accepting: %+v", id, v)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// directJSON talks to an instance with a clean client, bypassing the
// fault plan — the test's observer channel into a partitioned instance.
func directJSON(t *testing.T, method, url string, body any) (map[string]any, int) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, _ := json.Marshal(body)
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return out, resp.StatusCode
}

// directSessions lists an instance's sessions with a clean client.
func directSessions(t *testing.T, baseURL string) []map[string]any {
	t.Helper()
	resp, err := http.Get(baseURL + "/sessions")
	if err != nil {
		t.Fatalf("GET %s/sessions: %v", baseURL, err)
	}
	defer resp.Body.Close()
	var out []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("sessions body: %v", err)
	}
	return out
}

// TestChaosAsymmetricPartitionSplitBrain is the tentpole scenario: an
// instance is partitioned asymmetrically mid-execution — every request
// still reaches it, every response dies on the way back. From the
// proxy's side it is dead; from its own side it is healthy and keeps
// executing. The fleet must fail its keys over to a survivor, the
// client must see exactly one result per key — byte-identical to an
// unfaulted control run — and after the partition heals, the revived
// instance's duplicate work must stay invisible: breaker quarantine
// plus the routing table keep every key on the adopter.
func TestChaosAsymmetricPartitionSplitBrain(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-instance chaos test")
	}
	const sf = 0.02
	work := []workItem{
		{tpch: 21},
		{tpch: 21},
		{tpch: 6},
		{sql: "SELECT count(*) FROM lineitem"},
	}
	want := expectedResults(t, sf, work)

	storeDir := t.TempDir()
	plan := faultnet.NewPlan(11)
	f := newChaosFleet(t, RegistryConfig{
		HealthInterval:   25 * time.Millisecond,
		DeadAfter:        2,
		ProbeTimeout:     500 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  250 * time.Millisecond,
	}, plan, 0)
	cfg := server.Config{Slots: 2, Policy: server.SuspensionAware{}}
	a := newInstance(t, storeDir, "chaos-a", sf, cfg)
	b := newInstance(t, storeDir, "chaos-b", sf, cfg)
	f.reg.Register(a.id, a.hs.URL)
	waitAccepting(t, f, a.id)
	for i, q := range work {
		f.submit(fmt.Sprintf("c-%d", i), q.tpch, q.sql) // all pinned to a
	}
	f.reg.Register(b.id, b.hs.URL)
	waitAccepting(t, f, b.id)          // the failover target must be routable before the partition
	time.Sleep(100 * time.Millisecond) // a is now executing the workload

	// Sever a's return path: requests delivered, responses lost.
	plan.Asym(hostOf(t, a.hs.URL), "")

	// A keyed re-submit during the partition IS delivered to a (which
	// dedups it against the running session) but the ack never comes
	// back. The retry budget burns, the failover probe fails, a is
	// marked dead, and every key re-homes on b — where the re-submit's
	// final attempt lands and dedups again. Exactly-once by keying.
	f.submit("c-0", work[0].tpch, work[0].sql)

	for i, q := range work {
		key := fmt.Sprintf("c-%d", i)
		env := f.awaitDone(key, 180*time.Second)
		if got := resultKey(t, env); got != want[q.queryKey()] {
			t.Errorf("session %s (%s): result diverged from control run", key, q.queryKey())
		}
		if env["instance"] != "chaos-b" {
			t.Errorf("session %s served by %v, want the survivor chaos-b", key, env["instance"])
		}
	}

	// The survivor holds exactly one session per key — no double
	// adoption, no duplicate resubmission.
	byKey := map[string]int{}
	for _, sess := range directSessions(t, b.hs.URL) {
		if k, _ := sess["key"].(string); k != "" {
			byKey[k]++
		}
	}
	for i := range work {
		if n := byKey[fmt.Sprintf("c-%d", i)]; n != 1 {
			t.Errorf("survivor holds %d sessions for key c-%d, want 1", n, i)
		}
	}

	// The split brain was real: the partitioned instance still holds its
	// copies of the sessions and kept executing them.
	if got := len(directSessions(t, a.hs.URL)); got != len(work) {
		t.Errorf("partitioned instance holds %d sessions, want %d (its fenced duplicates)", got, len(work))
	}

	if got := f.met.Counter(obs.MetricCPDeaths).Value(); got != 1 {
		t.Errorf("deaths = %d, want exactly 1", got)
	}
	if f.met.Counter(obs.MetricCPResubmitted).Value()+f.met.Counter(obs.MetricCPRerouted).Value() < int64(len(work)) {
		t.Errorf("failover moved fewer keys than the workload: resubmitted=%d rerouted=%d",
			f.met.Counter(obs.MetricCPResubmitted).Value(), f.met.Counter(obs.MetricCPRerouted).Value())
	}
	if f.met.Counter(obs.MetricFNAsymLost).Value() < 1 {
		t.Error("asymmetric rule never fired — the partition was not exercised")
	}
	if f.met.Counter(obs.MetricCPRetries).Value() < 1 {
		t.Error("retry layer never engaged during the partition")
	}

	// Heal. The prober revives a, but MarkDead tripped its breaker: only
	// after the cooldown does a probe re-close it.
	plan.HealLink(hostOf(t, a.hs.URL))
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, ok := f.reg.View("chaos-a")
		if ok && v.Alive && v.Breaker == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("partitioned instance never rejoined cleanly: %+v", v)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The revived loser's late work stays fenced out: every key still
	// reads from the survivor.
	for i := range work {
		env, status := f.getJSON(fmt.Sprintf("/sessions/c-%d", i))
		if status != http.StatusOK || env["instance"] != "chaos-b" {
			t.Errorf("post-heal session c-%d: status %d instance %v, want chaos-b", i, status, env["instance"])
		}
	}
}

// TestChaosDoubleAdoptFencing: a drained instance's state document is
// adopted by two survivors concurrently; the store-level claim tokens
// must split the sessions exactly — every session adopted once, none
// twice, none lost — and each adopted session completes with the
// control run's result.
func TestChaosDoubleAdoptFencing(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-instance chaos test")
	}
	const sf = 0.02
	work := []workItem{
		{tpch: 21},
		{tpch: 6},
		{sql: "SELECT count(*) FROM orders"},
	}
	want := expectedResults(t, sf, work)

	storeDir := t.TempDir()
	cfg := server.Config{Slots: 1, Policy: server.SuspensionAware{}}
	// fence-a runs its queries with a lineage log on a filesystem that
	// stalls the log's first breaker seal: the first query is mid-execution
	// when the drain lands, and the other two are queued behind it.
	stall := newStallFS()
	aCfg := cfg
	aCfg.PreemptLevel = riveter.LineageLevel
	a := newInstance(t, storeDir, "fence-a", sf, aCfg, riveter.WithFS(stall))
	// The adopters exist before a's state document does, so their
	// startup adoption pass finds nothing and the explicit concurrent
	// adoption below is the only contest.
	b := newInstance(t, storeDir, "fence-b", sf, cfg)
	c := newInstance(t, storeDir, "fence-c", sf, cfg)

	seed := func(i int) (map[string]any, int) {
		return directJSON(t, http.MethodPost, a.hs.URL+"/query", map[string]any{
			"tpch": work[i].tpch, "sql": work[i].sql, "session": fmt.Sprintf("f-%d", i), "priority": "batch",
		})
	}
	for i := range work {
		if env, status := seed(i); status != http.StatusOK {
			t.Fatalf("seed submit %d: status %d %v", i, status, env["error"])
		}
	}
	select {
	case <-stall.stalled:
	case <-time.After(30 * time.Second):
		t.Fatal("first query never reached its first breaker on fence-a")
	}
	// Drain a: the first query suspends to the shared store (its failed
	// log sends the ladder past the lineage rung), the queued ones persist
	// alongside it, and the state document appears with all three. The
	// drain refuses submissions in the same critical section that asks the
	// running query to suspend, so once a keyed re-submit — otherwise a
	// dedup onto the existing session — is refused, the stalled seal can
	// give way.
	drained := make(chan error, 1)
	go func() { drained <- a.srv.Drain(context.Background()) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, status := seed(1)
		if status == http.StatusServiceUnavailable {
			break
		}
		if status != http.StatusOK || time.Now().After(deadline) {
			t.Fatalf("re-submit during the drain: status %d", status)
		}
		time.Sleep(time.Millisecond)
	}
	close(stall.release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if in, _ := a.srv.InfoByKey("f-0"); in.State != server.StateSuspended || in.StoreKey == "" {
		t.Fatalf("drained first query: state %s store key %q, want suspended to the store", in.State, in.StoreKey)
	}
	a.hs.Close()

	// Both survivors adopt at once.
	var wg sync.WaitGroup
	counts := make([]int, 2)
	for i, in := range []*instance{b, c} {
		wg.Add(1)
		go func(i int, in *instance) {
			defer wg.Done()
			env, status := directJSON(t, http.MethodPost, in.hs.URL+"/admin/adopt", map[string]any{})
			if status != http.StatusOK {
				t.Errorf("adopt on %s: status %d %v", in.id, status, env["error"])
				return
			}
			if n, ok := env["adopted"].(float64); ok {
				counts[i] = int(n)
			}
		}(i, in)
	}
	wg.Wait()

	if total := counts[0] + counts[1]; total != len(work) {
		t.Errorf("adopted %d+%d = %d sessions, want exactly %d (claims must fence duplicates)",
			counts[0], counts[1], counts[0]+counts[1], len(work))
	}

	// Every key lives on exactly one survivor, and completes there with
	// the control result.
	for i, q := range work {
		key := fmt.Sprintf("f-%d", i)
		var home *instance
		holders := 0
		for _, in := range []*instance{b, c} {
			if _, status := directJSON(t, http.MethodGet, in.hs.URL+"/sessions/key/"+key, nil); status == http.StatusOK {
				holders++
				home = in
			}
		}
		if holders != 1 {
			t.Errorf("key %s held by %d instances, want exactly 1", key, holders)
			continue
		}
		deadline := time.Now().Add(120 * time.Second)
		for {
			env, _ := directJSON(t, http.MethodGet, home.hs.URL+"/sessions/key/"+key, nil)
			if env["state"] == "done" {
				if got := resultKey(t, env); got != want[q.queryKey()] {
					t.Errorf("adopted session %s: result diverged from control run", key)
				}
				break
			}
			if env["state"] == "failed" {
				t.Errorf("adopted session %s failed: %v", key, env["error"])
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("adopted session %s never finished (state %v)", key, env["state"])
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// TestChaosFlapQuarantine: an instance keeps answering health probes
// while eating every query — the nastiest flap, invisible to liveness
// checks. The request-path breaker must trip, quarantine it (no
// spurious death, no re-route ping-pong), and only re-admit it through
// a half-open trial after the cooldown — here driven by a fake clock,
// proving the recovery path is deterministic.
func TestChaosFlapQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-instance chaos test")
	}
	const sf = 0.005
	work := []workItem{{tpch: 6}}
	want := expectedResults(t, sf, work)

	storeDir := t.TempDir()
	plan := faultnet.NewPlan(13)
	f := newChaosFleet(t, RegistryConfig{
		HealthInterval:   20 * time.Millisecond,
		DeadAfter:        1 << 20, // probes answer; the prober must never declare death
		ProbeTimeout:     500 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour, // only the (fake) clock may end the quarantine
	}, plan, 0)
	cfg := server.Config{Slots: 1}
	a := newInstance(t, storeDir, "flap-a", sf, cfg)
	b := newInstance(t, storeDir, "flap-b", sf, cfg)
	// Register a alone first so the healthy-phase pick is deterministic.
	f.reg.Register(a.id, a.hs.URL)
	waitAccepting(t, f, a.id)

	// Healthy phase routes to a.
	f.submit("fl-0", work[0].tpch, work[0].sql)
	if env := f.awaitDone("fl-0", 60*time.Second); env["instance"] != "flap-a" {
		t.Fatalf("healthy pick = %v, want flap-a", env["instance"])
	}
	f.reg.Register(b.id, b.hs.URL)
	waitAccepting(t, f, b.id)

	// Storm: every query to a is dropped; health probes sail through.
	plan.DropNth(hostOf(t, a.hs.URL), "POST /query", 1, 0)

	// Re-submit the key pinned to the flapper: the drops burn the retry
	// budget, trip the breaker, and the routing loop re-homes the key on
	// the healthy peer — all inside one client request.
	env, status := f.postJSON("/query", map[string]any{"tpch": work[0].tpch, "session": "fl-0", "priority": "batch"})
	if status != http.StatusOK {
		t.Fatalf("storm submit: status %d %v", status, env["error"])
	}
	if env["instance"] != "flap-b" {
		t.Errorf("storm submit served by %v, want flap-b", env["instance"])
	}
	if got := resultKey(t, f.awaitDone("fl-0", 60*time.Second)); got != want[work[0].queryKey()] {
		t.Error("storm-era result diverged from control run")
	}

	if got := f.met.Counter(obs.MetricCPDeaths).Value(); got != 0 {
		t.Errorf("deaths = %d; a health-answering flapper must not be declared dead", got)
	}
	if got := f.met.Counter(obs.MetricCPBreakerOpened).Value(); got < 1 {
		t.Errorf("breaker.opened = %d, want >= 1", got)
	}
	if v, _ := f.reg.View("flap-a"); v.Breaker != "open" || v.Accepting() {
		t.Errorf("flapper view = breaker %q accepting %v, want quarantined", v.Breaker, v.Accepting())
	}

	// New keys route around the quarantined instance without touching it.
	env, _ = f.postJSON("/query", map[string]any{"tpch": work[0].tpch, "session": "fl-2", "priority": "batch"})
	if env["instance"] != "flap-b" {
		t.Errorf("quarantine-era submit served by %v, want flap-b", env["instance"])
	}
	f.awaitDone("fl-2", 60*time.Second)

	// Heal the link and jump the clock past the cooldown: the next probe
	// is the half-open trial and re-closes the breaker.
	plan.Heal()
	setNow(f.reg, func() time.Time { return time.Now().Add(2 * time.Hour) })
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, _ := f.reg.View("flap-a"); v.Breaker == "" && v.Accepting() {
			break
		}
		if time.Now().After(deadline) {
			v, _ := f.reg.View("flap-a")
			t.Fatalf("breaker never re-closed after heal+cooldown: %+v", v)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := f.met.Counter(obs.MetricCPBreakerClosed).Value(); got < 1 {
		t.Errorf("breaker.closed = %d, want >= 1", got)
	}

	// Traffic flows again with the flapper back in rotation. (Which
	// instance wins a fresh-key pick between two healthy peers depends on
	// measured resume penalties, so only correctness is asserted.)
	env, status = f.postJSON("/query", map[string]any{"tpch": work[0].tpch, "session": "fl-3", "priority": "batch"})
	if status != http.StatusOK {
		t.Fatalf("post-recovery submit: status %d %v", status, env["error"])
	}
	if got := resultKey(t, f.awaitDone("fl-3", 60*time.Second)); got != want[work[0].queryKey()] {
		t.Error("post-recovery result diverged from control run")
	}
}

// TestChaosSlowLinkNoStall: a link serving 300ms pauses against a 100ms
// per-attempt deadline must not stall clients or kill the instance —
// per-attempt timeouts cut each try short, the breaker quarantines the
// slow path, the survivor absorbs the traffic, and the generous probe
// timeout keeps liveness intact.
func TestChaosSlowLinkNoStall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-instance chaos test")
	}
	const sf = 0.005
	work := []workItem{{tpch: 6}}
	want := expectedResults(t, sf, work)

	storeDir := t.TempDir()
	plan := faultnet.NewPlan(17)
	f := newChaosFleet(t, RegistryConfig{
		HealthInterval:   20 * time.Millisecond,
		DeadAfter:        1 << 20, // probes tolerate the slow link; no death expected
		ProbeTimeout:     2 * time.Second,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour,
	}, plan, 100*time.Millisecond)
	cfg := server.Config{Slots: 1}
	a := newInstance(t, storeDir, "slow-a", sf, cfg)
	b := newInstance(t, storeDir, "slow-b", sf, cfg)
	// Register a alone first: sl-0 must pin to the soon-to-be-slow link.
	f.reg.Register(a.id, a.hs.URL)
	waitAccepting(t, f, a.id)
	f.submit("sl-0", work[0].tpch, work[0].sql) // pins sl-0 to a
	f.awaitDone("sl-0", 60*time.Second)
	f.reg.Register(b.id, b.hs.URL)
	waitAccepting(t, f, b.id)

	plan.Latency(hostOf(t, a.hs.URL), 300*time.Millisecond, 0)

	// A keyed re-submit against the now-slow pin: three 100ms-capped
	// attempts fail, the breaker opens, and the key re-homes on b — all
	// well inside a human-scale bound, no multi-second stall.
	start := time.Now()
	env, status := f.postJSON("/query", map[string]any{"tpch": work[0].tpch, "session": "sl-0", "priority": "batch"})
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("slow-link submit: status %d %v", status, env["error"])
	}
	if env["instance"] != "slow-b" {
		t.Errorf("slow-link submit served by %v, want slow-b", env["instance"])
	}
	if elapsed > 5*time.Second {
		t.Errorf("slow-link submit took %v; per-attempt deadlines failed to bound the stall", elapsed)
	}
	if got := resultKey(t, f.awaitDone("sl-0", 60*time.Second)); got != want[work[0].queryKey()] {
		t.Error("slow-link result diverged from control run")
	}

	if got := f.met.Counter(obs.MetricCPDeaths).Value(); got != 0 {
		t.Errorf("deaths = %d; a slow-but-alive instance must not be declared dead", got)
	}
	if got := f.met.Counter(obs.MetricCPBreakerOpened).Value(); got < 1 {
		t.Errorf("breaker.opened = %d, want >= 1", got)
	}
	if got := f.met.Counter(obs.MetricFNDelayed).Value(); got < 1 {
		t.Errorf("faultnet.delayed = %d; the latency rule never fired", got)
	}
}

// stallFS passes everything through to the real filesystem except the
// second fsync of each lineage log (.rvlg): the seal of the query's first
// pipeline breaker, the first thing its log makes durable after creation.
// That fsync blocks until release is closed and then fails, so a query
// started with a lineage log on this filesystem cannot finish while the
// gate is shut — it is mid-execution by construction, not by timing.
type stallFS struct {
	faultfs.FS
	stalled chan struct{} // closed when the first seal blocks
	release chan struct{}
	once    sync.Once
}

func newStallFS() *stallFS {
	return &stallFS{FS: faultfs.OS, stalled: make(chan struct{}), release: make(chan struct{})}
}

func (s *stallFS) Create(path string) (faultfs.File, error) {
	f, err := s.FS.Create(path)
	if err != nil || !strings.HasSuffix(path, ".rvlg") {
		return f, err
	}
	return &stallFile{File: f, fs: s}, nil
}

// stallFile counts a lineage log's fsyncs; the log calls Sync under its own
// mutex, so the count needs no lock of its own.
type stallFile struct {
	faultfs.File
	fs    *stallFS
	syncs int
}

func (f *stallFile) Sync() error {
	if f.syncs++; f.syncs < 2 {
		return f.File.Sync()
	}
	f.fs.once.Do(func() { close(f.fs.stalled) })
	<-f.fs.release
	return errors.New("stallFS: seal released")
}

// TestChaosConcurrentKeyedSubmitFailover: eight clients hammer the same
// session key in wait mode while the pinned instance is hard-killed
// mid-query. Keyed dedup plus failover must yield exactly one execution
// per instance generation, one surviving session, and the identical —
// control-equal — result for every waiter.
func TestChaosConcurrentKeyedSubmitFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-instance chaos test")
	}
	const sf = 0.02
	work := []workItem{{tpch: 21}}
	want := expectedResults(t, sf, work)

	storeDir := t.TempDir()
	// An empty plan: this scenario's only fault is the kill itself. The
	// generous per-attempt timeout matters — eight concurrent submits
	// serialize on the instance, and a tight deadline would trip the
	// breaker on a perfectly healthy pin before the storm even lands.
	f := newChaosFleet(t, RegistryConfig{
		HealthInterval: 25 * time.Millisecond,
		DeadAfter:      2,
		ProbeTimeout:   500 * time.Millisecond,
	}, faultnet.NewPlan(19), 5*time.Second)
	cfg := server.Config{Slots: 1, Policy: server.SuspensionAware{}}
	// ck-a runs every query with a lineage log on a filesystem that stalls
	// the log's first breaker seal: the hot query on ck-a stays running,
	// and is never done, until the kill.
	stall := newStallFS()
	aCfg := cfg
	aCfg.PreemptLevel = riveter.LineageLevel
	a := newInstance(t, storeDir, "ck-a", sf, aCfg, riveter.WithFS(stall))
	b := newInstance(t, storeDir, "ck-b", sf, cfg)
	// Only ck-a is registered while the storm lands, so the hot key pins
	// there deterministically; ck-b joins as the failover target.
	f.reg.Register(a.id, a.hs.URL)
	waitAccepting(t, f, a.id)

	const clients = 8
	var wg sync.WaitGroup
	envs := make([]map[string]any, clients)
	statuses := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			envs[i], statuses[i] = f.postJSON("/query", map[string]any{
				"tpch": work[0].tpch, "session": "hot", "priority": "batch", "wait": true,
			})
		}(i)
	}

	// The stall means the hot query is executing on ck-a, so the key is
	// pinned there: the failover target can join without stealing it.
	select {
	case <-stall.stalled:
	case <-time.After(30 * time.Second):
		t.Fatal("hot query never reached its first breaker on ck-a")
	}
	f.reg.Register(b.id, b.hs.URL)
	waitAccepting(t, f, b.id) // the survivor must be routable before the kill

	// Tear down HTTP before aborting executions, so no waiter can read
	// anything off the dying instance. Kill waits for the stalled query's
	// goroutine, so the seal is released beside it; whether the query then
	// aborts or runs on, it does so where nobody can reach it.
	a.hs.CloseClientConnections()
	a.hs.Close()
	killed := make(chan struct{})
	go func() {
		a.srv.Kill()
		close(killed)
	}()
	close(stall.release)
	<-killed
	wg.Wait()

	for i := 0; i < clients; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("waiter %d: status %d %v", i, statuses[i], envs[i]["error"])
		}
		if envs[i]["state"] != "done" {
			t.Errorf("waiter %d: state %v", i, envs[i]["state"])
			continue
		}
		if got := resultKey(t, envs[i]); got != want[work[0].queryKey()] {
			t.Errorf("waiter %d: result diverged from control run", i)
		}
		if envs[i]["instance"] != "ck-b" {
			t.Errorf("waiter %d served by %v, want the survivor ck-b", i, envs[i]["instance"])
		}
	}

	// Exactly one session carries the key on the survivor: eight
	// concurrent submits plus a failover resubmission all deduped.
	hot := 0
	for _, sess := range directSessions(t, b.hs.URL) {
		if k, _ := sess["key"].(string); k == "hot" {
			hot++
		}
	}
	if hot != 1 {
		t.Errorf("survivor holds %d sessions for the hot key, want exactly 1", hot)
	}
	// The waiters fail over on transport errors; death detection lags the
	// kill by a few health intervals and the survivor can finish first.
	deadline := time.Now().Add(5 * time.Second)
	for f.met.Counter(obs.MetricCPDeaths).Value() < 1 && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
	}
	if got := f.met.Counter(obs.MetricCPDeaths).Value(); got != 1 {
		t.Errorf("deaths = %d, want 1", got)
	}
	if f.met.Counter(obs.MetricCPFailovers).Value() < 1 {
		t.Error("no failover recorded for the killed pin")
	}
}

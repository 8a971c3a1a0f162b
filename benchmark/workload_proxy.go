package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"time"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/controlplane"
	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/server"
)

// proxySF keeps every statement at a few milliseconds of engine work
// (120k lineitem rows), so what a client waits for is the hops.
const proxySF = 0.02

const (
	hotTexts  = 16  // fits the 64-entry plan LRU with room to spare
	hotShare  = 0.8 // of statements; the rest carry a never-repeated literal
	httpRows  = 1000
	shutdownT = 10 * time.Second
)

// sqlTemplates are the statement shapes: aggregates, group-bys, a join and
// top-Ns, over lineitem and orders so that every statement costs the engine
// a millisecond or more — more than one loopback round trip, so none can finish
// before the proxy's first poll, whatever the seed draws. Each takes one
// numeric literal, "<base>.<5 digits>", which is where a fresh statement
// carries its never-repeated value.
var sqlTemplates = []struct {
	text   string
	lo, hi int // range of the literal's integer part
}{
	{"SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < %s", 10, 40},
	{"SELECT l_returnflag, l_linestatus, count(*) AS n, sum(l_quantity) AS qty FROM lineitem WHERE l_quantity < %s GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus", 10, 50},
	{"SELECT c_mktsegment, count(*) AS n FROM orders JOIN customer ON o_custkey = c_custkey WHERE o_totalprice > %s GROUP BY c_mktsegment ORDER BY c_mktsegment", 20000, 120000},
	{"SELECT l_shipinstruct, count(*) AS n, avg(l_discount) AS disc FROM lineitem WHERE l_quantity > %s GROUP BY l_shipinstruct ORDER BY l_shipinstruct", 10, 40},
	{"SELECT l_suppkey, sum(l_quantity) AS qty FROM lineitem WHERE l_extendedprice > %s GROUP BY l_suppkey ORDER BY 2 DESC, 1 ASC LIMIT 10", 20000, 80000},
	{"SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_extendedprice > %s ORDER BY 2 DESC, 1 ASC LIMIT 10", 50000, 80000},
	{"SELECT l_returnflag, count(*) AS n, max(l_extendedprice) AS top FROM lineitem WHERE l_discount < 0.05 AND l_quantity < %s GROUP BY l_returnflag ORDER BY l_returnflag", 10, 50},
	{"SELECT l_shipmode, count(*) AS n, avg(l_extendedprice) AS price FROM lineitem WHERE l_extendedprice > %s GROUP BY l_shipmode ORDER BY l_shipmode", 1000, 60000},
}

type statement struct {
	text  string
	fresh bool
}

// statementMix is the seeded source of statements.
type statementMix struct {
	rng   *rand.Rand
	hot   []string
	fresh int
}

func newStatementMix(seed int64) *statementMix {
	m := &statementMix{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < hotTexts; i++ {
		m.hot = append(m.hot, m.render(i%len(sqlTemplates), 0))
	}
	return m
}

func (m *statementMix) render(template, unique int) string {
	t := sqlTemplates[template]
	lit := fmt.Sprintf("%d.%05d", t.lo+m.rng.Intn(t.hi-t.lo), unique)
	return fmt.Sprintf(t.text, lit)
}

func (m *statementMix) next() statement {
	if m.rng.Float64() < hotShare {
		return statement{text: m.hot[m.rng.Intn(len(m.hot))]}
	}
	m.fresh++
	return statement{text: m.render(m.rng.Intn(len(sqlTemplates)), m.fresh), fresh: true}
}

// instance is one server.Server, optionally behind its HTTP handler on a
// loopback listener. polls counts GET /sessions/… requests reaching it —
// the proxy's wait-mode polling, seen from the instance's side.
type instance struct {
	srv   *server.Server
	http  *http.Server
	url   string
	polls atomic.Int64
}

func startInstance(db *riveter.DB, name, dir string, listen bool) (*instance, error) {
	srv, err := server.New(server.Config{
		DB:         db,
		Slots:      1,
		StatePath:  filepath.Join(dir, name+".state.json"),
		InstanceID: name,
	})
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	in := &instance{srv: srv}
	if !listen {
		return in, nil
	}
	inner := srv.Handler()
	in.http, in.url, err = serveLoopback(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/sessions/") {
			in.polls.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	if err != nil {
		in.stop()
		return nil, err
	}
	return in, nil
}

func (in *instance) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownT)
	defer cancel()
	if in.http != nil {
		in.http.Shutdown(ctx)
	}
	in.srv.Shutdown(ctx)
}

// serveLoopback serves h on a fresh 127.0.0.1 port.
func serveLoopback(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) // returns when stop calls Shutdown, which waits for it
	return hs, "http://" + ln.Addr().String(), nil
}

// proxyShortSQL sends short SQL statements, one client, closed loop,
// through controlplane.Proxy in front of one serving instance. The engine
// does little; sql, plan, the plan cache, the server's submit/wait, HTTP
// and JSON, the proxy's routing and its wait-poll do the work.
type proxyShortSQL struct {
	cfg config
	sf  float64

	dir string
	db  *riveter.DB
	mix *statementMix
	hot map[string]*riveter.Query

	fleet     *instance // behind the proxy
	registry  *controlplane.Registry
	proxyHTTP *http.Server
	proxyURL  string
	transport *http.Transport // proxy → instance
	client    *http.Client    // benchmark → proxy, benchmark → serve rung
	clientTr  *http.Transport

	// Traced runs drive the same statement one layer lower each time; each
	// rung has an instance of its own so a fresh statement misses the plan
	// cache at every rung, as it does behind the proxy.
	serveRung  *instance
	serverRung *instance
}

func newProxyShortSQL(cfg config) *proxyShortSQL {
	w := &proxyShortSQL{cfg: cfg, sf: proxySF}
	if cfg.smoke {
		w.sf = smokeSF
	}
	return w
}

func (w *proxyShortSQL) sizes() string {
	return fmt.Sprintf("closed loop, 1 client, 1 keep-alive connection; SF %g (%d lineitem rows); %d hot texts vs %d-entry plan LRU, %.0f%% hot / %.0f%% fresh-literal; proxy poll 20 ms; 1 instance, 1 slot",
		w.sf, int(6e6*w.sf), hotTexts, server.DefaultPlanCacheSize, hotShare*100, (1-hotShare)*100)
}

func (w *proxyShortSQL) setUp() (err error) {
	if w.dir, err = runDir(w.cfg.tmpBase); err != nil {
		return err
	}
	w.db = riveter.Open(riveter.WithFS(newMemFS()), riveter.WithWorkers(w.cfg.workers), riveter.WithCheckpointDir(filepath.Join(w.dir, "ckpt")))
	if err := w.db.GenerateTPCH(w.sf); err != nil {
		return fmt.Errorf("generate TPC-H: %w", err)
	}
	w.mix = newStatementMix(w.cfg.seed)
	w.hot = map[string]*riveter.Query{}
	for _, text := range w.mix.hot {
		if w.hot[text], err = w.db.Prepare(text); err != nil {
			return fmt.Errorf("prepare %q: %w", text, err)
		}
	}

	if w.fleet, err = startInstance(w.db, "fleet", w.dir, true); err != nil {
		return err
	}
	w.transport = &http.Transport{MaxIdleConnsPerHost: w.cfg.workers}
	met := obs.NewRegistry()
	w.registry = controlplane.NewRegistry(controlplane.RegistryConfig{Metrics: met, Transport: w.transport})
	proxy := controlplane.NewProxy(controlplane.ProxyConfig{Registry: w.registry, Metrics: met, Transport: w.transport})
	w.registry.Register("fleet", w.fleet.url)
	if w.proxyHTTP, w.proxyURL, err = serveLoopback(proxy.Handler()); err != nil {
		return err
	}
	w.clientTr = &http.Transport{MaxIdleConnsPerHost: 1}
	w.client = &http.Client{Transport: w.clientTr}

	if w.cfg.trace {
		if w.serveRung, err = startInstance(w.db, "serve-rung", w.dir, true); err != nil {
			return err
		}
		if w.serverRung, err = startInstance(w.db, "server-rung", w.dir, false); err != nil {
			return err
		}
	}

	// One discarded pass over the hot texts at every rung: fills each plan
	// cache, opens the connections, sizes the heap.
	ctx := context.Background()
	for _, text := range w.mix.hot {
		if _, _, err := w.post(w.proxyURL, text); err != nil {
			return fmt.Errorf("warm-up via proxy: %w", err)
		}
		if !w.cfg.trace {
			continue
		}
		if _, _, err := w.post(w.serveRung.url, text); err != nil {
			return fmt.Errorf("warm-up via serve: %w", err)
		}
		if _, err := submitWait(ctx, w.serverRung.srv, server.Request{SQL: text, Priority: server.Normal}); err != nil {
			return fmt.Errorf("warm-up via server: %w", err)
		}
	}
	return nil
}

func (w *proxyShortSQL) tearDown() {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownT)
	defer cancel()
	if w.proxyHTTP != nil {
		w.proxyHTTP.Shutdown(ctx)
	}
	if w.registry != nil {
		w.registry.Close()
	}
	for _, in := range []*instance{w.fleet, w.serveRung, w.serverRung} {
		if in != nil {
			in.stop()
		}
	}
	for _, tr := range []*http.Transport{w.transport, w.clientTr} {
		if tr != nil {
			tr.CloseIdleConnections()
		}
	}
	*w = proxyShortSQL{cfg: w.cfg, sf: w.sf, dir: w.dir}
	os.RemoveAll(w.dir)
}

// sessionReply is the part of a session envelope the benchmark reads.
type sessionReply struct {
	State   string `json:"state"`
	Error   string `json:"error"`
	NumRows int64  `json:"num_rows"`
	Result  *struct {
		Rows    [][]string `json:"rows"`
		NumRows int64      `json:"num_rows"`
	} `json:"result"`
}

// post sends one wait-mode query and reads the whole reply. The returned
// duration is what the client waited: request sent to last byte read.
func (w *proxyShortSQL) post(base, sql string) ([]byte, time.Duration, error) {
	body, err := json.Marshal(map[string]any{"sql": sql, "wait": true, "priority": "normal"})
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	resp, err := w.client.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, d, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, d, nil
}

// submitWait is the in-process client of a server: Submit, then Wait.
func submitWait(ctx context.Context, srv *server.Server, req server.Request) (*riveter.Result, error) {
	sess, err := srv.Submit(req)
	if err != nil {
		return nil, err
	}
	return srv.Wait(ctx, sess.ID())
}

// checkReply compares an HTTP reply with the in-process result of the same
// statement: row count, and every rendered cell of the rows it carries.
func checkReply(data []byte, want *riveter.Result) error {
	var reply sessionReply
	if err := json.Unmarshal(data, &reply); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	if reply.State != "done" || reply.Result == nil {
		return fmt.Errorf("session state %q, error %q", reply.State, reply.Error)
	}
	if reply.NumRows != want.NumRows() || reply.Result.NumRows != want.NumRows() {
		return fmt.Errorf("num_rows %d/%d, want %d", reply.NumRows, reply.Result.NumRows, want.NumRows())
	}
	if rows := renderRows(want, httpRows); !reflect.DeepEqual(reply.Result.Rows, rows) && (len(rows) > 0 || len(reply.Result.Rows) > 0) {
		return fmt.Errorf("rows differ: got %v, want %v", reply.Result.Rows, rows)
	}
	return nil
}

func (w *proxyShortSQL) run(d time.Duration, rec *Recorder) *result {
	ctx := context.Background()
	res := &result{}
	type pending struct {
		stmt  statement
		reply []byte
	}
	var (
		toCheck   []pending
		busy      time.Duration
		prepareUS []float64
		freshN    int

		rungInproc, rungServer, rungServe, rungProxy []float64
		hopServer, hopHTTP, hopProxy                 []float64
	)
	before := w.db.Metrics().Snapshot()
	polls0 := w.fleet.polls.Load()
	a0 := heapAllocBytes()
	start := time.Now()
	for op := 1; op == 1 || time.Since(start) < d; op++ {
		st := w.mix.next()
		res.attempted++
		if st.fresh {
			freshN++
		}
		t0 := time.Now()
		reply, lat, err := w.post(w.proxyURL, st.text)
		if err != nil {
			res.fail("proxy: %v", err)
			continue
		}
		busy += lat
		res.latencyMS = append(res.latencyMS, ms(lat))
		if rec == nil {
			toCheck = append(toCheck, pending{st, reply})
			continue
		}

		// The ladder: the same statement at each lower rung, every rung a
		// child of the one above.
		root := rec.add(op, 0, "controlplane", "proxy.query", t0, t0.Add(lat))
		t1 := time.Now()
		serveReply, serveLat, err := w.post(w.serveRung.url, st.text)
		if err != nil {
			res.fail("serve rung: %v", err)
			continue
		}
		serveSpan := rec.add(op, root, "http", "serve.query", t1, t1.Add(serveLat))

		t2 := time.Now()
		srvOut, err := submitWait(ctx, w.serverRung.srv, server.Request{SQL: st.text, Priority: server.Normal})
		t3 := time.Now()
		if err != nil {
			res.fail("server rung: %v", err)
			continue
		}
		srvSpan := rec.add(op, serveSpan, "server", "submit_wait", t2, t3)

		q := w.hot[st.text]
		var prep time.Duration
		if q == nil {
			p0 := time.Now()
			q, err = w.db.Prepare(st.text)
			p1 := time.Now()
			if err != nil {
				res.fail("prepare: %v", err)
				continue
			}
			prep = p1.Sub(p0)
			prepareUS = append(prepareUS, us(prep))
			rec.add(op, srvSpan, "sql", "prepare", p0, p1)
		}
		r0 := time.Now()
		want, err := q.Run(ctx)
		r1 := time.Now()
		if err != nil {
			res.fail("in-process: %v", err)
			continue
		}
		rec.add(op, srvSpan, "engine", "query.run", r0, r1)

		inproc := prep + r1.Sub(r0)
		rungInproc = append(rungInproc, ms(inproc))
		rungServer = append(rungServer, ms(t3.Sub(t2)))
		rungServe = append(rungServe, ms(serveLat))
		rungProxy = append(rungProxy, ms(lat))
		hopServer = append(hopServer, us(t3.Sub(t2)-inproc))
		hopHTTP = append(hopHTTP, us(serveLat-t3.Sub(t2)))
		hopProxy = append(hopProxy, ms(lat-serveLat))

		if err := checkReply(reply, want); err != nil {
			res.fail("proxy reply for %q: %v", st.text, err)
		}
		if err := checkReply(serveReply, want); err != nil {
			res.fail("serve reply for %q: %v", st.text, err)
		}
		if digest(srvOut) != digest(want) {
			res.fail("server result for %q differs from in-process", st.text)
		}
	}
	allocated := heapAllocBytes() - a0
	polls := w.fleet.polls.Load() - polls0
	after := w.db.Metrics().Snapshot()

	// Untraced replies are checked after the clock stops: each distinct
	// statement runs once in-process, and that Prepare is the layer sample.
	expected := map[string]*riveter.Result{}
	for _, p := range toCheck {
		want := expected[p.stmt.text]
		if want == nil {
			q := w.hot[p.stmt.text]
			if q == nil {
				p0 := time.Now()
				fresh, err := w.db.Prepare(p.stmt.text)
				if err != nil {
					res.fail("prepare %q: %v", p.stmt.text, err)
					continue
				}
				prepareUS = append(prepareUS, us(time.Since(p0)))
				q = fresh
			}
			out, err := q.Run(ctx)
			if err != nil {
				res.fail("in-process %q: %v", p.stmt.text, err)
				continue
			}
			want = out
			expected[p.stmt.text] = want
		}
		if err := checkReply(p.reply, want); err != nil {
			res.fail("proxy reply for %q: %v", p.stmt.text, err)
		}
	}

	done := len(res.latencyMS)
	if done == 0 {
		return res
	}
	res.throughput = float64(done) / busy.Seconds()
	res.allocMBPerOp = float64(allocated) / (1 << 20) / float64(res.attempted)

	res.endToEnd = timing(res.endToEnd, "query_ms", "ms", res.latencyMS)
	res.endToEnd = append(res.endToEnd, Metric{Name: "queries_per_s", Value: res.throughput, Unit: "1/s", N: done})

	hits := after.Counters[obs.MetricPlanCacheHit] - before.Counters[obs.MetricPlanCacheHit]
	misses := after.Counters[obs.MetricPlanCacheMiss] - before.Counters[obs.MetricPlanCacheMiss]
	res.perLayer = append(res.perLayer,
		Metric{Name: "sql.prepare_us", Value: median(prepareUS), Unit: "us", N: len(prepareUS), Note: "median DB.Prepare of a fresh-literal text"},
		Metric{Name: "plan.cache_hit_share", Value: float64(hits) / float64(max(hits+misses, 1)), Unit: "ratio", N: int(hits + misses),
			Note: fmt.Sprintf("server.plancache hits/lookups; %d of %d statements were fresh", freshN, res.attempted)},
		Metric{Name: "controlplane.polls_per_query", Value: float64(polls) / float64(res.attempted), Unit: "count", N: res.attempted,
			Note: "GET /sessions/… requests seen by the instance, per proxied query"},
	)
	if rec != nil {
		for _, rung := range []struct {
			name    string
			samples []float64
		}{{"rung.inprocess_ms", rungInproc}, {"rung.server_ms", rungServer}, {"rung.serve_http_ms", rungServe}, {"rung.proxy_ms", rungProxy}} {
			res.perLayer = append(res.perLayer, Metric{Name: rung.name, Value: median(rung.samples), Unit: "ms", N: len(rung.samples), Note: "median"})
		}
		ordered := 0.0
		if median(rungInproc) <= median(rungServer) && median(rungServer) <= median(rungServe) && median(rungServe) <= median(rungProxy) {
			ordered = 1
		}
		res.perLayer = append(res.perLayer,
			Metric{Name: "rung.ordered", Value: ordered, Unit: "bool", Note: "in-process ≤ server ≤ serve-HTTP ≤ proxy"},
			Metric{Name: "server.submit_wait_us", Value: median(hopServer), Unit: "us", N: len(hopServer), Note: "median of (Submit→Wait) − (Prepare if fresh + Query.Run), paired per statement"},
			Metric{Name: "http.hop_us", Value: median(hopHTTP), Unit: "us", N: len(hopHTTP), Note: "median of serve-HTTP − in-process server, paired"},
			Metric{Name: "controlplane.hop_ms", Value: median(hopProxy), Unit: "ms", N: len(hopProxy), Note: "median of proxy − serve-HTTP, paired"},
		)
	}
	return res
}

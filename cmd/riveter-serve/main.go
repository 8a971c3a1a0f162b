// Command riveter-serve exposes the query-serving subsystem over HTTP:
// session-managed, admission-controlled, suspension-preemptive execution
// of TPC-H or ad-hoc SQL queries against one in-memory database.
//
// Examples:
//
//	riveter-serve -sf 0.01                       # generate data, listen on :8080
//	riveter-serve -data ./snapshot -addr :9000   # serve a tpchgen snapshot
//	riveter-serve -policy fifo                   # baseline scheduling, no preemption
//	riveter-serve -preempt lineage               # persist suspensions as write-ahead-lineage seals
//
//	curl -s localhost:8080/query -d '{"sql":"SELECT count(*) FROM orders","wait":true}'
//	curl -s localhost:8080/query -d '{"tpch":21,"priority":"batch"}'
//	curl -s localhost:8080/sessions
//	curl -s 'localhost:8080/sessions/s-2?wait=10s'   # held until done (or 10s)
//	curl -s localhost:8080/metrics?format=text
//
// SIGINT/SIGTERM shut down gracefully: running queries are suspended at
// their next pipeline breaker and checkpointed, so are preempted ones held
// in memory, and a state manifest is written so the next riveter-serve on
// the same checkpoint directory resumes them.
//
// With -store, checkpoints go to a content-addressed blob store instead
// of local files, and the shutdown state document lands in the store
// too — so a *different* instance pointed at the same -store directory
// (riveter-serve -store /shared -instance b) claims and finishes the
// suspended queries: cross-instance query migration. -store-latency and
// -store-upbw/-store-downbw shape a simulated remote link, which the
// cost model is calibrated against.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/cloud"
	"github.com/riveterdb/riveter/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address")
		sf           = flag.Float64("sf", 0.01, "generate TPC-H at this scale factor (ignored with -data)")
		data         = flag.String("data", "", "load a saved .rvc snapshot directory instead of generating")
		workers      = flag.Int("workers", 4, "workers per pipeline")
		slots        = flag.Int("slots", 1, "concurrent query slots")
		queueLimit   = flag.Int("queue", 64, "max queued sessions (0 = unbounded)")
		memBudget    = flag.Int64("mem", 0, "admission memory budget in bytes (0 = unlimited)")
		policyName   = flag.String("policy", "suspend", "scheduling policy: suspend or fifo")
		preemptLevel = flag.String("preempt", "pipeline", "what a persisted suspension (idle park, shutdown, drain) writes: pipeline, process, or lineage; a preemption is held in memory and writes nothing")
		ckdir        = flag.String("ckdir", "", "checkpoint directory (default: a fresh temp dir)")
		drainTimeout = flag.Duration("drain", 30*time.Second, "graceful shutdown timeout")
		storeDir     = flag.String("store", "", "checkpoint blob-store directory; instances sharing it migrate suspended queries between each other")
		instanceID   = flag.String("instance", "", "instance id inside the shared store (default: process-unique)")
		storeLat     = flag.Duration("store-latency", 0, "simulated store round-trip latency per operation")
		storeUpBW    = flag.Int64("store-upbw", 0, "simulated store upload bandwidth in bytes/sec (0 = unshaped)")
		storeDownBW  = flag.Int64("store-downbw", 0, "simulated store download bandwidth in bytes/sec (0 = unshaped)")
		idleSuspend  = flag.Duration("idle-suspend", 0, "scale-to-zero: park running sessions nobody touched for this long (0 = off)")
		control      = flag.String("control", "", "control-plane proxy URL to register with (needs -advertise)")
		advertise    = flag.String("advertise", "", "URL the proxy should reach this instance at (e.g. http://127.0.0.1:8080)")
		foldFlag     = flag.Bool("fold", false, "shared execution: fold identical concurrent queries onto one execution and share table scans")
	)
	flag.Parse()

	opts := []riveter.Option{riveter.WithWorkers(*workers), riveter.WithTracing()}
	if *foldFlag {
		opts = append(opts, riveter.WithFold())
	}
	if *ckdir != "" {
		opts = append(opts, riveter.WithCheckpointDir(*ckdir))
	}
	if *storeDir != "" {
		opts = append(opts, riveter.WithBlobStore(riveter.StoreConfig{
			Dir: *storeDir,
			Net: cloud.NetProfile{
				Latency:             *storeLat,
				UploadBytesPerSec:   *storeUpBW,
				DownloadBytesPerSec: *storeDownBW,
			},
		}))
	}
	db := riveter.Open(opts...)
	if *storeDir != "" {
		if _, err := db.BlobStore(); err != nil {
			log.Fatal(err)
		}
		log.Printf("checkpoint store at %s (instance %q)", *storeDir, *instanceID)
	}
	if *data != "" {
		log.Printf("loading snapshot from %s ...", *data)
		if err := db.LoadDir(*data); err != nil {
			log.Fatal(err)
		}
	} else {
		log.Printf("generating TPC-H at SF %g ...", *sf)
		if err := db.GenerateTPCH(*sf); err != nil {
			log.Fatal(err)
		}
	}

	var policy server.Policy
	switch *policyName {
	case "fifo":
		policy = server.FIFO{}
	case "suspend":
		policy = server.SuspensionAware{}
	default:
		log.Fatalf("unknown -policy %q (want suspend or fifo)", *policyName)
	}

	var level riveter.Strategy
	switch *preemptLevel {
	case "pipeline":
		level = riveter.PipelineLevel
	case "process":
		level = riveter.ProcessLevel
	case "lineage":
		level = riveter.LineageLevel
	default:
		log.Fatalf("unknown -preempt %q (want pipeline, process, or lineage)", *preemptLevel)
	}

	srv, err := server.New(server.Config{
		DB:           db,
		Slots:        *slots,
		QueueLimit:   *queueLimit,
		MemoryBudget: *memBudget,
		Policy:       policy,
		PreemptLevel: level,
		InstanceID:   *instanceID,
		IdleSuspend:  *idleSuspend,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *control != "" {
		if *advertise == "" {
			log.Fatal("-control needs -advertise (the URL the proxy reaches this instance at)")
		}
		body, _ := json.Marshal(map[string]string{"id": srv.InstanceID(), "url": *advertise})
		// The proxy may still be starting (or briefly unreachable) when the
		// instance comes up — retry the registration with a short backoff
		// instead of dying on the first connection refusal.
		registered := false
		var rerr error
		for attempt := 0; attempt < 5; attempt++ {
			if attempt > 0 {
				time.Sleep(time.Duration(attempt) * 200 * time.Millisecond)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			var req *http.Request
			req, rerr = http.NewRequestWithContext(ctx, http.MethodPost,
				*control+"/fleet/register", bytes.NewReader(body))
			if rerr != nil {
				cancel()
				break
			}
			req.Header.Set("Content-Type", "application/json")
			var resp *http.Response
			resp, rerr = http.DefaultClient.Do(req)
			cancel()
			if rerr != nil {
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				rerr = fmt.Errorf("register status %d", resp.StatusCode)
				continue
			}
			registered = true
			break
		}
		if !registered {
			log.Fatalf("register with control plane %s: %v", *control, rerr)
		}
		log.Printf("registered instance %q at %s with control plane %s", srv.InstanceID(), *advertise, *control)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	// httpSrv.Shutdown waits for in-flight requests without cancelling
	// them: release held session reads first, or each would run out its
	// hold before shutdown could proceed.
	httpSrv.RegisterOnShutdown(srv.ReleaseHolds)
	go func() {
		log.Printf("riveter-serve listening on %s (policy=%s slots=%d, checkpoints in %s)",
			*addr, policy.Name(), *slots, db.CheckpointDir())
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down: suspending in-flight queries ...")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("server shutdown: %v", err)
		os.Exit(1)
	}
	for _, in := range srv.Sessions() {
		if in.State == server.StateSuspended || in.State == server.StateQueued {
			fmt.Printf("persisted session %s (%s, %s) for resume\n", in.ID, in.Query, in.State)
		}
	}
	log.Printf("bye")
}

// Command riveter-run executes one TPC-H query (or an ad-hoc SQL statement)
// with optional suspension and resumption, demonstrating the framework
// end to end from the command line.
//
// Examples:
//
//	riveter-run -sf 0.05 -q 21                              # run Q21
//	riveter-run -sf 0.05 -q 21 -suspend pipeline -at 0.5    # suspend+resume
//	riveter-run -sf 0.01 -sql "SELECT count(*) FROM orders" # ad-hoc SQL
//	riveter-run -sf 0.05 -q 17 -adaptive -p 0.7 -window 0.5,0.75
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/cloud"
	"github.com/riveterdb/riveter/internal/obs"
)

func main() {
	var (
		sf       = flag.Float64("sf", 0.01, "TPC-H scale factor")
		qid      = flag.Int("q", 0, "TPC-H query id 1..22")
		sqlText  = flag.String("sql", "", "ad-hoc SQL instead of a TPC-H query")
		workers  = flag.Int("workers", 4, "workers per pipeline")
		suspend  = flag.String("suspend", "", "suspend strategy: pipeline or process")
		at       = flag.Float64("at", 0.5, "suspension point as a fraction of a clean run's processed bytes")
		adaptive = flag.Bool("adaptive", false, "run under the adaptive controller")
		prob     = flag.Float64("p", 1.0, "termination probability (adaptive mode)")
		window   = flag.String("window", "0.5,0.75", "termination window fractions (adaptive mode)")
		maxRows  = flag.Int64("rows", 20, "result rows to print")
		metrics  = flag.Bool("metrics", false, "dump execution trace and metrics (human-readable + JSON) at exit")
		storeDir = flag.String("store", "", "checkpoint to a content-addressed blob store at this directory instead of a local file")
		storeLat = flag.Duration("store-latency", 0, "simulated store round-trip latency per operation")
		storeUp  = flag.Int64("store-upbw", 0, "simulated store upload bandwidth in bytes/sec (0 = unshaped)")
		storeDn  = flag.Int64("store-downbw", 0, "simulated store download bandwidth in bytes/sec (0 = unshaped)")
	)
	flag.Parse()

	// Checkpoints go to a directory of the run's own, removed on every
	// exit: here when main returns, in fatal when it does not.
	dir, err := os.MkdirTemp("", "riveter-*")
	if err != nil {
		fatal("%v", err)
	}
	ckptDir = dir
	defer os.RemoveAll(dir)
	dbOpts := []riveter.Option{riveter.WithWorkers(*workers), riveter.WithCheckpointDir(dir)}
	if *metrics {
		dbOpts = append(dbOpts, riveter.WithTracing())
	}
	if *storeDir != "" {
		dbOpts = append(dbOpts, riveter.WithBlobStore(riveter.StoreConfig{
			Dir: *storeDir,
			Net: cloud.NetProfile{
				Latency:             *storeLat,
				UploadBytesPerSec:   *storeUp,
				DownloadBytesPerSec: *storeDn,
			},
		}))
	}
	db := riveter.Open(dbOpts...)
	if *storeDir != "" {
		if _, err := db.BlobStore(); err != nil {
			fatal("%v", err)
		}
		prof := db.IOProfile()
		fmt.Printf("store at %s: calibrated upload %.1f MB/s, download %.1f MB/s, fixed %v\n",
			*storeDir, prof.UploadBytesPerSec/(1<<20), prof.DownloadBytesPerSec/(1<<20),
			prof.UploadFixedLatency.Round(time.Microsecond))
	}
	if *metrics {
		defer dumpMetrics(db)
	}
	fmt.Printf("generating TPC-H SF %g ...\n", *sf)
	if err := db.GenerateTPCH(*sf); err != nil {
		fatal("%v", err)
	}

	var q *riveter.Query
	switch {
	case *sqlText != "":
		q, err = db.Prepare(*sqlText)
	case *qid >= 1 && *qid <= 22:
		q, err = db.PrepareTPCH(*qid)
	default:
		fatal("pass -q 1..22 or -sql")
	}
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("plan for %s:\n%s\n", q.Name(), q.Plan())

	ctx := context.Background()
	switch {
	case *adaptive:
		runAdaptive(q, *prob, *window)
	case *suspend != "":
		runWithSuspension(ctx, db, q, *suspend, *at, *maxRows)
	default:
		start := time.Now()
		res, err := q.Run(ctx)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("completed in %v, %d rows\n%s", time.Since(start).Round(time.Millisecond), res.NumRows(), res.Format(*maxRows))
	}
}

func runWithSuspension(ctx context.Context, db *riveter.DB, q *riveter.Query, kind string, at float64, maxRows int64) {
	var k riveter.Strategy
	switch kind {
	case "pipeline":
		k = riveter.PipelineLevel
	case "process":
		k = riveter.ProcessLevel
	default:
		fatal("-suspend must be pipeline or process")
	}

	// A clean run measures the bytes the query processes; the suspension
	// is armed at the -at fraction of them.
	clean, err := q.Start(ctx)
	if err != nil {
		fatal("%v", err)
	}
	if err := clean.Wait(); err != nil {
		fatal("%v", err)
	}
	mark := int64(at * float64(clean.ProcessedBytes()))
	fmt.Printf("clean run: %d bytes processed; suspending at %d\n", clean.ProcessedBytes(), mark)

	exec, err := q.Start(ctx)
	if err != nil {
		fatal("%v", err)
	}
	if err := exec.SuspendWhen(k, mark); err != nil {
		fatal("%v", err)
	}
	err = exec.Wait()
	switch {
	case err == nil:
		fmt.Println("query completed before reaching the suspension mark")
		return
	case errors.Is(err, riveter.ErrSuspended):
	default:
		fatal("%v", err)
	}

	if _, serr := db.BlobStore(); serr == nil {
		runStoreRoundTrip(ctx, db, q, exec, maxRows)
		return
	}

	ckpt := riveter.ResumePoint{Target: "file", Ref: db.NewCheckpointPath("run")}
	info, err := exec.Persist(ctx, ckpt, riveter.PersistOptions{})
	if err != nil {
		fatal("checkpoint: %v", err)
	}
	fmt.Printf("suspended (%s): persisted %d bytes (state %d) to %s\n",
		info.Kind, info.TotalBytes, info.StateBytes, info.Path)
	finishFrom(ctx, q, exec, ckpt, "", maxRows)
	if err := db.Discard(ckpt); err != nil {
		fatal("discard: %v", err)
	}
}

// finishFrom resumes the suspended exec from at and runs it to completion.
// Handing exec to StartFrom continues its trace, so a -metrics dump covers
// the whole suspend→persist→resume round trip.
func finishFrom(ctx context.Context, q *riveter.Query, exec *riveter.Execution, at riveter.ResumePoint, from string, maxRows int64) {
	resumeStart := time.Now()
	resumed, err := q.StartFrom(ctx, at, exec)
	if err != nil {
		fatal("resume: %v", err)
	}
	res, err := resumed.Result()
	if err != nil {
		fatal("resume: %v", err)
	}
	fmt.Printf("resumed%s and completed in %v, %d rows\n%s",
		from, time.Since(resumeStart).Round(time.Millisecond), res.NumRows(), res.Format(maxRows))
	dumpTrace(exec.Trace())
}

// runStoreRoundTrip persists the suspended state into the blob store —
// twice, to demonstrate delta suspension: the second write deduplicates
// every unchanged chunk — then resumes from the store to completion.
func runStoreRoundTrip(ctx context.Context, db *riveter.DB, q *riveter.Query, exec *riveter.Execution, maxRows int64) {
	first := riveter.ResumePoint{Target: "store", Ref: "run-demo"}
	second := riveter.ResumePoint{Target: "store", Ref: "run-demo-2"}
	info, err := exec.Persist(ctx, first, riveter.PersistOptions{})
	if err != nil {
		fatal("store checkpoint: %v", err)
	}
	fmt.Printf("suspended (%s): %d state bytes in %d chunks, %d deduplicated, %d bytes uploaded\n",
		info.Kind, info.StateBytes, info.Chunks, info.DedupHits, info.UploadedBytes)
	if again, err := exec.Persist(ctx, second, riveter.PersistOptions{}); err == nil {
		fmt.Printf("re-suspension delta: %d/%d chunks deduplicated, %d bytes uploaded\n",
			again.DedupHits, again.Chunks, again.UploadedBytes)
	}
	finishFrom(ctx, q, exec, first, " from store", maxRows)
	_ = db.Discard(first)
	_ = db.Discard(second)
}

func runAdaptive(q *riveter.Query, prob float64, window string) {
	parts := strings.Split(window, ",")
	if len(parts) != 2 {
		fatal("-window must be start,end")
	}
	lo, err1 := strconv.ParseFloat(parts[0], 64)
	hi, err2 := strconv.ParseFloat(parts[1], 64)
	if err1 != nil || err2 != nil {
		fatal("bad -window %q", window)
	}
	fmt.Println("calibrating ...")
	a, err := q.NewAdaptive()
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("normal execution time: %v\n", a.NormalTime().Round(time.Millisecond))
	rep, err := a.Run(riveter.Scenario{Probability: prob, WindowStartFrac: lo, WindowEndFrac: hi})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("selected strategy:  %v\n", rep.Strategy)
	fmt.Printf("suspended:          %v (persisted %d bytes)\n", rep.Suspended, rep.PersistedBytes)
	fmt.Printf("terminated:         %v\n", rep.Terminated)
	fmt.Printf("cost model runtime: %v\n", rep.SelectionTime)
	fmt.Printf("execution time with suspension: %v (normal %v)\n",
		rep.TotalTime.Round(time.Millisecond), rep.NormalTime.Round(time.Millisecond))
	dumpTrace(rep.Trace)
}

// dumpTrace prints the run's event stream, human-readable then JSON.
func dumpTrace(tr *obs.Trace) {
	if tr == nil {
		return
	}
	fmt.Println()
	_ = tr.WriteText(os.Stdout)
	_ = tr.WriteJSON(os.Stdout)
}

// dumpMetrics prints the DB's metrics snapshot, human-readable then JSON.
func dumpMetrics(db *riveter.DB) {
	snap := db.Metrics().Snapshot()
	fmt.Println("\nmetrics:")
	_ = snap.WriteText(os.Stdout)
	_ = snap.WriteJSON(os.Stdout)
}

// ckptDir is the run's checkpoint directory, once made.
var ckptDir string

// fatal reports the error, removes the checkpoint directory (os.Exit runs
// no deferred call) and exits.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "riveter-run: "+format+"\n", args...)
	if ckptDir != "" {
		os.RemoveAll(ckptDir)
	}
	os.Exit(1)
}

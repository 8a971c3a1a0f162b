// Command benchmark is the one benchmark every performance claim about this
// repository is measured with. It drives the system from outside — timing
// calls into public functions of riveter, internal/sql, internal/plan,
// internal/engine, internal/strategy, internal/checkpoint,
// internal/blobstore, internal/costmodel, internal/server and
// internal/controlplane — through four workloads that each load different
// layers; README.md says why each exists and what every metric means.
//
//	bash benchmark/run.sh --workload proxy-short-sql --seed 7 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload suspend-cycle --seed 7 --seconds 15 --trace 1 -out r.json
//	bash benchmark/run.sh -compare 'benchmark/results/baseline-a-*.json' 'benchmark/results/baseline-b-*.json'
//
// The last line of standard output is the JSON object BENCHMARK.json's
// contract asks for; the exit code is non-zero when any output was wrong.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// smokeSF sizes every workload's -smoke variant.
const smokeSF = 0.01

// setUpRuns is how often a run sets its workload up: set-up time is a
// metric with a bound of its own, and one sample of it is too noisy to
// hold a later change to.
const setUpRuns = 3

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	tmpBase  string
	workers  int
}

// workload is one of the benchmark's four load shapes. setUp builds
// everything the measured phase needs and ends with a discarded warm-up
// pass; run measures for about d, recording a span per call into a layer
// when rec is non-nil; tearDown stops every server and removes every file
// setUp or run created.
type workload interface {
	sizes() string
	setUp() error
	run(d time.Duration, rec *Recorder) *result
	tearDown()
}

var workloadNames = []string{"tpch-inproc", "proxy-short-sql", "suspend-cycle", "serve-preempt"}

func newWorkload(cfg config, o *oracle) (workload, error) {
	switch cfg.workload {
	case "tpch-inproc":
		return newTPCHInproc(cfg, o), nil
	case "proxy-short-sql":
		return newProxyShortSQL(cfg), nil
	case "suspend-cycle":
		return newSuspendCycle(cfg, o), nil
	case "serve-preempt":
		return newServePreempt(cfg, o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
}

func main() {
	var (
		cfg         config
		trace       int
		out         string
		traceOut    string
		compare     bool
		writeGold   bool
		defaultBase = filepath.Join(".bench_build", "tmp")
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: tpch-inproc, proxy-short-sql, suspend-cycle or serve-preempt")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for statement mixes, rotations and arrival schedules")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: also drive every layer below the workload's entry point, record spans, report per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes (SF 0.01) for tests; timings are not meaningful")
	flag.StringVar(&cfg.tmpBase, "tmpdir", defaultBase, "directory for checkpoints, stores and logs (e.g. /dev/shm to take the device out of the numbers)")
	flag.StringVar(&out, "out", "", "also write the full report as JSON to this file")
	flag.StringVar(&traceOut, "trace-out", filepath.Join(".bench_build", "trace.json"), "where a traced run writes its spans")
	flag.BoolVar(&compare, "compare", false, "compare two sets of reports: -compare 'a-*.json' 'b-*.json'")
	flag.BoolVar(&writeGold, "write-golden", false, "regenerate benchmark/golden/digests.json from this code (argument: output path)")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.workers = runtime.NumCPU()

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two glob patterns"))
		}
		worse, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	case writeGold:
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("-write-golden takes the output path"))
		}
		if err := writeGolden(flag.Arg(0), cfg.tmpBase); err != nil {
			fatal(err)
		}
		return
	}

	rep, rec, err := runBenchmark(cfg)
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout)
	if rec != nil {
		if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
			fatal(err)
		}
		if err := rec.writeFile(traceOut); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %d spans written to %s\n", len(rec.all()), traceOut)
	}
	if out != "" {
		if err := rep.writeFile(out); err != nil {
			fatal(err)
		}
	}
	line, err := rep.contractLine()
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
	if rep.OpsFailed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runBenchmark sets the workload up (several times, keeping the last),
// measures it, and assembles the report.
func runBenchmark(cfg config) (*Report, *Recorder, error) {
	o, err := loadOracle()
	if err != nil {
		return nil, nil, err
	}
	w, err := newWorkload(cfg, o)
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{
		Benchmark: "riveter-benchmark/1",
		Workload:  cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Smoke: cfg.smoke,
		Env:      captureEnv(cfg.tmpBase, cfg.workers),
		Sizes:    w.sizes(),
		Contract: map[string]Metric{},
	}

	runs := setUpRuns
	if cfg.smoke {
		runs = 1
	}
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			w.tearDown()
			return nil, nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		rep.SetupRunsS = append(rep.SetupRunsS, time.Since(t0).Seconds())
		if i < runs-1 {
			w.tearDown()
		}
	}
	defer w.tearDown()
	rep.SetupS = median(rep.SetupRunsS)

	// A traced run spends half its time untraced and half traced — equal
	// halves, so that the two phases tracing overhead is taken between are
	// alike in everything but the tracing. Every phase starts from a
	// collected heap, so that neither set-up's garbage nor the phase before
	// decides when the collector first runs.
	phase := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		phase /= 2
	}
	t0 := time.Now()
	var rec *Recorder
	runtime.GC()
	base := w.run(phase, nil)
	res := base
	if cfg.trace {
		rec = newRecorder()
		runtime.GC()
		res = w.run(phase, rec)
		res.attempted += base.attempted
		res.failed += base.failed
		res.failures = append(base.failures, res.failures...)
		if res.invalid == "" {
			res.invalid = base.invalid
		}
	}
	rep.MeasuredS = time.Since(t0).Seconds()

	rep.OpsAttempted, rep.OpsFailed, rep.Failures = res.attempted, res.failed, res.failures
	rep.Valid, rep.Invalid = res.invalid == "", res.invalid
	if len(base.latencyMS) == 0 {
		return nil, nil, fmt.Errorf("%s: no operation completed: %v", cfg.workload, res.failures)
	}
	rep.EndToEnd = base.endToEnd
	rep.PerLayer = res.perLayer

	p50, n := median(base.latencyMS), len(base.latencyMS)
	if !cfg.trace {
		rep.Contract["latency_p50_ms"] = Metric{Name: "latency_p50_ms", Value: p50, Unit: "ms", N: n}
		rep.Contract["throughput_per_s"] = Metric{Name: "throughput_per_s", Value: base.throughput, Unit: "1/s", N: n}
		rep.Contract["alloc_mb_per_op"] = Metric{Name: "alloc_mb_per_op", Value: base.allocMBPerOp, Unit: "MB", N: n}
		rep.Contract["setup_s"] = Metric{Name: "setup_s", Value: rep.SetupS, Unit: "s", N: len(rep.SetupRunsS)}
		return rep, nil, nil
	}

	detail, contract := layerMetricsFromTrace(rec.all())
	rep.PerLayer = append(rep.PerLayer, detail...)
	overhead := Metric{Name: "trace.overhead_pct", Unit: "%", N: len(res.latencyMS),
		Value: (median(res.latencyMS)/p50 - 1) * 100,
		Note:  fmt.Sprintf("median latency traced %.4f ms vs untraced %.4f ms", median(res.latencyMS), p50)}
	rep.PerLayer = append(rep.PerLayer, overhead)
	contract["trace.overhead_pct"] = overhead
	rep.Contract = contract
	return rep, rec, nil
}

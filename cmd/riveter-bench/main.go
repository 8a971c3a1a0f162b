// Command riveter-bench regenerates the paper's evaluation artifacts: every
// table and figure of §IV, at laptop scale.
//
// Usage:
//
//	riveter-bench -exp fig8                 # one experiment
//	riveter-bench -exp all -runs 10         # the full evaluation
//	riveter-bench -exp fig10 -sfs 0.01,0.05 -queries 1,3,17,21
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/riveterdb/riveter/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id: "+strings.Join(bench.Experiments(), ", ")+", or all")
		sfs     = flag.String("sfs", "0.01,0.05,0.1", "comma-separated scale factors (paper ratio 10:50:100)")
		workers = flag.Int("workers", 4, "workers per pipeline")
		runs    = flag.Int("runs", 3, "independent runs for averaged experiments")
		queries = flag.String("queries", "", "comma-separated query ids to restrict to (default all 22)")
		seed    = flag.Int64("seed", 1, "random seed for termination sampling")
		ckdir   = flag.String("checkpoint-dir", "", "checkpoint directory (default: temp dir)")
		quiet   = flag.Bool("quiet", false, "suppress progress logging")
		metrics = flag.Bool("metrics", false, "trace every run, log adaptive decisions, and dump each scale factor's metrics snapshot (human-readable + JSON) at exit")
	)
	flag.Parse()
	if *exp == "fold" {
		sfv, err := parseFloats(*sfs)
		if err != nil {
			fatal("bad -sfs: %v", err)
		}
		t, err := runFoldExperiment(sfv[len(sfv)-1], *workers)
		if err != nil {
			fatal("%v", err)
		}
		t.Fprint(os.Stdout)
		return
	}

	cfg := bench.Config{
		Workers:       *workers,
		Runs:          *runs,
		Seed:          *seed,
		CheckpointDir: *ckdir,
		Out:           os.Stdout,
		Quiet:         *quiet,
		Metrics:       *metrics,
	}
	var err error
	if cfg.SFs, err = parseFloats(*sfs); err != nil {
		fatal("bad -sfs: %v", err)
	}
	if *queries != "" {
		ids, err := parseInts(*queries)
		if err != nil {
			fatal("bad -queries: %v", err)
		}
		cfg.Queries = ids
	}
	suite, err := bench.NewSuite(cfg)
	if err != nil {
		fatal("%v", err)
	}
	if _, err := suite.Run(*exp); err != nil {
		fatal("%v", err)
	}
	if cfg.Metrics {
		_ = suite.WriteMetrics(os.Stdout)
	}
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "riveter-bench: "+format+"\n", args...)
	os.Exit(1)
}

package main

import (
	"context"
	"fmt"
	"time"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/bench"
	"github.com/riveterdb/riveter/internal/server"
)

// The shared-execution experiment lives here rather than in internal/bench:
// it exercises the serving layer (whole-plan folding at admission) on top
// of the root database API, which the suite — built on the paper-era
// internal controller — deliberately does not depend on.

// foldQueries is the mixed workload: eight distinct TPC-H queries spanning
// scan-heavy aggregation (1, 6), multi-join (3, 5, 10), and
// semi-join/filter shapes (12, 14, 19).
var foldQueries = []int{1, 3, 5, 6, 10, 12, 14, 19}

// foldDups is how many copies of each distinct query the experiment
// submits: 8 distinct x 4 = 32 concurrent sessions.
const foldDups = 4

// runFoldExperiment serves the same 32-session mixed TPC-H burst twice,
// once by a plain server (every session executes privately) and once by a
// fold-enabled one (identical plans ride one execution, non-identical plans
// share table scans underneath), and tabulates aggregate throughput.
func runFoldExperiment(sf float64, workers int) (*bench.Table, error) {
	t := &bench.Table{
		Title:  fmt.Sprintf("Shared execution: 32-session mixed burst at SF%g", sf*1000),
		Header: []string{"mode", "sessions", "wall", "queries/sec"},
	}
	var walls [2]time.Duration
	for i, fold := range []bool{false, true} {
		wall, err := foldBurst(sf, workers, fold)
		if err != nil {
			return nil, err
		}
		walls[i] = wall
		mode := "isolated"
		if fold {
			mode = "folded"
		}
		n := len(foldQueries) * foldDups
		t.AddRow(mode, fmt.Sprint(n), wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", float64(n)/wall.Seconds()))
	}
	t.AddRow("speedup", "", "", fmt.Sprintf("%.2fx", walls[0].Seconds()/walls[1].Seconds()))
	return t, nil
}

// foldBurst serves one 32-session burst and returns its wall-clock time.
func foldBurst(sf float64, workers int, fold bool) (time.Duration, error) {
	opts := []riveter.Option{riveter.WithWorkers(workers)}
	if fold {
		opts = append(opts, riveter.WithFold())
	}
	db := riveter.Open(opts...)
	if err := db.GenerateTPCH(sf); err != nil {
		return 0, err
	}
	srv, err := server.New(server.Config{
		DB:     db,
		Slots:  workers,
		Policy: server.FIFO{},
	})
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	defer srv.Shutdown(ctx)

	start := time.Now()
	ids := make([]string, 0, len(foldQueries)*foldDups)
	for d := 0; d < foldDups; d++ {
		for _, q := range foldQueries {
			sess, err := srv.Submit(server.Request{TPCH: q})
			if err != nil {
				return 0, err
			}
			ids = append(ids, sess.ID())
		}
	}
	for _, id := range ids {
		if _, err := srv.Wait(ctx, id); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}
